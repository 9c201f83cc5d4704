"""The package metadata declares what the test suite imports and the console script it installs,
and the package exports exactly its public names."""

import ast
import importlib.metadata
import pathlib
import re
import sys
import tomllib
import types

import flexsat
from flexsat import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _requirement_names(requirements) -> set[str]:
    """Import names of PEP 508 requirement strings ("numpy>=2.0" -> "numpy")."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_") for req in requirements}


def _top_level_imports(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_imports_are_declared():
    # `pip install -e '.[test]'` followed by `pytest` must collect every module
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = _requirement_names(project["dependencies"] + project["optional-dependencies"]["test"])
    allowed = set(sys.stdlib_module_names) | {"flexsat", "conftest"} | declared
    undeclared = {
        path.name: sorted(_top_level_imports(path) - allowed)
        for path in sorted((ROOT / "tests").glob("*.py"))
    }
    assert {name: mods for name, mods in undeclared.items() if mods} == {}


def test_console_script_resolves_to_cli_main():
    # the `flexsat` script that `pip install` writes loads this entry point
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    main = importlib.metadata.EntryPoint("flexsat", scripts["flexsat"], "console_scripts").load()
    assert main is cli.main and callable(main)


def test_public_api_list_is_exact():
    # __all__ names every public name the package binds, its submodules aside, and each resolves
    public = {name for name, value in vars(flexsat).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(flexsat.__all__)) == len(flexsat.__all__)
    assert set(flexsat.__all__) == public
    namespace = {}
    exec("from flexsat import *", namespace)
    assert all(namespace[name] is getattr(flexsat, name) for name in flexsat.__all__)
