"""The README's library sketch and command-line examples run as written."""

import pathlib
import re
import shlex
import warnings

from flexsat import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    margin = capsys.readouterr().out.splitlines()[0]
    assert round(float(margin), 3) == 0.075  # the value the sketch's comment quotes


def test_readme_cli_examples_run(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 5 and all(c[0] == "flexsat" for c in commands)
    for argv in commands:
        argv = argv[1:]
        argv[argv.index("--config") + 1] = str(ROOT / argv[argv.index("--config") + 1])
        argv[argv.index("--out") + 1] = str(tmp_path)
        assert cli.main(argv) == 0, argv
    assert "[fail]" not in capsys.readouterr().out
