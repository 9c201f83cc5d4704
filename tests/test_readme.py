"""The README's library sketch runs as written."""

import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    margin = capsys.readouterr().out.splitlines()[0]
    assert round(float(margin), 3) == 0.075  # the value the sketch's comment quotes
