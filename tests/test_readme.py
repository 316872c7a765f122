"""The README's library example runs against the package as shipped."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines()[-1] == "51"
