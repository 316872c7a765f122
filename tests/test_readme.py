"""The README's library example runs against the package as shipped, and its test command runs
verbose too."""

import re
import subprocess
import sys
from pathlib import Path

from test_cli import _src_env

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines()[-1] == "51"


def test_a_verbose_run_reports_its_tests():
    # hypothesis's plugin prints its settings in a verbose run's header, before any test runs
    done = subprocess.run([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "tests/test_record.py"],
                          cwd=ROOT, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert " PASSED " in done.stdout
