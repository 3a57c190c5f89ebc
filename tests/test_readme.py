"""The README's runnable snippet runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    exec(compile(snippet, f"{README.name} (Library quick start)", "exec"), {})
    lambda_hat, feasible = capsys.readouterr().out.splitlines()[0].split()
    assert 0.0 <= float(lambda_hat) <= 1.0 and feasible in ("True", "False")
