"""The README's runnable snippet runs against the current API."""

import importlib
import re
from pathlib import Path

from oce_rcps import calibrate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    exec(compile(snippet, f"{README.name} (Library quick start)", "exec"), {})
    lambda_hat, feasible = capsys.readouterr().out.splitlines()[0].split()
    assert 0.0 <= float(lambda_hat) <= 1.0 and feasible in ("True", "False")


def test_readme_states_the_scan_block_widths():
    # the calibrate.py paragraph states the block schedule in words; a width
    # changed in the code and not in the README fails here
    paragraph = README.read_text().split("- `src/oce_rcps/calibrate.py`", 1)[1].split("\n- `", 1)[0]
    stated = re.search(
        r"the first\s+block holds (\d+) columns and each later block twice as many,\s+up to (\d+)",
        paragraph,
    )
    assert stated, "the calibrate.py paragraph no longer states the block widths"
    assert tuple(map(int, stated.groups())) == (calibrate._FIRST_BLOCK, calibrate._MAX_BLOCK)
    assert not re.search(r"block of \d+ grid columns|\d+-column block", README.read_text())


def test_readme_states_the_trace_fields():
    # the calibrate.py paragraph names the trace's fields; a field added to
    # or dropped from calibrate._TRACE and not the README fails here
    paragraph = README.read_text().split("- `src/oce_rcps/calibrate.py`", 1)[1].split("\n- `", 1)[0]
    stated = re.search(r"with fields\s+((?:`\w+`(?:,\s+|\s+and\s+)?)+)", paragraph)
    assert stated, "the calibrate.py paragraph no longer states the trace fields"
    assert tuple(re.findall(r"`(\w+)`", stated.group(1))) == calibrate._TRACE.names


def test_readme_module_names_resolve():
    # a backticked `module.name` (or a call `module.name(...)`) names an
    # attribute of that oce_rcps module, so a rename that leaves the README
    # behind fails here; `risk.py` and the like are file names
    modules = ("rng", "datagen", "risk", "bounds", "calibrate", "harness", "cli")
    named = set(re.findall(rf"`({'|'.join(modules)})\.(\w+)[`(]", README.read_text()))
    named -= {(module, "py") for module in modules}
    assert named, "the README names no module attribute"
    missing = [
        f"{module}.{name}" for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"oce_rcps.{module}"), name)
    ]
    assert missing == []
