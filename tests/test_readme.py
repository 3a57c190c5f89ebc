"""The README's runnable snippet and CLI examples run against the current API."""

import importlib
import re
import shlex
from pathlib import Path

from oce_rcps import calibrate, cli

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


def readme_commands():
    """Each `oce-rcps` command in the README's sh blocks as an argv, with
    `\\` continuations joined and `$var` expanded over its `for` list."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S):
        var, values = None, [None]
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if match := re.fullmatch(r"for (\w+) in (.*); do", line):
                var, values = match.group(1), match.group(2).split()
            elif line == "done":
                var, values = None, [None]
            elif line.startswith("oce-rcps "):
                for value in values:
                    command = line if var is None else line.replace(f"${var}", value)
                    commands.append(shlex.split(command)[1:])
    return commands


def test_readme_cli_examples_parse():
    # every example runs through the real parser and, for the commands that
    # take a run, makes the TrialConfig the run would use
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"generate", "calibrate", "evaluate", "trials", "sweep"}
    for argv in commands:
        args = cli._merge_config(cli._build_parser().parse_args(argv))
        if args.command in ("calibrate", "trials", "sweep"):
            test_size = None if args.command == "calibrate" else args.test_size
            assert cli._trial_config(args, test_size).method == args.method, argv
