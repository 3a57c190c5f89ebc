"""The repository's helper scripts under tools/."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = '''"""A module docstring
over two lines."""

import math  # a comment after code


def f(x):
    """A function docstring."""
    # a comment line

    text = """not a docstring,
    but a string over two lines"""
    return math.floor(x), text
'''


def test_src_lines_counts_code_outside_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    out = subprocess.run([sys.executable, str(TOOLS / "src_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    # a.py: import, def, the two lines of the string, return
    assert rows == {"pkg/a.py": ["13", "5"], "pkg/b.py": ["3", "1"], "total": ["16", "6"]}
