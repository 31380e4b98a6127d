import subprocess
import sys
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

MODULE = '''\
"""A module docstring
over two lines."""

# a comment-only line
import os


def twice(x):
    """A function docstring."""
    return 2 * x  # a trailing comment
'''


def test_src_lines_counts_total_and_code_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    run = subprocess.run([sys.executable, str(SRC_LINES), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()}
    # 10 lines; code: `import os`, `def twice(x):` and `return 2 * x`
    assert rows["pkg/mod.py"] == ["10", "3"]
    assert rows["total"] == ["10", "3"]
