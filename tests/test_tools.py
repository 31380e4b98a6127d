import subprocess
import sys
from pathlib import Path


TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC_LINES = TOOLS / "src_lines.py"

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


TINY_CONFIG = """\
[model]
n_layers = 1
hidden = 16
heads = 2

[decay]
strategy = simple
p = 0.99

[train]
batch_size = 2
seq_len = 24
"""


def test_tape_census_rows_sum_to_the_total(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    run = subprocess.run([sys.executable, str(TOOLS / "tape_census.py"), str(config)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    held, rules = run.stdout.split("\n\n")
    lines = held.splitlines()
    assert lines[0].split() == ["rule", "MB"]
    rows = {line.rsplit(None, 1)[0]: float(line.rsplit(None, 1)[1]) for line in lines[1:]}
    total = rows.pop("total")
    peaks = [rows.pop(name) for name in ("forward peak", "backward peak", "step peak")]
    # each row and the total are printed to 0.001 MB
    assert abs(sum(rows.values()) - total) <= 0.0005 * (len(rows) + 1)
    assert rows["_chunkwise"] > 0 and min(peaks) > 0
    # the step's peak is the larger of the forward's and the backward's
    assert peaks[2] == max(peaks[:2])
    # the three backward rules with the highest peaks, highest first: the
    # first one's peak is the backward's, and no rule peaks below its start
    lines = rules.splitlines()
    assert lines[0].split() == ["peak", "rule", "index", "start", "MB", "peak", "MB"]
    top = [line.split() for line in lines[1:]]
    assert len(top) == 3 and len({index for _, index, _, _ in top}) == 3
    for name, index, start, peak in top:
        assert name.isidentifier() and int(index) >= 0 and 0 < float(start) <= float(peak)
    assert [float(row[3]) for row in top] == sorted((float(row[3]) for row in top), reverse=True)
    assert float(top[0][3]) == peaks[1]
