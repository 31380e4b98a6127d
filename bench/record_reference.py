"""Record the float64 reference outputs that bench/run.py checks against.

    python3 bench/record_reference.py

For each reference seed it runs one round of every workload and stores each
operation's output: the loss of every training step, and the per-layer decay
statistics of every probe call.  The references in reference.json were recorded
at the commit that introduced the benchmark; a change that claims a speed-up
must match them, not re-record them.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(seed, workdir):
    outputs = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, seed, workdir / name)
        wl.setup()
        outputs[name] = [wl.op(j) for j in range(wl.round_len)]
    return outputs


def main():
    workdir = ROOT / ".bench_work" / "reference"
    seeds = {}
    try:
        for seed in range(workloads.REF_SEEDS):
            seeds[str(seed)] = record(seed, workdir)
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump({"seeds": seeds}, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
