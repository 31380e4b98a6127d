"""Run one decaylab benchmark workload and print its metrics.

    python3 bench/run.py --workload train_smoke --seed 0 --seconds 20 --trace 0

One client runs operations back to back (closed loop, one at a time) in this
single process.  ``--trace 0`` prints the end-to-end metrics of an untraced
run; for ``setup_s`` it also times three set-ups, each in a fresh process,
one after the other and before the timed loop.  ``--trace 1`` prints the
per-layer metrics of a traced run (see README.md).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the machine.  Every operation's
output is checked against the float64 reference in ``reference.json``.
OpenBLAS runs one thread (see README.md).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# setup_s is the median over this many fresh processes.
SETUP_SAMPLES = 3

if __name__ == "__main__":
    # Before numpy loads OpenBLAS.  At this geometry a second BLAS thread only
    # spin-waits: the wall time is the same, the CPU time doubles, and the
    # run-to-run spread on a shared host doubles with it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _import_program():
    """Import decaylab from this checkout's src/, and nowhere else."""
    if not (SRC / "decaylab" / "__init__.py").is_file():
        sys.exit(f"bench: no decaylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import decaylab
    if Path(decaylab.__file__).resolve().parent != SRC / "decaylab":
        sys.exit(f"bench: imported decaylab from {decaylab.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


# -- machine record -----------------------------------------------------------

def _blas_threads():
    """OpenBLAS's thread limit, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


# -- operations ---------------------------------------------------------------

class Log:
    """Times, labels and outputs of the operations run, in order."""

    def __init__(self):
        self.times, self.labels, self.outputs = [], [], []
        self.failed = 0

    def p50_ms(self, label=None):
        ts = [t for t, lab in zip(self.times, self.labels) if label in (None, lab)]
        return 1000.0 * statistics.median(ts) if ts else 0.0


def run_ops(wl, indices, expected, log, tr=None):
    """Run operations ``indices`` of the round, one after another."""
    for j in indices:
        if tr is not None:
            tr.begin_op()
        start = time.perf_counter()
        try:
            out = wl.op(j)
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        log.times.append(time.perf_counter() - start)
        if tr is not None:
            tr.end_op()
        log.labels.append(wl.label(j))
        log.outputs.append(out)
        if out is None or not wl.matches(out, expected[j]):
            log.failed += 1


def run_rounds(wl, expected, log, seconds, min_ops):
    """Whole rounds until at least ``seconds`` and ``min_ops`` are reached."""
    start = time.perf_counter()
    while True:
        run_ops(wl, range(wl.round_len), expected, log)
        if time.perf_counter() - start >= seconds and len(log.times) >= min_ops:
            return


def set_up(name, seed, workdir, expected, log):
    """Build inputs and run one warm-up operation; returns the workload."""
    wl = workloads.make(name, seed, workdir)
    wl.setup()
    run_ops(wl, [0], expected, log)
    return wl


def fresh_set_up(args):
    """Set up in a fresh process, which pays every import and first-call cost
    again.  Returns the seconds from starting it to the end of its warm-up
    operation, and the number of its failed warm-up operations."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--set-up-only"],
            stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"fresh set-up exited with code {proc.returncode}")
    return setup_s, json.loads(line)["failed"]


# -- metrics ------------------------------------------------------------------

def end_to_end(wl, times, setup_s):
    p50, p90 = np.percentile(1000.0 * np.asarray(times), [50, 90])
    return {
        "step_ms_p50": (float(p50), "ms"),
        "step_ms_p90": (float(p90), "ms"),
        "tokens_per_s": (wl.tokens_per_op * len(times) / float(np.sum(times)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


STRATEGIES = tuple(workloads.SMOKE)


def per_layer(wl, tr, mem, plain, traced):
    n = tr.ops
    mb = 1.0 / 2**20

    def ms(seconds):
        return 1000.0 * seconds / n

    m = {
        "recurrence.fwd_ms": (ms(tr.fwd["recurrence"]), "ms"),
        "recurrence.bwd_ms": (ms(tr.bwd["recurrence"]), "ms"),
        "recurrence.calls": (tr.calls["recurrence"] / n, "count"),
        "recurrence.alloc_peak_mb": (statistics.mean(mem.alloc_peaks) * mb, "MB"),
        "tensor.retained_mb": (statistics.mean(mem.retained) * mb, "MB"),
    }
    for group in ("decay.proj", "decay.formula", "posenc", "model.mixer", "model.glu",
                  "model.lm"):
        m[f"{group}.fwd_ms"] = (ms(tr.fwd[group]), "ms")
        m[f"{group}.bwd_ms"] = (ms(tr.bwd[group]), "ms")
    m.update({
        "tensor.tape_nodes": (tr.tape_nodes / n, "count"),
        "tensor.dispatch_ms": (ms(tr.dispatch), "ms"),
        "train.batch_ms": (ms(tr.fwd["train.batch"]), "ms"),
        "train.xent.fwd_ms": (ms(tr.fwd["train.xent"]), "ms"),
        "train.xent.bwd_ms": (ms(tr.bwd["train.xent"]), "ms"),
        "train.clip_ms": (ms(tr.fwd["train.clip"]), "ms"),
        "train.adamw_ms": (ms(tr.fwd["train.adamw"]), "ms"),
        "checkpoint.save_ms": (ms(tr.fwd["checkpoint.save"]), "ms"),
        "checkpoint.load_ms": (ms(tr.fwd["checkpoint.load"]), "ms"),
        "checkpoint.mb": (statistics.mean(os.path.getsize(p) for p in wl.checkpoint_paths)
                          * mb, "MB"),
        "probe.capture_ms": (ms(tr.fwd["probe.capture"]), "ms"),
        "probe.export_ms": (ms(tr.fwd["probe.export"]), "ms"),
        "cli.probe_ms": (ms(tr.fwd["cli.probe"]), "ms"),
    })
    for label in STRATEGIES:
        m[f"step_ms.{label}"] = (plain.p50_ms(label), "ms")
    m["trace.overhead_ms"] = (traced.p50_ms() - plain.p50_ms(), "ms")
    return m


# -- main -----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by fresh_set_up: set up, report and exit
    parser.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    expected = workloads.reference(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    log = Log()
    try:
        wl = set_up(args.workload, args.seed, workdir, expected, log)
        if args.set_up_only:
            print(json.dumps({"failed": log.failed}), flush=True)
            return 0
        warmups = len(log.times)
        if not args.trace:
            fresh = [fresh_set_up(args) for _ in range(SETUP_SAMPLES)]
            setup_s = statistics.median(s for s, _ in fresh)
            run_rounds(wl, expected, log, args.seconds, MIN_OPS)
            metrics = end_to_end(wl, log.times[warmups:], setup_s)
            attempted = len(log.times) + len(fresh)
            failed = log.failed + sum(f for _, f in fresh)
            correct = failed == 0
        else:
            # Untraced and traced rounds alternate, so both see the same
            # machine conditions and their difference is the tracer's cost.
            plain, traced = Log(), Log()
            tr = tracer.Tracer()
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds or not traced.times:
                run_ops(wl, range(wl.round_len), expected, plain)
                with tr:
                    run_ops(wl, range(wl.round_len), expected, traced, tr)
            mem = Log()
            with tracer.Tracer(memory=True) as mem_tr:
                run_ops(wl, wl.independent_ops(), expected, mem, mem_tr)
            metrics = per_layer(wl, tr, mem_tr, plain, traced)
            runs = (log, plain, traced, mem)
            attempted = sum(len(r.times) for r in runs)
            failed = sum(r.failed for r in runs)
            # the traced run must compute exactly what the untraced run did
            bitwise = traced.outputs == plain.outputs
            if not bitwise:
                print("bench: traced outputs differ from untraced outputs", file=sys.stderr)
            correct = failed == 0 and bitwise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "reference_seed": workloads.workload_seeds(args.seed)[0],
                      "trace": args.trace, "machine": machine()}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
