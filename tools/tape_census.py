"""What one taped training step holds when its backward starts.

Reads an experiment config with ``cli.parse_config`` and runs one taped step
of its model on random tokens, batch_size x seq_len from its [train]
section, seeded by its train seed.  It prints, per kind of backward rule
(the function that recorded it, such as ``matmul`` or ``_chunkwise``), the
MB of arrays the rules hold when the backward starts, then their total and
the tracemalloc peaks, from after the parameters are made, of the forward,
of the backward (the peak is reset when it starts) and of the whole step,
the larger of the two.  Each array is counted once, as the base array that
owns its memory, under the first rule in tape order that reaches it.  Last
come the three backward rules with the highest peaks: each one's kind, its
index on the tape, the MB live when it starts and its peak.

    python tools/tape_census.py experiment.cfg
"""

from __future__ import annotations

import inspect
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from decaylab import cli, tensor  # noqa: E402
from decaylab.model import init_params  # noqa: E402
from decaylab.train import loss_on_batch  # noqa: E402

MB = 2**20


def held_arrays(rule):
    """{id: bytes} of the base arrays a backward rule holds through its
    closure and defaults, nested functions, lists and tuples.  The leaf
    Tensors a rule holds to add gradients into are not followed: their
    values live with or without the tape."""
    found, stack, seen = {}, [rule], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
    return found


def kind(rule):
    """The function that recorded a backward rule, such as ``matmul``."""
    return rule.__qualname__.split(".<locals>")[0]


def watched(rule, index, rules):
    """``rule``, appending (its peak, the bytes live when it starts, its
    kind, ``index``) to ``rules`` when it runs."""
    def run(g):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rule(g)
        rules.append((tracemalloc.get_traced_memory()[1], start, kind(rule), index))

    return run


def census(config):
    """(Counter of bytes held at backward start per rule kind, the forward's
    and the backward's tracemalloc peaks in bytes, and per backward rule its
    peak, the bytes live when it starts, its kind and its tape index, highest
    peak first) for one taped step of ``config``, an ``ExperimentConfig``."""
    params = init_params(config.model)
    rng = np.random.Generator(np.random.Philox(config.train.seed))
    tokens = rng.integers(0, config.model.vocab,
                          size=(config.train.batch_size, config.train.seq_len + 1))
    held, counted, rules = Counter(), set(), []
    tracemalloc.start()
    try:
        with tensor.Tape() as tape:
            loss = loss_on_batch(params, config.model, tokens[:, :-1], tokens[:, 1:])
            forward_peak = tracemalloc.get_traced_memory()[1]
            for index, node in enumerate(tape.nodes):
                if node._backward is None:
                    continue
                for key, size in held_arrays(node._backward).items():
                    if key not in counted:
                        counted.add(key)
                        held[kind(node._backward)] += size
                node._backward = watched(node._backward, index, rules)
            tracemalloc.reset_peak()
            tensor.backward(loss)
        # each rule resets the peak when it starts, so the backward's is
        # the highest of theirs and of what followed the last one
        backward_peak = max([tracemalloc.get_traced_memory()[1]] + [r[0] for r in rules])
    finally:
        tracemalloc.stop()
    return held, forward_peak, backward_peak, sorted(rules, reverse=True)


def main(argv):
    if len(argv) != 1:
        print("usage: tape_census.py <config>", file=sys.stderr)
        return 2
    held, forward_peak, backward_peak, rules = census(cli.parse_config(argv[0]))
    print(f"{'rule':<24} {'MB':>8}")
    for name, size in held.most_common():
        print(f"{name:<24} {size / MB:>8.3f}")
    print(f"{'total':<24} {sum(held.values()) / MB:>8.3f}")
    for name, peak in (("forward peak", forward_peak), ("backward peak", backward_peak),
                       ("step peak", max(forward_peak, backward_peak))):
        print(f"{name:<24} {peak / MB:>8.3f}")
    print()
    print(f"{'peak rule':<24} {'index':>8} {'start MB':>10} {'peak MB':>10}")
    for peak, start, name, index in rules[:3]:
        print(f"{name:<24} {index:>8} {start / MB:>10.3f} {peak / MB:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
