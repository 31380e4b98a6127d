"""Outside-in per-layer tracing of decaylab.

:class:`Tracer` wraps every public function (and public method of a public
class) of the measured modules, and rebinds each alias of it across the
``decaylab`` modules by object identity, so ``model.forward_sequential`` is
traced as ``recurrence.forward_sequential``.  Nothing under ``src/`` changes.

Each wrapped call is a span charged to a *group*.  A group's forward time is
the self time of its spans: span time minus the time of child spans.  Tensor
ops are not wrapped, so their time lands in the calling span.  For backward,
each tape node created while a span was open is charged to the innermost such
span (node ranges come from ``len(Tape.nodes)`` on entry and exit), and the
node's rule is timed when ``tensor.backward`` runs it; the rest of the
backward walk is the tape's dispatch time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
import weakref
from collections import Counter, defaultdict

from decaylab import tensor

MEASURED = ("decay", "recurrence", "posenc", "model", "train", "checkpoint", "probe", "cli")

# Functions charged to a named group.  A name missing from its module is an
# error, so a rename cannot silently move time into another group.
GROUPS = {
    "decay.decay_activations": "decay.proj",
    "decay.DecayProjection.check": "decay.proj",
    # compute_decay's own work is the tnl / tnl_l formulas and the dispatch
    "model.compute_decay": "decay.formula",
    "model.token_mixer_forward": "model.mixer",
    "model.glu_forward": "model.glu",
    "model.lm_forward": "model.lm",
    "model.init_params": "model.init",
    "train.next_batch": "train.batch",
    "train.cross_entropy": "train.xent",
    "train.clip_gradients": "train.clip",
    "train.AdamW.step": "train.adamw",
    "checkpoint.save_checkpoint": "checkpoint.save",
    "checkpoint.load_checkpoint": "checkpoint.load",
    "probe.capture_trace": "probe.capture",
}
# Any other public function of these modules, present or future, is charged to
# its module's group; in the remaining modules it takes its caller's group.
MODULE_GROUPS = {
    "decay": "decay.formula",
    "recurrence": "recurrence",
    "posenc": "posenc",
    "probe": "probe.export",
    "cli": "cli.probe",
}
OUTSIDE = "outside"  # work in no span: the benchmark's own loop code


def _public_functions(mod):
    """(owner, attribute name, qualified name, function) for mod's public API."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, f"{short}.{name}", obj
        elif inspect.isclass(obj):
            for mname, meth in sorted(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    yield obj, mname, f"{short}.{name}.{mname}", meth


class Tracer:
    """Context manager that installs the wrappers on entry and removes them on
    exit.  With ``memory=True`` it also runs ``tracemalloc`` and records, per
    operation, the peak allocation inside recurrence calls and the memory the
    tape holds when backward starts.

    Call :meth:`begin_op` and :meth:`end_op` around each operation.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.fwd = defaultdict(float)    # group -> forward self seconds
        self.bwd = defaultdict(float)    # group -> backward rule seconds
        self.calls = Counter()           # group -> spans
        self.tape_nodes = 0
        self.dispatch = 0.0
        self.ops = 0
        self.alloc_peaks = []            # per op, bytes
        self.retained = []               # per op, bytes
        self._op_alloc = self._op_retained = self._op_base = 0
        self._stack = []                 # [group, child seconds]
        self._owners = weakref.WeakKeyDictionary()  # tape -> group per node
        self._restore = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        found, wrappers, methods = set(), {}, []
        for short in MEASURED:
            mod = importlib.import_module(f"decaylab.{short}")
            for owner, name, qual, fn in _public_functions(mod):
                found.add(qual)
                wrapper = self._span(fn, GROUPS.get(qual, MODULE_GROUPS.get(short)))
                if inspect.isclass(owner):
                    methods.append((owner, name, wrapper))
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        missing = sorted(set(GROUPS) - found)
        if missing:
            raise LookupError(f"trace targets not found in decaylab: {', '.join(missing)}")
        wrappers[id(tensor.backward)] = (tensor.backward, self._backward(tensor.backward))
        for owner, name, wrapper in methods:
            self._rebind(owner, name, wrapper)
        scope = [m for n, m in sorted(sys.modules.items())
                 if n == "decaylab" or n.startswith("decaylab.")]
        for mod in scope:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, name, hit[1])
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.memory:
            tracemalloc.stop()
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def _rebind(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- spans ----------------------------------------------------------------

    def _span(self, fn, group):
        stack = self._stack
        track_alloc = self.memory and group == "recurrence"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            g = group or (stack[-1][0] if stack else OUTSIDE)
            tape = tensor.active_tape()
            first = len(tape.nodes) if tape is not None else 0
            if track_alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            frame = [g, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.fwd[g] += elapsed - frame[1]
                self.calls[g] += 1
                if stack:
                    stack[-1][1] += elapsed
                if track_alloc:
                    self._alloc(base)
                if tape is not None:
                    self._claim(tape, first, g)

        return wrapper

    def _claim(self, tape, first, group):
        """Charge the not yet claimed nodes in tape.nodes[first:] to group;
        inner spans exit first, so each node goes to its innermost span."""
        owners = self._owners.setdefault(tape, [])
        end = len(tape.nodes)
        if len(owners) < end:
            owners.extend([None] * (end - len(owners)))
        for i in range(first, end):
            if owners[i] is None:
                owners[i] = group

    def _alloc(self, base):
        peak = tracemalloc.get_traced_memory()[1] - base
        self._op_alloc = max(self._op_alloc, peak)

    def _backward(self, original):
        @functools.wraps(original)
        def traced_backward(root):
            tape = tensor.active_tape()
            if tape is None:
                return original(root)
            if self.memory:
                self._op_retained = tracemalloc.get_traced_memory()[0] - self._op_base
            owners = self._owners.get(tape, [])
            rules = []
            spent = [0.0]
            for i, node in enumerate(tape.nodes):
                rule = node._backward
                if rule is None:
                    continue
                group = owners[i] if i < len(owners) and owners[i] else OUTSIDE
                rules.append((node, rule))
                node._backward = self._timed_rule(rule, group, spent)
            self.tape_nodes += len(tape.nodes)
            start = time.perf_counter()
            try:
                return original(root)
            finally:
                elapsed = time.perf_counter() - start
                for node, rule in rules:
                    node._backward = rule
                self.dispatch += elapsed - spent[0]
                if self._stack:
                    self._stack[-1][1] += elapsed

        return traced_backward

    def _timed_rule(self, rule, group, spent):
        bwd = self.bwd
        track_alloc = self.memory and group == "recurrence"

        def timed(g):
            if track_alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            rule(g)
            elapsed = time.perf_counter() - start
            bwd[group] += elapsed
            spent[0] += elapsed
            if track_alloc:
                self._alloc(base)

        return timed

    # -- operations -----------------------------------------------------------

    def begin_op(self):
        self._op_alloc = 0
        self._op_retained = 0
        if self.memory:
            self._op_base = tracemalloc.get_traced_memory()[0]

    def end_op(self):
        self.ops += 1
        if self.memory:
            self.alloc_peaks.append(self._op_alloc)
            self.retained.append(self._op_retained)
