"""Spans and counts around the public functions of each dominia layer.

``Tracer.installed()`` swaps a wrapper in for every binding of a traced
function in every loaded ``dominia`` module: the defining module and every
module that imported the name, such as ``engine``'s own ``find_dominator``.
Patching only the defining module would miss those calls.  On exit every
original is put back; installing again is cheap, so a run can trace one item
and leave the next untraced.

Spans are aggregated in memory as they close: per name, the number of calls,
the total seconds and the self seconds (total minus the time of the traced
spans directly inside).  Counts are taken at the same boundaries.  Repeat
ratios count distinct argument keys per item, which is the reuse a memo
scoped to one item's searches could have.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import dominia

# layer -> public functions traced in it
LAYERS = {
    "lp": ("solve",),
    "mixed": ("find_dominator", "mixed_dominated_set"),
    "inherent": ("is_inherently_dominated", "inherent_dominated_set"),
    "pure": ("dominates",),
    "game": ("restrict",),
    "engine": (
        "successors",
        "normal_forms",
        "check_weak_confluence",
        "check_one_step_closed",
        "check_one_at_a_time",
        "check_left_commutes",
        "maximal_reduce",
        "single_step_trace",
        "structured_elimination_scenario",
    ),
    "equivalence": ("canonical_signature", "equivalent", "partition_by_equivalence"),
    "oracles": ("sm_dominated_oracle", "pem_dominated_oracle"),
    "generator": ("random_game",),
}


def dominia_modules():
    """The package and every submodule, all imported, so that each module
    that binds a traced name is loaded before the bindings are swapped."""
    for info in pkgutil.iter_modules(dominia.__path__):
        importlib.import_module(f"dominia.{info.name}")
    return [m for name, m in sorted(sys.modules.items()) if name == "dominia" or name.startswith("dominia.")]


def _key_find_dominator(a):
    cols = a["columns"]
    return (
        a["game"],
        a["relation"],
        a["player"],
        a["strategy"],
        tuple(sorted(set(a["allowed_support"]))),
        None if cols is None else tuple(cols),
    )


# name -> builds the repeat key from the bound arguments
_KEYS = {
    "mixed.find_dominator": _key_find_dominator,
    "pure.dominates": lambda a: (a["game"], a["relation"], a["player"], a["dominated"], a["dominator"]),
    "game.restrict": lambda a: (a["game"], tuple(tuple(sorted(set(k))) for k in a["kept"])),
    "equivalence.canonical_signature": lambda a: a["game"],
}

# arguments that may be one-shot iterables; the wrapper materializes them
# before building a key, so the callee still sees every element
_MATERIALIZE = {
    "mixed.find_dominator": ("allowed_support", "columns"),
    "game.restrict": ("kept",),
}


def originals():
    """(span name, original function) for every traced function; call it
    while no tracer is installed."""
    out = []
    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"dominia.{layer}")
        for fname in names:
            out.append((f"{layer}.{fname}", getattr(mod, fname)))
    return out


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.distinct = Counter()
        self._seen = defaultdict(set)
        self._stack: list[list] = []  # [name, child seconds]
        self._swaps = None

    # -- bookkeeping at the boundaries -----------------------------------

    def end_item(self):
        """Close the repeat-key scope of one item."""
        for name, keys in self._seen.items():
            self.distinct[name] += len(keys)
        self._seen.clear()

    def _after(self, name, a, result):
        if name == "lp.solve":
            self.counts["lp.solve.rows"] += len(a["prob"].constraints)
            self.counts["lp.solve.cols"] += a["prob"].num_vars
            self.counts["lp.solve.infeasible"] += result.status == "infeasible"
        elif name == "mixed.find_dominator":
            outcome = "no" if result is None else "yes"
            self.counts[f"mixed.find_dominator.{a['relation']}.{outcome}"] += 1
        elif name == "equivalence.equivalent":
            self.counts["equivalence.equivalent.found"] += result is not None
        elif name == "engine.normal_forms":
            self.counts["engine.states"] += result.explored_states

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        make_key = _KEYS.get(name)
        materialize = _MATERIALIZE.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            for arg in materialize:
                if a[arg] is not None:
                    a[arg] = [tuple(k) for k in a[arg]] if arg == "kept" else tuple(a[arg])
            if make_key is not None:
                self._seen[name].add(make_key(a))
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                spent = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += spent
                self.self_s[name] += spent - frame[1]
                if self._stack:
                    self._stack[-1][1] += spent
            self._after(name, a, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def _bindings(self):
        """(module, attribute, original, wrapper) for every binding of every
        traced function, found once and reused by each installation."""
        if self._swaps is None:
            modules = dominia_modules()
            self._swaps = []
            for name, fn in originals():
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is fn:
                            self._swaps.append((mod, attr, fn, wrapper))
        return self._swaps

    @contextmanager
    def installed(self):
        """Trace inside the block; every original is back in place after it."""
        swaps = self._bindings()
        verified = dominia.mixed.verified_witness_count
        try:
            for mod, attr, _, wrapper in swaps:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn, _ in swaps:
                setattr(mod, attr, fn)
            self.counts["mixed.witnesses_verified"] += dominia.mixed.verified_witness_count - verified


TAGS = ("SM", "WM", "VWM", "NWM", "PEM")

# (name, unit, better) of every per-layer metric, in report order.  Busy time
# is given as a share of the traced items' seconds ("frac"), not in seconds:
# a layer that a workload never enters reads 0 on every run, which is a
# true count of work but would read as a stuck clock if given as a time.
PER_LAYER = (
    [
        ("lp.solve.calls", "count", "lower"),
        ("lp.solve.share", "frac", "lower"),
        ("lp.solve.rows_mean", "rows", "lower"),
        ("lp.solve.cols_mean", "cols", "lower"),
        ("lp.solve.infeasible", "count", "lower"),
    ]
    + [(f"mixed.find_dominator.{tag}.{out}", "count", "lower") for tag in TAGS for out in ("yes", "no")]
    + [
        ("mixed.find_dominator.self_share", "frac", "lower"),
        ("mixed.find_dominator.repeat_ratio", "ratio", "lower"),
        ("mixed.witnesses_verified", "count", "higher"),
        ("inherent.is_inherently_dominated.calls", "count", "lower"),
        ("inherent.is_inherently_dominated.self_share", "frac", "lower"),
        ("pure.dominates.calls", "count", "lower"),
        ("pure.dominates.share", "frac", "lower"),
        ("pure.dominates.repeat_ratio", "ratio", "lower"),
        ("engine.self_share", "frac", "lower"),
        ("engine.states", "count", "lower"),
        ("game.restrict.calls", "count", "lower"),
        ("game.restrict.share", "frac", "lower"),
        ("game.restrict.repeat_ratio", "ratio", "lower"),
        ("equivalence.canonical_signature.calls", "count", "lower"),
        ("equivalence.canonical_signature.share", "frac", "lower"),
        ("equivalence.canonical_signature.repeat_ratio", "ratio", "lower"),
        ("equivalence.equivalent.calls", "count", "lower"),
        ("equivalence.equivalent.share", "frac", "lower"),
        ("equivalence.equivalent.found", "count", "lower"),
        ("oracles.calls", "count", "lower"),
        ("oracles.share", "frac", "lower"),
        ("generator.random_game.s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def layer_metrics(tr: Tracer, traced_s: float, plain_s: float) -> dict:
    """Every PER_LAYER value from one traced pass over the items that took
    ``traced_s`` seconds traced and ``plain_s`` seconds untraced.  Shares are
    of ``traced_s``; oracle calls run outside the timed items, so their share
    can pass 1."""

    def ratio(a, b):
        return a / b if b else 0.0

    def share(seconds):
        return ratio(seconds, traced_s)

    def repeat(name):
        return ratio(tr.calls[name], tr.distinct[name])

    solves = tr.calls["lp.solve"]
    v = {
        "lp.solve.calls": solves,
        "lp.solve.share": share(tr.total["lp.solve"]),
        "lp.solve.rows_mean": ratio(tr.counts["lp.solve.rows"], solves),
        "lp.solve.cols_mean": ratio(tr.counts["lp.solve.cols"], solves),
        "lp.solve.infeasible": tr.counts["lp.solve.infeasible"],
        "mixed.find_dominator.self_share": share(tr.self_s["mixed.find_dominator"]),
        "mixed.find_dominator.repeat_ratio": repeat("mixed.find_dominator"),
        "mixed.witnesses_verified": tr.counts["mixed.witnesses_verified"],
        "inherent.is_inherently_dominated.calls": tr.calls["inherent.is_inherently_dominated"],
        "inherent.is_inherently_dominated.self_share": share(tr.self_s["inherent.is_inherently_dominated"]),
        "engine.self_share": share(sum((s for name, s in tr.self_s.items() if name.startswith("engine.")), 0.0)),
        "engine.states": tr.counts["engine.states"],
        "oracles.calls": sum(c for name, c in tr.calls.items() if name.startswith("oracles.")),
        "oracles.share": share(sum((s for name, s in tr.total.items() if name.startswith("oracles.")), 0.0)),
        "generator.random_game.s": tr.total["generator.random_game"],
        "trace.overhead": ratio(traced_s, plain_s) - 1,
    }
    for tag in TAGS:
        for out in ("yes", "no"):
            v[f"mixed.find_dominator.{tag}.{out}"] = tr.counts[f"mixed.find_dominator.{tag}.{out}"]
    for name in ("pure.dominates", "game.restrict", "equivalence.canonical_signature"):
        v[f"{name}.calls"] = tr.calls[name]
        v[f"{name}.share"] = share(tr.total[name])
        v[f"{name}.repeat_ratio"] = repeat(name)
    v["equivalence.equivalent.calls"] = tr.calls["equivalence.equivalent"]
    v["equivalence.equivalent.share"] = share(tr.total["equivalence.equivalent"])
    v["equivalence.equivalent.found"] = tr.counts["equivalence.equivalent.found"]
    return {name: {"value": v[name], "unit": unit} for name, unit, _ in PER_LAYER}
