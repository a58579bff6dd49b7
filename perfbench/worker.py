"""One workload in one fresh interpreter.

Started by ``run.py``, never imported by it, so peak RSS, the package's
module-global counters and warm objects belong to this workload alone.  Prints
one JSON object as its last line of output.

Modes:
  --setup-only   import dominia, build the set-up corpus; report the seconds
                 since --started and three reference() times;
  default        closed loop, one item at a time, until --seconds have passed;
  --trace        a fixed number of items, each once untraced and once traced.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import sys
import time
from fractions import Fraction

REFERENCE_EVERY_S = 0.1


def _import_package(root):
    """Import dominia from ``root``/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dominia", "__init__.py")):
        sys.exit(f"no dominia package under {src}")
    sys.path.insert(0, src)
    import dominia

    if not os.path.abspath(dominia.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported dominia from {dominia.__file__}, not from {src}")


def reference():
    """Fixed pure-Python work, exact fractions in a dict as in the package's
    inner loops.  Timed between items, it measures how fast the host runs
    this process at that moment: on a shared VM that speed steps by up to
    1.6x within seconds."""
    x = Fraction(1, 3)
    seen = {}
    for i in range(300):
        x = (x * Fraction(7, 5) + Fraction(i, 11)) / Fraction(13, 7)
        seen[(i % 17, x.denominator % 101)] = x
    return len(seen)


def _pass(workload, items, plant_wrong, tracer=None, budget=None, clock=None):
    """Run items in order, one after the other returns; with a ``budget``,
    stop at the first end of a slice (``workload.slice_items`` items) after
    ``budget`` seconds of wall time.

    Returns per-item seconds, verdicts and the number of failed items.  Only
    ``workload.run`` is timed.  An item fails when it raises or when its
    verdict differs from the known answer.  With a ``clock`` dict, item start
    times go to ``clock["starts"]``, and ``reference()`` runs between items
    every ``REFERENCE_EVERY_S`` with its (start, seconds) going to
    ``clock["reference"]``."""
    seconds, verdicts, failed = [], [], 0
    deadline = None if budget is None else time.perf_counter() + budget
    last_reference = float("-inf")
    for k, item in enumerate(items):
        if clock is not None and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            last_reference = _time_reference(clock)
        start = time.perf_counter()
        if clock is not None:
            clock["starts"].append(start)
        try:
            result = workload.run(item)
        except Exception as exc:  # a raising item is a failed item
            result = exc
        seconds.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_item()
        expected = workload.expected(item)
        if plant_wrong and k == 0:
            expected = ("planted wrong answer", expected)
        if isinstance(result, Exception):
            verdict = f"raised {type(result).__name__}: {result}"
        else:
            verdict = workload.verdict(item, result)
        verdicts.append(verdict)
        if verdict != expected:
            failed += 1
            print(f"{workload.name} item {k}: got {verdict!r}, known answer {expected!r}", file=sys.stderr)
        if deadline is not None and time.perf_counter() >= deadline and (k + 1) % workload.slice_items == 0:
            break
    if clock is not None:
        _time_reference(clock)
    return seconds, verdicts, failed


def _time_reference(clock):
    start = time.perf_counter()
    reference()
    clock["reference"].append((start, time.perf_counter() - start))
    return start


def _traced(workload, seed, plant_wrong):
    """Each item once untraced and once traced, in alternating order, so that
    drift in machine speed during the run falls on both sides alike."""
    import tracer as tracing

    tr = tracing.Tracer()
    with tr.installed():  # generator time is part of the per-layer record
        items = list(itertools.islice(workload.stream(seed), workload.trace_items))
    plain_s, traced_s, failed = [], [], 0
    for k, item in enumerate(items):
        plant = plant_wrong and k == 0
        runs = {}
        for traced in (k % 2 == 1, k % 2 == 0):
            with tr.installed() if traced else contextlib.nullcontext():
                runs[traced] = _pass(workload, [item], plant, tr if traced else None)
        (seconds, verdicts, item_failed), (plain, plain_verdicts, _) = runs[True], runs[False]
        traced_s += seconds
        plain_s += plain
        failed += item_failed
        if verdicts != plain_verdicts:
            print(f"{workload.name} item {k}: traced and untraced verdicts differ", file=sys.stderr)
            failed += item_failed == 0
    return {
        "seconds": traced_s,
        "failed": failed,
        "trace": tracing.layer_metrics(tr, sum(traced_s), sum(plain_s)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started", type=float, help="CLOCK_MONOTONIC time the parent started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--plant-wrong-answer", action="store_true")
    args = ap.parse_args(argv)

    _import_package(os.getcwd())
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.build(args.seed)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.started
        clock = {"reference": []}
        for _ in range(3):
            _time_reference(clock)
        print(json.dumps({"setup_s": setup_s, "reference": [d for _, d in clock["reference"]]}))
        return 0
    if args.trace:
        out = _traced(workload, args.seed, args.plant_wrong_answer)
    else:
        stream = workload.stream(args.seed)
        corpus = list(itertools.islice(stream, workload.corpus_size))
        items = itertools.chain(corpus, stream)
        clock = {"starts": [], "reference": []}
        seconds, _, failed = _pass(workload, items, args.plant_wrong_answer, budget=args.seconds, clock=clock)
        out = {"seconds": seconds, "failed": failed, "slice_items": workload.slice_items, **clock}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
