"""dominia benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload mixed-elim --seed 90125 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced closed loop;
``--trace 1`` reports the per-layer metrics of a traced run.  The workload
runs in a fresh interpreter (``worker.py``); set-up is timed as the median of
several fresh interpreters that only import dominia and build the inputs.
Times are scaled to nominal host speed by a reference computation timed
beside them (see README.md); the measured ones are in the ``# detail`` line.
The last line of output is the result; lines before it start with ``#``.
The exit code is 0 only when every item gave its known answer.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("mixed-elim", "lp-queries", "clone-lattice", "renaming-confluence")

# the seed for work on a change; baseline.json records a second one, kept for
# confirming a claim on inputs not looked at while the change was written
DEFAULT_SEED = 90125

SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 150

# worker.reference() takes this long at nominal host speed: about its time on
# the 2-core Xeon the baseline was recorded on, when no neighbour slowed it.
REFERENCE_NOMINAL_S = 0.0025
# an item's host speed is read from the reference runs this close to it
SPEED_WINDOW_S = 0.3

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _worker(args, timeout):
    """Run worker.py in a fresh interpreter; its parsed last line and wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, WORKER, *args], capture_output=True, text=True, timeout=timeout
    )
    wall = time.perf_counter() - start
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), wall


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                head = f.read().strip()
        commit = head
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def at_nominal_speed(seconds, starts, reference):
    """Each item's seconds, scaled to nominal host speed: times the nominal
    reference time over the median of the reference times measured within
    SPEED_WINDOW_S of the item, or of the first one after it if none is (a
    reference run always follows the last item)."""
    ref_starts = [t for t, _ in reference]
    out = []
    for start, sec in zip(starts, seconds):
        lo = bisect.bisect_left(ref_starts, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(ref_starts, start + sec + SPEED_WINDOW_S)
        if lo == hi:
            lo, hi = hi, hi + 1
        near = statistics.median(d for _, d in reference[lo:hi])
        out.append(sec * REFERENCE_NOMINAL_S / near)
    return out


def timed_setups(common):
    """(scaled, measured) seconds of SETUP_REPEATS set-up-only interpreters,
    each from just before its start to the end of its set-up, read on the
    system-wide monotonic clock.  Each is scaled to nominal host speed by
    reference runs its interpreter makes right after set-up, on the CPU it
    ran on."""
    out = []
    for _ in range(SETUP_REPEATS):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        setup, _ = _worker(common + ["--setup-only", "--started", repr(started)], WORKER_TIMEOUT_S)
        measured = setup["setup_s"]
        out.append((measured * REFERENCE_NOMINAL_S / statistics.median(setup["reference"]), measured))
    return out


def sliced_rate(seconds, size):
    """Items per second as the median over the run's slices of ``size``
    items.  A rare item that takes seconds sits in one slice and leaves the
    median alone; it still shows in the latency percentiles."""
    return statistics.median(size / sum(seconds[k : k + size]) for k in range(0, len(seconds), size))


def latency(seconds, slice_items):
    """Throughput and latency percentiles of one run's item seconds."""
    ms = [1000 * s for s in seconds]
    return {
        "items_per_s": sliced_rate(seconds, slice_items),
        "items_per_s_whole_run": len(ms) / (sum(ms) / 1000),
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": quantile(ms, 0.90),
        "item_ms_p99": quantile(ms, 0.99),
        "item_ms_max": max(ms),
    }


def quantile(values, q):
    """The q-th quantile (0 < q < 1) by linear interpolation between order
    statistics, as ``statistics.quantiles(method='inclusive')`` gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--plant-wrong-answer",
        action="store_true",
        help="self-test of the correctness gate: expect a wrong answer for the first item",
    )
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dominia", "__init__.py")):
        sys.exit("run from the repository root: src/dominia is missing")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.plant_wrong_answer:
        common.append("--plant-wrong-answer")
    print("# env " + json.dumps(environment()))

    if args.trace:
        out, _ = _worker(common + ["--trace"], WORKER_TIMEOUT_S)
        metrics = out["trace"]
        detail = {}
    else:
        setups = timed_setups(common)
        out, _ = _worker(common + ["--seconds", str(args.seconds)], WORKER_TIMEOUT_S)
        scaled = latency(at_nominal_speed(out["seconds"], out["starts"], out["reference"]), out["slice_items"])
        values = {
            **scaled,
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": statistics.median(s for s, _ in setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        reference_ms = sorted(1000 * d for _, d in out["reference"])
        detail = {
            "item_ms_p99": scaled["item_ms_p99"],
            "items_per_s_whole_run": scaled["items_per_s_whole_run"],
            "item_ms_max": scaled["item_ms_max"],
            "measured": latency(out["seconds"], out["slice_items"]),
            "reference_ms_min_median_max": [reference_ms[0], statistics.median(reference_ms), reference_ms[-1]],
            "setup_s_measured": [measured for _, measured in setups],
        }

    attempted = len(out["seconds"])
    failed = out["failed"]
    detail.update(items=attempted, failed_frac=failed / attempted, seed=args.seed)
    print("# detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
