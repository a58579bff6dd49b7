"""Tests of the benchmark itself: tracer bindings, known answers, the
correctness gate and repeatable counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
The repeat test makes two traced runs per workload and takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import known  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from dominia import new_game  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# items per workload for the in-process tests; kept small for time
FEW = {"mixed-elim": 3, "lp-queries": 60, "clone-lattice": 3, "renaming-confluence": 2}


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def test_tracer_wraps_every_binding_and_restores():
    originals = tracer.originals()
    by_id = {id(fn): name for name, fn in originals}
    modules = tracer.dominia_modules()
    import dominia.engine
    import dominia.mixed

    with tracer.Tracer().installed():
        for mod in modules:
            for attr, value in vars(mod).items():
                assert id(value) not in by_id, f"{mod.__name__}.{attr} is the unwrapped {by_id[id(value)]}"
        assert dominia.engine.find_dominator.__wrapped_original__ is dict(originals)["mixed.find_dominator"]
    assert dominia.engine.find_dominator is dict(originals)["mixed.find_dominator"]
    assert dominia.mixed.find_dominator is dict(originals)["mixed.find_dominator"]
    for mod in modules:
        for value in vars(mod).values():
            assert not hasattr(value, "__wrapped_original__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_verdicts_match_known_answers(name):
    workload = WORKLOADS[name]
    items = list(itertools.islice(workload.stream(run.DEFAULT_SEED), FEW[name]))
    _, plain, failed = worker._pass(workload, items, plant_wrong=False)
    assert failed == 0
    tr = tracer.Tracer()
    with tr.installed():
        _, traced, failed = worker._pass(workload, items, plant_wrong=False, tracer=tr)
    assert failed == 0
    assert traced == plain
    assert sum(tr.calls.values()) > 0


def _game_3x2(rows0, payoff1):
    """Player 0 has rows T, B, M over columns L, R; payoff1 gives player 1's
    payoff at each (row, column)."""
    labels = [["T", "B", "M"], ["L", "R"]]
    table = {(r, c): (rows0[r][c], payoff1.get((r, c), 0)) for r in range(3) for c in range(2)}
    return new_game(labels, table)


@pytest.mark.parametrize(
    "rows0, payoff1, wm, nwm",
    [
        # the half-half mix ties M at both columns: never strictly better
        ([(2, 0), (0, 2), (1, 1)], {}, False, False),
        # mixes near T beat M at both columns, with no tie at all
        ([(2, 0), (0, 2), (1, 0)], {(2, 0): 5}, True, True),
        # column L ties for every mix and player 1 sees the tie
        ([(1, 2), (1, 0), (1, 0)], {(2, 0): 5}, True, False),
        # column L ties for every mix and player 1's payoffs tie there too
        ([(1, 2), (1, 0), (1, 0)], {}, True, True),
    ],
)
def test_known_weak_mixed_answers(rows0, payoff1, wm, nwm):
    g = _game_3x2(rows0, payoff1)
    assert known.weak_mixed_dominated(g, 0, 2, (0, 1), nice=False) is wm
    assert known.weak_mixed_dominated(g, 0, 2, (0, 1), nice=True) is nwm


def test_planted_wrong_answer_fails_the_run():
    code, lines = _run("--workload", "lp-queries", "--seed", "7", "--seconds", "1", "--plant-wrong-answer")
    assert code != 0
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].split(" ", 2)[2])
    assert result["correct"] is False and result["failed"] >= 1
    assert detail["failed_frac"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = _run("--workload", "mixed-elim", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    with open(os.path.join(BENCH, "layers.json")) as f:
        groups = json.load(f)["groups"]
    named = [m for g in groups for m in g["metrics"]]
    assert sorted(named) == sorted(name for name, _, _ in tracer.PER_LAYER)
    end_to_end = {name for name, _, _ in run.END_TO_END}
    for g in groups:
        assert set(g["flat_on"]) <= set(run.WORKLOADS)
        for workload, moved in g["moves"].items():
            assert workload in run.WORKLOADS and set(moved) <= end_to_end


def test_item_times_are_scaled_to_nominal_host_speed():
    nominal = run.REFERENCE_NOMINAL_S
    # the host runs at half speed around the first item and at full speed
    # around the second, which has no reference run within the window
    reference = [(0.0, 2 * nominal), (0.2, 2 * nominal), (5.0, nominal)]
    far = 5.0 - run.SPEED_WINDOW_S - 1.5
    scaled = run.at_nominal_speed([0.1, 1.0], [0.05, far], reference)
    assert scaled == [0.05, 1.0]


EXACT = ("calls", ".yes", ".no", "engine.states", "lp.solve.infeasible", "witnesses_verified")


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    runs = []
    for _ in range(2):
        code, lines = _run("--workload", name, "--seed", "11", "--seconds", "10", "--trace", "1")
        assert code == 0
        metrics = json.loads(lines[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items() if k.endswith(EXACT)})
    assert runs[0] == runs[1]
    if name in ("clone-lattice", "renaming-confluence"):
        assert runs[0]["lp.solve.calls"] == 0
