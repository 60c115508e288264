"""The scripts under ci/: golden_run.py's patch table must reach the functions it replaces, and restore them, and
golden.sh must run every patch; bench_pairs.py's summary of canned perfbench result lines."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

from otpiano import assign, store
from otpiano.hand import HandConfig, HandMotion, init_hands
from otpiano.keyboard import KeyboardGeometry

CI = Path(__file__).resolve().parents[1] / "ci"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, CI / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hand_step():
    config, geom = HandConfig(), KeyboardGeometry()
    motion = HandMotion(config, geom, 0.05, init_hands(config, geom))
    motion.step(([], []))
    assert motion.step(([], []))  # hands settled at rest step again only where the patch forces it


# patch name -> the object and attribute it replaces, and one direct call that reaches it
REACHES = {
    "zlib-crc32": (store, "crc32", lambda: store.crc32(b"x")),
    "searching-solve": (assign, "_augmenting_path_solve", lambda: assign.solve_cost_rows([[0.0]])),
    "unscreened-tie-break": (assign, "_lexicographic_optimum", lambda: assign.solve_cost_rows([[0.0]])),
    "every-hand-stepped": (HandMotion, "step", _hand_step),
}


def test_every_golden_run_patch_is_reached_and_then_restored():
    golden_run = _load("golden_run")
    assert set(golden_run.PATCHES) == set(REACHES)
    for name, (owner, attribute, call) in REACHES.items():
        original = getattr(owner, attribute)
        with golden_run.patched(name) as calls:
            assert getattr(owner, attribute) is not original
            call()
            assert calls, name
        assert getattr(owner, attribute) is original, name
    with pytest.raises(KeyError), golden_run.patched("no-such-patch"):
        pass


def test_golden_sh_runs_every_golden_run_patch_on_a_perfbench_workload():
    # expand golden.sh's "for run in ..." words as bash does: each is patch:workload:seed
    script = (CI / "golden.sh").read_text().replace("\\\n", " ")
    words = re.search(r"for run in (.*?); do", script).group(1)
    runs = subprocess.run(["bash", "-c", f"printf '%s\\n' {words}"], capture_output=True, text=True, check=True)
    workloads = {w["name"] for w in json.loads((CI.parent / "BENCHMARK.json").read_text())["workloads"]}
    covered = {patch for patch, workload, _ in (run.split(":") for run in runs.stdout.split()) if workload in workloads}
    assert covered >= {"none", "traced", *_load("golden_run").PATCHES}


def _line(correct=True, failed=0, **values):
    metrics = {name: {"value": value, "unit": "1/s"} for name, value in values.items()}
    return json.dumps({"correct": correct, "attempted": 9, "failed": failed, "metrics": metrics})


def test_bench_pairs_summary_gives_medians_ratios_wins_and_every_run_not_correct():
    end_to_end = [{"name": "episodes_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"},
                  {"name": "notes_per_s", "better": "higher"}]
    pairs = [
        (1101, _line(episodes_per_s=600.0, setup_s=0.30), _line(episodes_per_s=660.0, setup_s=0.28)),
        (1102, _line(episodes_per_s=640.0, setup_s=0.26), _line(episodes_per_s=630.0, setup_s=0.29)),
        (1101, _line(episodes_per_s=620.0, setup_s=0.27), _line(False, 1, episodes_per_s=700.0, setup_s=0.25)),
        (1102, "exit 1: Traceback", _line(episodes_per_s=1.0, setup_s=9.0)),
    ]
    summary = _load("bench_pairs").summarise(pairs, end_to_end).splitlines()
    assert summary[0].split() == ["metric", "parent", "change", "ratio", "parent", "IQR", "change", "better"]
    # the last pair has no parent result: it is left out of the medians, quartiles and win counts
    assert summary[1].split() == ["episodes_per_s", "620", "660", "1.0645", "40", "2/3"]
    assert summary[2].split() == ["setup_s", "0.27", "0.28", "1.0370", "0.04", "2/3"]
    assert summary[3].split() == ["notes_per_s", "no", "pair", "of", "values"]
    assert summary[4:] == [
        "runs not correct:",
        f"  pair 2 seed 1101 change: {pairs[2][2]}",
        "  pair 3 seed 1102 parent: exit 1: Traceback",
    ]
    assert _load("bench_pairs").summarise(pairs[:2], end_to_end[:1]).splitlines()[-1] == "runs not correct: none"


@pytest.mark.parametrize("seeds,pairs", [(["1", "2"], 4), (["1", "2", "3"], 6), (["1"], 2)])
def test_bench_pairs_runs_every_seed_in_both_orders(monkeypatch, capsys, seeds, pairs):
    bench_pairs = _load("bench_pairs")
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((seed, checkout.name))
        return _line(steps_per_s=1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", "parent", "--change", "change", "--workload", "strict-ten", "--seconds", "0"]
    assert bench_pairs.main([*argv, "--seeds", *seeds, "--pairs", str(pairs)]) == 0
    orders = {}  # seed -> the side that ran first, in each of its pairs
    for (seed, first), (again, _) in zip(runs[::2], runs[1::2]):
        assert again == seed  # both runs of a pair take one seed
        orders.setdefault(seed, []).append(first)
    assert {seed: sorted(firsts) for seed, firsts in orders.items()} == {int(s): ["change", "parent"] for s in seeds}
