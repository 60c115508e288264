"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.
"""

from __future__ import annotations

import io
import time

import numpy as np
import pytest

from conftest import key_rows
from otpiano.annotate import InfeasibleStepError, annotate_song, chunk_episodes
from otpiano.assign import (
    CostMatrix,
    brute_force_assignment,
    build_cost_matrix,
    solve_assignment,
)
from otpiano.hand import HandConfig, init_hands, step_hand
from otpiano.keyboard import KeyboardGeometry, KeyState, key_press_point
from otpiano.metrics import dataset_stats, f1, precision_recall
from otpiano.midi import (
    GoalSequence,
    NoteEvent,
    assemble_observation,
    discretize,
    goal_vector,
    observation_layout,
)
from otpiano.pig import parse_pig, write_pig
from otpiano.reward import DEFAULT_PARAMS, RewardParams, ot_reward, total_reward
from otpiano.store import EpisodeRecord, read_episode, write_episode

GEOM = KeyboardGeometry()
TEN = HandConfig.default()


def _verdict(number: int, label: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS - {label}")


def _random_matrix(rng, rows: int, cols: int = 10) -> CostMatrix:
    return CostMatrix(
        costs=rng.uniform(0.0, 1.0, size=(rows, cols)),
        key_ids=tuple(range(rows)),
        finger_ids=tuple(range(cols)),
    )


def _check_assignment_constraints(pairs, dropped, n_keys, n_fingers):
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    assert sorted(rows + list(dropped)) == list(range(n_keys))  # each key exactly once
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)  # each finger at most one key
    assert all(0 <= c < n_fingers for c in cols)
    assert len(set(pairs)) == len(pairs)  # boolean weights: a pair is chosen once


def test_criterion_01_assignment_optimality():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        rows = (i % 6) + 1
        matrix = _random_matrix(rng, rows)
        fast = solve_assignment(matrix)
        slow = brute_force_assignment(matrix)
        gap = abs(fast.total_cost - slow.total_cost)
        worst = max(worst, gap)
        assert gap < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"optimality suite took {elapsed:.2f}s"
    _verdict(1, f"1000 instances match the exhaustive oracle (worst gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_assignment_constraints():
    rng = np.random.default_rng(7)
    for i in range(300):
        rows = int(rng.integers(1, 11))
        cols = int(rng.integers(rows, 12))
        matrix = _random_matrix(rng, rows, cols)
        result = solve_assignment(matrix)
        _check_assignment_constraints(result.pairs, result.dropped_rows, rows, cols)
    # best-effort instances also satisfy the structural constraints
    for i in range(50):
        cols = int(rng.integers(1, 9))
        rows = cols + int(rng.integers(1, 4))
        matrix = _random_matrix(rng, rows, cols)
        result = solve_assignment(matrix, best_effort=True)
        _check_assignment_constraints(result.pairs, result.dropped_rows, rows, cols)
    _verdict(2, "every solved instance keeps keys unique, fingers exclusive, weights boolean")


def test_criterion_03_observation_layout():
    layout = observation_layout(11)
    sizes = [stop - start for _, (start, stop) in layout.items()]
    assert sizes == [88 * 11, 11, 88, 1, 30, 46]
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_steps = int(rng.integers(0, 30))
        active_sets = [rng.choice(88, size=rng.integers(0, 6), replace=False) for _ in range(n_steps)]
        seq = GoalSequence(key_rows(active_sets), dt=0.05)
        t = int(rng.integers(0, max(1, n_steps + 5)))
        goal = goal_vector(seq, t, 11)
        depths = tuple(float(d) for d in rng.uniform(0.0, 1.0, size=88))
        obs = assemble_observation(
            goal,
            KeyState(depths=depths, sustain=float(rng.uniform())),
            rng.standard_normal((10, 3)),
            rng.standard_normal(46),
        )
        assert obs.shape == (1144,)
    _verdict(3, "observations always have 1144 entries with block sizes (968, 11, 88, 1, 30, 46)")


def test_criterion_04_episode_law():
    assert 550 * 0.05 == pytest.approx(27.5)
    goals = GoalSequence(key_rows([{39}] * 1200), dt=0.05)
    annotation = annotate_song(goals, TEN, GEOM)
    episodes = chunk_episodes(goals, annotation, 550)
    assert len(episodes) == 3
    assert all(e.length == 550 for e in episodes)
    assert sum(e.n_real for e in episodes) == 1200
    assert [e.n_real for e in episodes] == [550, 550, 100]
    final = episodes[-1]
    assert final.n_padded == 550 - final.n_real
    assert not final.take(goals.keys)[final.n_real :].any()
    _verdict(4, "default chunking: 550 steps = 27.5 s; 1200 steps -> 3 equal episodes, tail zero-padded")


def test_criterion_05_proximity_reward_shape():
    for d in np.linspace(0.0, 0.0099999, 500):
        assert ot_reward(float(d)) == 1.0
    assert ot_reward(0.01) == 1.0
    assert abs(ot_reward(0.11) - 0.1) < 1e-9
    grid = np.linspace(0.01, 1.5, 10_000)
    values = [ot_reward(float(d)) for d in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    _verdict(5, "reward is 1 below 0.01 m, 0.1 at 0.11 m, strictly decreasing on a 10k grid")


def test_criterion_06_reward_aggregation():
    params = DEFAULT_PARAMS
    assert params.alpha_collision == 0.5
    assert params.alpha_energy == 5e-3
    rng = np.random.default_rng(6)
    for _ in range(200):
        ot, press, sustain, collision = rng.uniform(0.0, 1.0, size=4)
        energy = float(rng.uniform(0.0, 50.0))
        result = total_reward(ot, press, sustain, collision, energy)
        expected = ot + press + sustain + 0.5 * collision - 5e-3 * energy
        assert result.total == pytest.approx(expected, abs=1e-12)
    # affinity: unit change in each component moves the total by its coefficient
    base = total_reward(0.3, 0.4, 0.5, 0.6, 10.0).total
    deltas = [
        total_reward(1.3, 0.4, 0.5, 0.6, 10.0).total - base,
        total_reward(0.3, 1.4, 0.5, 0.6, 10.0).total - base,
        total_reward(0.3, 0.4, 1.5, 0.6, 10.0).total - base,
        total_reward(0.3, 0.4, 0.5, 1.6, 10.0).total - base,
        total_reward(0.3, 0.4, 0.5, 0.6, 11.0).total - base,
    ]
    assert deltas == pytest.approx([1.0, 1.0, 1.0, 0.5, -5e-3], abs=1e-12)
    _verdict(6, "aggregate reward is affine with coefficients (1, 1, 1, 0.5, -5e-3), energy as penalty")


def test_criterion_07_f1_identities():
    assert f1(1.0, 1.0) == 1.0
    assert f1(1.0, 0.5) == pytest.approx(2 / 3)
    for x in np.linspace(0.0, 1.0, 101):
        assert f1(float(x), float(x)) == pytest.approx(float(x), abs=1e-12)
    # a perfect synthetic rollout scores F1 = 1.0 end to end
    active_sets = [frozenset({30 + (t % 5), 60 - (t % 7)}) for t in range(40)]
    keys = key_rows(active_sets)
    precision, recall = precision_recall(keys, keys)
    assert f1(precision, recall) == 1.0
    stats = dataset_stats([GoalSequence(key_rows([{39}]), dt=0.05)], f1_scores=[0.8, 0.6, 0.4])
    assert stats.fraction_f1_above(0.5) >= stats.fraction_f1_above(0.75)
    assert stats.fraction_f1_above(0.75) == pytest.approx(1 / 3)
    _verdict(7, "F1 identities hold; perfect rollout scores 1.0; threshold fractions ordered")


def _random_goal_sequence(rng, n_steps=200, max_chord=10):
    sizes = rng.choice(
        np.arange(11),
        size=n_steps,
        p=[0.10, 0.30, 0.24, 0.15, 0.08, 0.05, 0.03, 0.02, 0.01, 0.01, 0.01],
    )
    active_sets = []
    for size in sizes:
        size = min(int(size), max_chord)
        active_sets.append(rng.choice(88, size=size, replace=False) if size else [])
    return GoalSequence(key_rows(active_sets), dt=0.05)


def test_criterion_08_annotator_feasibility():
    rng = np.random.default_rng(8)
    checked_against_oracle = 0
    for _ in range(100):
        goals = _random_goal_sequence(rng)
        annotation = annotate_song(goals, TEN, GEOM)  # strict mode must succeed
        state = init_hands(TEN, GEOM)
        for t, row in enumerate(goals.keys):
            active = set(np.flatnonzero(row).tolist())
            pairs = annotation.pairs(t)
            labeled = {k for k, _ in pairs}
            assert labeled == active  # every active key exactly once
            fingers = [f for _, f in pairs]
            assert len(set(fingers)) == len(fingers)  # fingers exclusive
            if 0 < len(active) <= 7:
                matrix = build_cost_matrix(state.fingertips, state.fingers, active, GEOM)
                oracle = brute_force_assignment(matrix)
                assert abs(annotation.distance[t] - oracle.total_cost) < 1e-9
                checked_against_oracle += 1
            targets = {finger: key_press_point(k, GEOM) for k, finger in pairs}
            state = step_hand(state, targets, goals.dt, TEN, GEOM)
    assert checked_against_oracle > 5000
    _verdict(8, f"100 random songs annotate strictly; {checked_against_oracle} chords match the oracle")


def test_criterion_09_cross_embodiment():
    four = HandConfig.four_finger()
    assert len(init_hands(four, GEOM).fingers) == 8
    rng = np.random.default_rng(9)
    sizes = list(rng.integers(1, 9, size=60))  # chords of <= 8 notes
    active_sets = [rng.choice(88, size=int(s), replace=False) for s in sizes]
    annotation = annotate_song(GoalSequence(key_rows(active_sets), dt=0.05), four, GEOM)
    assert all(f.digit != 5 for t in range(len(annotation)) for _, f in annotation.pairs(t))
    nine = GoalSequence(key_rows([range(40, 49)]), dt=0.05)
    with pytest.raises(InfeasibleStepError):
        annotate_song(nine, four, GEOM)
    _verdict(9, "little fingers disabled: 8-note chords annotate, a 9-note chord is infeasible")


def test_criterion_10_round_trips():
    # store: read(write(x)) is exact on random records
    rng = np.random.default_rng(10)
    for _ in range(100):
        T = int(rng.integers(1, 40))
        obs_dim = int(rng.integers(1, 64))
        act_dim = int(rng.integers(1, 16))
        rec = EpisodeRecord(
            observations=rng.standard_normal((T, obs_dim)).astype(np.float32),
            actions=rng.standard_normal((T, act_dim)).astype(np.float32),
            rewards=rng.standard_normal(T).astype(np.float32),
            meta={"song": f"s{T}", "chunk": int(rng.integers(0, 9))},
        )
        buf = io.BytesIO()
        write_episode(rec, buf)
        buf.seek(0)
        back = read_episode(buf)
        assert np.array_equal(back.observations, rec.observations)
        assert np.array_equal(back.actions, rec.actions)
        assert np.array_equal(back.rewards, rec.rewards)
        assert back.meta == rec.meta

    # PIG: parse o write o parse == parse
    golden = (
        "//Version: PianoFingering_v170101\n"
        "0\t0.0\t0.5\tC4\t80\t80\t0\t1\n"
        "1\t0.25\t0.75\tF#3\t70\t0\t1\t-2\n"
        "2\t0.5\t1.0\tBb4\t60\t0\t0\t3_4\n"
    )
    once = parse_pig(golden)
    assert parse_pig(write_pig(once)) == once

    # MIDI discretization: hand-computed golden step tables
    notes = [NoteEvent(60, 0.0, 0.1, 80, 0), NoteEvent(62, 0.43, 0.61, 80, 0)]
    plain = discretize(notes, dt=0.05, stretch=1.0, trim_silence=False)
    table_plain = {39: {0, 1}, 41: {8, 9, 10, 11, 12}}
    for key, steps in table_plain.items():
        assert set(np.flatnonzero(plain.keys[:, key]).tolist()) == steps
    stretched = discretize([NoteEvent(60, 1.0, 1.2, 80, 0)], dt=0.05, stretch=1.25, trim_silence=False)
    active_steps = set(np.flatnonzero(stretched.keys[:, 39]).tolist())
    assert min(active_steps) == 25  # onset 1.0 s at stretch 1.25
    assert active_steps == {25, 26, 27, 28, 29}
    _verdict(10, "store, PIG and discretization round trips are exact (incl. stretch-1.25 onset)")


def test_criterion_11_corpus_statistics_substitute():
    # The published corpus is not bundled; statistics are validated on
    # synthetic inputs with analytically known answers, exercising the
    # same importer-facing machinery real files would flow through.
    uniform = [GoalSequence(key_rows([{k} for k in range(88)]), dt=0.05)]
    stats = dataset_stats(uniform)
    assert stats.white_fraction == pytest.approx(52 / 88, abs=0.005)
    assert stats.total_onsets == 88

    rng = np.random.default_rng(11)
    records = []
    expected_white = 0
    expected_total = 0
    for _ in range(6):
        keys = [int(k) for k in rng.choice(88, size=12, replace=False)]
        expected_total += len(keys)
        expected_white += sum(1 for k in keys if not _black(k))
        steps = []
        for key in keys:
            goal = goal_vector(GoalSequence(key_rows([{key}]), dt=0.05), 0, 11)
            steps.append(
                assemble_observation(goal, KeyState(), np.zeros((10, 3)), np.zeros(46)).astype(np.float32)
            )
        padded = np.vstack([np.stack(steps), np.zeros((3, 1144), dtype=np.float32)])
        records.append(
            EpisodeRecord(
                observations=padded,
                actions=np.zeros((len(keys) + 3, 39), dtype=np.float32),
                rewards=np.zeros(len(keys) + 3, dtype=np.float32),
                meta={"f1": float(rng.uniform(0.4, 1.0))},
            )
        )
    stats = dataset_stats(records, f1_scores=[r.meta["f1"] for r in records])
    assert stats.total_onsets == expected_total
    assert stats.white_fraction == pytest.approx(expected_white / expected_total, abs=0.005)
    assert stats.fraction_f1_above(0.5) >= stats.fraction_f1_above(0.75)
    _verdict(11, "statistics machinery validated on synthetic corpora with known answers")


def _black(key: int) -> bool:
    from otpiano.keyboard import is_black

    return is_black(key)
