from __future__ import annotations

import numpy as np
import pytest

from otpiano.annotate import (
    FingeringAnnotation,
    InfeasibleStepError,
    StepAnnotation,
    UnlabeledNoteError,
    annotate_song,
    annotation_to_pig,
    chunk_episodes,
    parse_annotation_text,
    score_annotation,
    write_annotation_text,
)
from otpiano.assign import brute_force_assignment, build_cost_matrix, solve_assignment
from otpiano.hand import (
    ALL_FINGERS,
    LEFT,
    RIGHT,
    FingerId,
    HandConfig,
    collision_flag,
    init_hands,
    step_hand,
)
from otpiano.keyboard import KeyboardGeometry, OutOfRangeError, key_press_point
from otpiano.midi import GoalSequence, GoalStep, NoteEvent
from otpiano.reward import DEFAULT_PARAMS, ot_reward

GEOM = KeyboardGeometry()
HANDS = HandConfig.default()


def _sequence(active_sets, dt=0.05, sustain=0):
    steps = tuple(GoalStep(active=frozenset(a), sustain=sustain) for a in active_sets)
    return GoalSequence(steps=steps, dt=dt)


def test_sustained_middle_c_converges():
    goals = _sequence([{39}] * 100)
    annotation = annotate_song(goals, HANDS, GEOM)
    assert len(annotation) == 100
    for step in annotation.steps:
        assert len(step.pairs) == 1
        assert step.pairs[0][0] == 39
    assert annotation.steps[-1].distance < 0.01
    assert annotation.steps[-1].ot == 1.0
    assert 39 in annotation.steps[-1].pressed


def test_empty_sequences():
    annotation = annotate_song(_sequence([]), HANDS, GEOM)
    assert len(annotation) == 0
    annotation = annotate_song(_sequence([set(), set()]), HANDS, GEOM)
    assert all(s.pairs == () for s in annotation.steps)
    assert all(s.distance == 0.0 and s.ot == 1.0 for s in annotation.steps)


def test_deterministic_end_to_end():
    goals = _sequence([{30 + (t % 5), 50 + (t % 7)} for t in range(60)])
    a = annotate_song(goals, HANDS, GEOM)
    b = annotate_song(goals, HANDS, GEOM)
    assert a.steps == b.steps
    assert a.fingertip_trace.tobytes() == b.fingertip_trace.tobytes()


def test_scale_steps_match_per_step_brute_force():
    # C major scale, one key per step; replay the rollout independently
    scale_keys = [39, 41, 43, 44, 46, 48, 50, 51]
    goals = _sequence([{k} for k in scale_keys])
    annotation = annotate_song(goals, HANDS, GEOM)
    state = init_hands(HANDS, GEOM)
    for t, key in enumerate(scale_keys):
        step = annotation.steps[t]
        assert len(step.pairs) == 1
        matrix = build_cost_matrix(state.fingertips, state.fingers, {key}, GEOM)
        oracle = brute_force_assignment(matrix)
        assert step.distance == pytest.approx(oracle.total_cost, abs=1e-9)
        targets = {finger: key_press_point(k, GEOM) for k, finger in step.pairs}
        state = step_hand(state, targets, goals.dt, HANDS, GEOM)
        assert np.array_equal(state.fingertip_slots(), annotation.fingertip_trace[t])


def test_strict_mode_rejects_oversized_chord():
    goals = _sequence([set(range(20, 31))])  # 11 simultaneous keys
    with pytest.raises(InfeasibleStepError) as err:
        annotate_song(goals, HANDS, GEOM)
    assert err.value.step == 0
    assert err.value.chord_size == 11


def test_best_effort_records_dropped_keys():
    goals = _sequence([set(range(20, 31))])
    annotation = annotate_song(goals, HANDS, GEOM, best_effort=True)
    step = annotation.steps[0]
    assert len(step.pairs) == 10
    assert len(step.dropped_keys) == 1
    assert annotation.dropped_step_count == 1
    labeled = {k for k, _ in step.pairs} | set(step.dropped_keys)
    assert labeled == set(range(20, 31))


def test_off_keyboard_goal_key_rejected():
    # goal text can carry any integer key; none may index past the keyboard
    for key in (-1, 88):
        with pytest.raises(OutOfRangeError):
            annotate_song(_sequence([{39}, {40, key}]), HANDS, GEOM)


def test_disabled_finger_never_assigned():
    goals = _sequence([{30 + t, 55 + t} for t in range(20)])
    annotation = annotate_song(goals, HandConfig.four_finger(), GEOM)
    for step in annotation.steps:
        assert all(finger.digit != 5 for _, finger in step.pairs)


def _reference_rollout(goals, hands, best_effort):
    """annotate_song spelled out with the public per-step functions."""
    state = init_hands(hands, GEOM)
    steps = []
    trace = np.zeros((len(goals.steps), 10, 3))
    for t, goal in enumerate(goals.steps):
        pairs, distance, dropped = (), 0.0, ()
        if goal.active:
            matrix = build_cost_matrix(state.fingertips, state.fingers, goal.active, GEOM)
            solution = solve_assignment(matrix, best_effort=best_effort)
            pairs = tuple((matrix.key_ids[r], matrix.finger_ids[c]) for r, c in solution.pairs)
            distance = solution.total_cost
            dropped = tuple(matrix.key_ids[r] for r in solution.dropped_rows)
        targets = {finger: key_press_point(key, GEOM) for key, finger in pairs}
        state = step_hand(state, targets, goals.dt, hands, GEOM)
        pressed = frozenset(
            key
            for key, finger in pairs
            if np.linalg.norm(state.fingertip(finger) - np.asarray(targets[finger])) < DEFAULT_PARAMS.threshold
        )
        steps.append(
            StepAnnotation(
                pairs=pairs,
                distance=distance,
                ot=ot_reward(distance, DEFAULT_PARAMS),
                pressed=pressed,
                dropped_keys=dropped,
                collision=collision_flag(state, hands),
            )
        )
        for finger, point in zip(state.fingers, state.fingertips):
            trace[t, ALL_FINGERS.index(finger)] = point
    return tuple(steps), trace


def _held_chords(rng, n_steps, max_keys):
    """Two-hand chords held for 1-6 steps, with silent gaps, crossings and clusters."""
    active_sets = []
    while len(active_sets) < n_steps:
        size = int(rng.integers(0, max_keys + 1))
        centers = rng.integers(15, 73, size=2)
        keys = set()
        for k in range(size):
            keys.add(int(np.clip(centers[k % 2] + rng.integers(-6, 7), 0, 87)))
        active_sets.extend([keys] * int(rng.integers(1, 7)))
    return _sequence(active_sets[:n_steps])


@pytest.mark.parametrize(
    "hands, best_effort, max_keys",
    [
        (HANDS, False, 10),
        (HandConfig.four_finger(), True, 14),
        (HandConfig.default().disable_digit(3), False, 8),
    ],
    ids=["ten-strict", "four-best-effort", "no-middle-strict"],
)
def test_rollout_matches_reference_loop(hands, best_effort, max_keys):
    goals = _held_chords(np.random.default_rng(max_keys), 400, max_keys)
    if best_effort:
        assert any(len(g.active) > len(hands.enabled_fingers) for g in goals.steps)
    annotation = annotate_song(goals, hands, GEOM, best_effort=best_effort)
    steps, trace = _reference_rollout(goals, hands, best_effort)
    assert annotation.steps == steps
    assert annotation.fingertip_trace.tobytes() == trace.tobytes()


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------


def test_chunking_1200_steps():
    goals = _sequence([{39}] * 1200)
    annotation = annotate_song(goals, HANDS, GEOM)
    episodes = chunk_episodes(goals, annotation, 550)
    assert len(episodes) == 3
    assert all(e.length == 550 for e in episodes)
    assert [e.n_real for e in episodes] == [550, 550, 100]
    assert episodes[2].n_padded == 450
    for step in episodes[2].goal_steps[100:]:
        assert step.active == frozenset()
    assert [e.start_step for e in episodes] == [0, 550, 1100]


def test_chunking_exact_length_no_padding():
    goals = _sequence([{39}] * 550)
    annotation = annotate_song(goals, HANDS, GEOM)
    episodes = chunk_episodes(goals, annotation, 550)
    assert len(episodes) == 1
    assert episodes[0].n_padded == 0
    assert 550 * goals.dt == pytest.approx(27.5)


def test_chunk_concatenation_reproduces_annotation():
    goals = _sequence([{30 + (t % 10)} for t in range(700)])
    annotation = annotate_song(goals, HANDS, GEOM)
    episodes = chunk_episodes(goals, annotation, 128)
    rebuilt = []
    for episode in episodes:
        rebuilt.extend(episode.annotation_steps[: episode.n_real])
    assert tuple(rebuilt) == annotation.steps


def test_chunking_validation():
    goals = _sequence([{39}] * 3)
    annotation = annotate_song(goals, HANDS, GEOM)
    with pytest.raises(ValueError):
        chunk_episodes(goals, annotation, 0)
    with pytest.raises(ValueError):
        chunk_episodes(_sequence([{39}] * 4), annotation, 550)
    assert chunk_episodes(_sequence([]), annotate_song(_sequence([]), HANDS, GEOM), 550) == []


# ---------------------------------------------------------------------------
# PIG export
# ---------------------------------------------------------------------------


def _manual_annotation(pairs_per_step, dt=0.05):
    steps = tuple(StepAnnotation(pairs=tuple(p)) for p in pairs_per_step)
    return FingeringAnnotation(steps=steps, dt=dt, embodiment="ten-finger")


def test_pig_export_hand_conventions():
    notes = [
        NoteEvent(pitch=60, onset=0.0, offset=0.1, velocity=80, channel=0),
        NoteEvent(pitch=40, onset=0.0, offset=0.1, velocity=70, channel=1),
    ]
    annotation = _manual_annotation(
        [[(39, FingerId(RIGHT, 1)), (19, FingerId(LEFT, 5))], [(39, FingerId(RIGHT, 1)), (19, FingerId(LEFT, 5))]]
    )
    records = annotation_to_pig(annotation, notes, stretch=1.0, trim_silence=False)
    by_pitch = {r.pitch: r for r in records}
    assert by_pitch[60].finger == "1" and by_pitch[60].channel == 0
    assert by_pitch[40].finger == "-5" and by_pitch[40].channel == 1
    assert by_pitch[60].onset == 0.0 and by_pitch[60].offset == 0.1


def test_pig_export_uses_first_active_step():
    # finger changes mid-note; the onset label wins
    annotation = _manual_annotation([[(39, FingerId(RIGHT, 2))], [(39, FingerId(RIGHT, 3))]])
    notes = [NoteEvent(pitch=60, onset=0.0, offset=0.1, velocity=80, channel=0)]
    (record,) = annotation_to_pig(annotation, notes, stretch=1.0, trim_silence=False)
    assert record.finger == "2"


def test_pig_export_respects_stretch_and_trim():
    goals = _sequence([{39}] * 30)
    annotation = annotate_song(goals, HANDS, GEOM)
    notes = [NoteEvent(pitch=60, onset=2.0, offset=2.0 + 30 * 0.05 / 1.25, velocity=80, channel=0)]
    (record,) = annotation_to_pig(annotation, notes, stretch=1.25, trim_silence=True)
    assert record.onset == 2.0  # original, unstretched time


def test_pig_export_empty():
    assert annotation_to_pig(_manual_annotation([]), [], stretch=1.0, trim_silence=False) == []


def test_pig_export_shift_matches_discretize_with_junk_notes():
    # an early unplayable note must not desynchronize the step mapping
    from otpiano.midi import discretize

    notes = [NoteEvent(pitch=10, onset=0.0, offset=0.1, velocity=50, channel=0),
             NoteEvent(pitch=60, onset=2.0, offset=2.5, velocity=80, channel=0)]
    with pytest.warns(UserWarning):
        goals = discretize(notes, dt=0.05, stretch=1.0, trim_silence=True)
    annotation = annotate_song(goals, HANDS, GEOM)
    records = annotation_to_pig(annotation, notes, stretch=1.0, trim_silence=True, on_unlabeled="skip")
    (record,) = records  # the junk note is skipped, the C4 resolves at step 0
    assert record.pitch == 60
    assert record.onset == 2.0


def test_pig_export_unlabeled_note():
    annotation = _manual_annotation([[]])
    notes = [NoteEvent(pitch=60, onset=0.0, offset=0.04, velocity=80, channel=0)]
    with pytest.raises(UnlabeledNoteError):
        annotation_to_pig(annotation, notes, stretch=1.0, trim_silence=False)
    assert annotation_to_pig(annotation, notes, stretch=1.0, trim_silence=False, on_unlabeled="skip") == []


# ---------------------------------------------------------------------------
# scoring and text format
# ---------------------------------------------------------------------------


def test_score_annotation_perfect_steps():
    goals = _sequence([{39}] * 80)
    annotation = annotate_song(goals, HANDS, GEOM)
    rows = score_annotation(goals, annotation, DEFAULT_PARAMS)
    assert len(rows) == 80
    # once converged: ot 1, press 1, sustain 1, collision bonus 0.5, no energy
    assert rows[-1].total == pytest.approx(3.5)
    assert rows[-1].energy == 0.0


def test_annotation_text_round_trip():
    goals = _sequence([{30 + t % 4, 60 - t % 3} for t in range(25)])
    annotation = annotate_song(goals, HANDS, GEOM)
    text = write_annotation_text(annotation)
    rows = parse_annotation_text(text)
    assert len(rows) == len(annotation.steps)
    for (distance, pairs, dropped), step in zip(rows, annotation.steps):
        assert distance == step.distance  # repr round trip is exact
        assert pairs == tuple(sorted(step.pairs))
        assert dropped == ()
    assert "# embodiment = ten-finger" in text
    assert "hand.span_max" in text


def test_annotation_text_round_trip_with_silent_steps():
    goals = _sequence([{39}, set(), set(), {41}])
    annotation = annotate_song(goals, HANDS, GEOM)
    rows = parse_annotation_text(write_annotation_text(annotation))
    assert len(rows) == 4
    assert rows[1] == (0.0, (), ())


def test_annotation_text_best_effort_markers():
    goals = _sequence([set(range(40, 51))])
    annotation = annotate_song(goals, HANDS, GEOM, best_effort=True)
    rows = parse_annotation_text(write_annotation_text(annotation))
    assert rows[0][2] == annotation.steps[0].dropped_keys


def test_fingertip_trace_shape():
    goals = _sequence([{39}] * 7)
    annotation = annotate_song(goals, HANDS, GEOM)
    assert annotation.fingertip_trace.shape == (7, 10, 3)
    assert not annotation.fingertip_trace.flags.writeable
