from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_reference as reference
import otpiano.annotate as annotate_module
from conftest import key_rows
from reward_reference import collision_reward, press_reward, sustain_reward
from otpiano.annotate import (
    DROPPED,
    NO_FINGER,
    FingeringAnnotation,
    InfeasibleStepError,
    annotate_song,
    annotation_to_pig,
    build_episode_record,
    chunk_episodes,
    parse_annotation_text,
    score_annotation,
    write_annotation_text,
)
from otpiano.assign import brute_force_assignment, build_cost_matrix
from otpiano.hand import (
    ALL_FINGERS,
    LEFT,
    RIGHT,
    FingerId,
    HandConfig,
    HandMotion,
    bases_collide,
    init_hands,
    step_hand,
)
from otpiano.keyboard import KeyboardGeometry, KeyState, OutOfRangeError, key_press_point, press_point_table
from otpiano.metrics import f1
from otpiano.midi import GoalSequence, NoteEvent, goal_from_text
from otpiano.reward import DEFAULT_PARAMS, RewardParams, ot_reward, total_reward

GEOM = KeyboardGeometry()
HANDS = HandConfig.default()


def _sequence(active_sets, dt=0.05, sustain=0):
    sustain = np.broadcast_to(sustain, len(active_sets))
    return GoalSequence(key_rows(active_sets), sustain=sustain, dt=dt)


def _active(goals, t):
    return set(np.flatnonzero(goals.keys[t]).tolist())


def _dropped(annotation, t):
    return tuple(np.flatnonzero(annotation.finger[t] == DROPPED).tolist())


def _steps(annotation):
    """Per step: (key, FingerId) pairs, distance, dropped keys, collision flag."""
    return [
        (annotation.pairs(t), annotation.distance[t], _dropped(annotation, t), annotation.collision[t])
        for t in range(len(annotation))
    ]


def test_sustained_middle_c_converges():
    goals = _sequence([{39}] * 100)
    annotation = annotate_song(goals, HANDS, GEOM)
    assert len(annotation) == 100
    for t in range(100):
        assert len(annotation.pairs(t)) == 1
        assert annotation.pairs(t)[0][0] == 39
    assert annotation.distance[-1] < 0.01
    assert score_annotation(goals, annotation).ot[-1] == 1.0
    assert annotation.pressed[-1, 39]


def test_empty_sequences():
    annotation = annotate_song(_sequence([]), HANDS, GEOM)
    assert len(annotation) == 0
    silent = _sequence([set(), set()])
    annotation = annotate_song(silent, HANDS, GEOM)
    assert (annotation.finger == NO_FINGER).all()
    assert annotation.distance.tolist() == [0.0, 0.0]
    assert score_annotation(silent, annotation).ot.tolist() == [1.0, 1.0]


def test_deterministic_end_to_end():
    goals = _sequence([{30 + (t % 5), 50 + (t % 7)} for t in range(60)])
    a = annotate_song(goals, HANDS, GEOM)
    b = annotate_song(goals, HANDS, GEOM)
    assert _steps(a) == _steps(b)
    assert np.array_equal(a.finger, b.finger)
    assert np.array_equal(a.pressed, b.pressed)
    assert a.fingertip_trace.tobytes() == b.fingertip_trace.tobytes()


def test_scale_steps_match_per_step_brute_force():
    # C major scale, one key per step; replay the rollout independently
    scale_keys = [39, 41, 43, 44, 46, 48, 50, 51]
    goals = _sequence([{k} for k in scale_keys])
    annotation = annotate_song(goals, HANDS, GEOM)
    state = init_hands(HANDS, GEOM)
    for t, key in enumerate(scale_keys):
        pairs = annotation.pairs(t)
        assert len(pairs) == 1
        matrix = build_cost_matrix(state.fingertips, state.fingers, {key}, GEOM)
        oracle = brute_force_assignment(matrix)
        assert annotation.distance[t] == pytest.approx(oracle.total_cost, abs=1e-9)
        targets = {finger: key_press_point(k, GEOM) for k, finger in pairs}
        state = step_hand(state, targets, goals.dt, HANDS, GEOM)
        assert np.array_equal(reference.fingertip_slots(state), annotation.fingertip_trace[t])


def test_strict_mode_rejects_oversized_chord():
    goals = _sequence([set(range(20, 31))])  # 11 simultaneous keys
    with pytest.raises(InfeasibleStepError) as err:
        annotate_song(goals, HANDS, GEOM)
    assert err.value.step == 0
    assert err.value.chord_size == 11


def test_best_effort_records_dropped_keys():
    goals = _sequence([set(range(20, 31))])
    annotation = annotate_song(goals, HANDS, GEOM, best_effort=True)
    pairs, dropped = annotation.pairs(0), _dropped(annotation, 0)
    assert len(pairs) == 10
    assert len(dropped) == 1
    assert annotation.dropped_step_count == 1
    labeled = {k for k, _ in pairs} | set(dropped)
    assert labeled == set(range(20, 31))


def test_off_keyboard_goal_key_rejected():
    # goal text can carry any integer key; none may reach the annotator
    for key in (-1, 88):
        with pytest.raises(OutOfRangeError):
            goal_from_text(f"0\t0\t39\n1\t0\t40,{key}\n")


def test_disabled_finger_never_assigned():
    goals = _sequence([{30 + t, 55 + t} for t in range(20)])
    annotation = annotate_song(goals, HandConfig.four_finger(), GEOM)
    for t in range(len(goals)):
        assert all(finger.digit != 5 for _, finger in annotation.pairs(t))


def _reference_rollout(goals, hands, best_effort):
    """annotate_song spelled out per step on the numpy cost build and hand step."""
    state = init_hands(hands, GEOM)
    steps = []
    trace = np.zeros((len(goals), 10, 3))
    pressed = np.zeros((len(goals), 88), dtype=bool)
    for t in range(len(goals)):
        pairs, distance, dropped = (), 0.0, ()
        if _active(goals, t):
            matrix, solution = reference.solve_step(state, _active(goals, t), GEOM, best_effort)
            pairs = tuple((matrix.key_ids[r], matrix.finger_ids[c]) for r, c in solution.pairs)
            distance = solution.total_cost
            dropped = tuple(matrix.key_ids[r] for r in solution.dropped_rows)
        targets = {finger: key_press_point(key, GEOM) for key, finger in pairs}
        state = reference.step_hand(state, targets, goals.dt, hands, GEOM)
        for key, finger in pairs:
            reach = np.linalg.norm(state.fingertip(finger) - np.asarray(targets[finger]))
            pressed[t, key] = reach < DEFAULT_PARAMS.threshold
        steps.append((pairs, distance, dropped, bases_collide(state.base, hands.min_base_gap)))
        trace[t] = reference.fingertip_slots(state)
    return steps, trace, pressed


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
        (HandConfig(name="no-middle", disabled=(3,)), False, 8),
    ],
    ids=["ten-strict", "four-best-effort", "no-middle-strict"],
)
def test_rollout_matches_reference_loop(hands, best_effort, max_keys):
    goals = _held_chords(np.random.default_rng(max_keys), 400, max_keys)
    if best_effort:
        assert (goals.keys.sum(axis=1) > len(hands.enabled_fingers)).any()
    annotation = annotate_song(goals, hands, GEOM, best_effort=best_effort)
    steps, trace, pressed = _reference_rollout(goals, hands, best_effort)
    # both values of each derived array occur, so the comparison below covers both
    collided = np.array([collision for *_, collision in steps])
    assigned = annotation.finger >= 0
    assert collided.any() and not collided.all()
    assert (assigned & pressed).any() and (assigned & ~pressed).any()
    assert _steps(annotation) == steps
    assert annotation.fingertip_trace.tobytes() == trace.tobytes()
    assert np.array_equal(annotation.pressed, pressed)


@pytest.mark.parametrize(
    "active_sets",
    [
        [{87}] * 8,  # one far key, held while the speed cap closes in on it
        [{3, 50, 54}] * 10,  # a right-hand chord held while the left base travels to key 3
    ],
    ids=["far-key", "chord-while-base-travels"],
)
def test_repeated_keys_with_moving_hands_are_stepped(active_sets):
    # equal key rows alone are no fixed point: the hands still move, so
    # every step must be computed, not copied from the step before
    goals = _sequence(active_sets)
    annotation = annotate_song(goals, HANDS, GEOM)
    trace = annotation.fingertip_trace
    assert all(trace[t].tobytes() != trace[t + 1].tobytes() for t in range(4))
    steps, reference_trace, pressed = _reference_rollout(goals, HANDS, False)
    assert _steps(annotation) == steps
    assert trace.tobytes() == reference_trace.tobytes()
    assert np.array_equal(annotation.pressed, pressed)


@pytest.mark.parametrize("chord", [{3}, {10, 14}], ids=["far-key", "far-chord"])
def test_held_chord_is_solved_only_until_its_fingers_land(monkeypatch, chord):
    calls = []
    solve = annotate_module.solve_cost_rows
    monkeypatch.setattr(annotate_module, "solve_cost_rows", lambda *args: calls.append(args) or solve(*args))
    goals = _sequence([chord] * 30)
    annotation = annotate_song(goals, HANDS, GEOM)
    trace, press = annotation.fingertip_trace, press_point_table(GEOM)
    keys = sorted(chord)
    on_keys = [bool((trace[t, annotation.finger[t, keys]] == press[keys]).all()) for t in range(len(goals))]
    landed = on_keys.index(True)
    assert all(on_keys[landed:]) and 0 < landed < 10
    # the free fingers still follow the travelling base, so the step after landing is no fixed point
    assert trace[landed].tobytes() != trace[landed + 1].tobytes()
    assert len(calls) == landed + 1
    assert annotation.distance[landed + 1 :].tolist() == [0.0] * (len(goals) - landed - 1)


# chords of two clusters, one a hand, held long enough for the fingers to land
_CLUSTER = st.builds(
    lambda center, offsets: {min(87, max(0, center + o)) for o in offsets},
    st.integers(0, 87),
    st.lists(st.integers(-6, 6), max_size=6),
)
_HELD_GRID = st.lists(st.tuples(st.builds(set.union, _CLUSTER, _CLUSTER), st.integers(1, 8)), min_size=1, max_size=10)


@pytest.mark.parametrize(
    "hands, best_effort", [(HANDS, False), (HandConfig.four_finger(), True)], ids=["ten-strict", "four-best-effort"]
)
@settings(max_examples=40, deadline=None)
@given(grid=_HELD_GRID)
def test_resting_pairs_leave_every_output_unchanged(hands, best_effort, grid):
    active_sets = [keys for keys, hold in grid for _ in range(hold)]
    if not best_effort:
        active_sets = [set(sorted(keys)[: len(hands.enabled_fingers)]) for keys in active_sets]
    goals = _sequence(active_sets)
    certified = annotate_song(goals, hands, GEOM, best_effort=best_effort)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annotate_module, "resting_pairs", lambda points, tips, gap: None)
        solved = annotate_song(goals, hands, GEOM, best_effort=best_effort)
    for name in ("finger", "distance", "collision", "fingertip_trace", "pressed"):
        assert getattr(certified, name).tobytes() == getattr(solved, name).tobytes(), name
    # the gap rests on this bound: no fingertip of the rollout is farther from any press point
    state = init_hands(hands, GEOM)
    press = press_point_table(GEOM)
    bound = HandMotion(hands, GEOM, goals.dt).distance_bound(press.tolist(), state.base)
    slots = [ALL_FINGERS.index(f) for f in hands.enabled_fingers]
    tips = certified.fingertip_trace[:, slots].reshape(-1, 1, 3)
    assert (np.sqrt(np.sum((tips - press) ** 2, axis=-1)) <= bound).all()


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
    assert not episodes[2].take(goals.keys)[100:].any()
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
    assert [e.start_step for e in episodes] == [128 * e.index for e in episodes]
    for song_rows in (goals.keys, annotation.pressed, annotation.fingertip_trace):
        rebuilt = np.concatenate([episode.take(song_rows)[: episode.n_real] for episode in episodes])
        assert np.array_equal(rebuilt, song_rows)


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
    T = len(pairs_per_step)
    finger = np.full((T, 88), NO_FINGER, dtype=np.int8)
    for t, pairs in enumerate(pairs_per_step):
        for key, digit in pairs:
            finger[t, key] = ALL_FINGERS.index(digit)
    return FingeringAnnotation(
        finger=finger, distance=np.zeros(T), collision=np.zeros(T, dtype=bool), dt=dt, embodiment="ten-finger"
    )


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
    goals = discretize(notes, dt=0.05, stretch=1.0, trim_silence=True)
    annotation = annotate_song(goals, HANDS, GEOM)
    records = annotation_to_pig(annotation, notes, stretch=1.0, trim_silence=True)
    (record,) = records  # the junk note is skipped, the C4 resolves at step 0
    assert record.pitch == 60
    assert record.onset == 2.0


def test_pig_export_unlabeled_note():
    # a note whose key has no finger at its first step is skipped, not an error
    annotation = _manual_annotation([[]])
    notes = [NoteEvent(pitch=60, onset=0.0, offset=0.04, velocity=80, channel=0)]
    assert annotation_to_pig(annotation, notes, stretch=1.0, trim_silence=False) == []


# ---------------------------------------------------------------------------
# scoring and text format
# ---------------------------------------------------------------------------


def test_score_annotation_perfect_steps():
    goals = _sequence([{39}] * 80)
    annotation = annotate_song(goals, HANDS, GEOM)
    rows = score_annotation(goals, annotation, DEFAULT_PARAMS)
    assert len(rows.total) == 80
    # once converged: ot 1, press 1, sustain 1, collision bonus 0.5, no energy
    assert rows.total[-1] == pytest.approx(3.5)
    assert rows.energy[-1] == 0.0


# awkward shaping values, so that any reordering of the press sum would show
_ODD_PARAMS = RewardParams(tolerance_bounds=(0.0, 0.0), tolerance_margin=0.7, value_at_margin=0.3)


def _reference_scores(goals, annotation, params):
    """The per-step scorer that score_annotation replaced: one KeyState and total_reward per step."""
    rows = []
    for t in range(len(annotation)):
        active = _active(goals, t)
        pressed = set(np.flatnonzero(annotation.pressed[t]).tolist())
        sustain = float(goals.sustain[t])
        depths = [0.0] * 88
        for key in pressed:
            depths[key] = 1.0
        key_state = KeyState(depths=tuple(depths), sustain=sustain)
        breakdown = total_reward(
            ot=ot_reward(float(annotation.distance[t]), params),
            press=press_reward(key_state, active, bool(pressed - active), params),
            sustain=sustain_reward(sustain, sustain, params),
            collision=collision_reward(bool(annotation.collision[t])),
            energy=0.0,
            params=params,
        )
        rows.append(list(breakdown.as_row()))
    return rows


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, _ODD_PARAMS], ids=["default", "odd"])
def test_score_annotation_matches_per_step_reference(params):
    # random goals and presses, false presses included, on up to 14-key steps
    rng = np.random.default_rng(31)
    active = rng.random((300, 88)) < rng.uniform(0.0, 0.16, size=(300, 1))
    pressed = (active & (rng.random((300, 88)) < 0.7)) | (rng.random((300, 88)) < 0.01)
    goals = GoalSequence(active, sustain=rng.integers(0, 2, size=300), dt=0.05)
    annotation = FingeringAnnotation(
        finger=np.full((300, 88), NO_FINGER, dtype=np.int8),
        distance=rng.uniform(0.0, 0.3, size=300),
        collision=rng.random(300) < 0.1,
        dt=0.05,
        embodiment="ten-finger",
        pressed=pressed,
    )
    scores = score_annotation(goals, annotation, params)
    assert np.column_stack(scores.as_row()).tolist() == _reference_scores(goals, annotation, params)


def _reference_episode_record(episode, goals, annotation, params, lookahead):
    """The per-step build_episode_record that the sliced one replaced.

    Goal vectors, key depths and the block concatenation are spelled out
    per step; rewards come from re-scoring the padded episode step by step.
    """
    L = lookahead + 1
    T = episode.length
    start, stop = episode.start_step, episode.start_step + episode.n_real
    obs = np.zeros((T, L * 89 + 165), dtype=np.float32)
    for t in range(T):
        g = start + t
        goal = np.zeros((L, 89))
        for l in range(L):
            if g + l < len(goals):
                goal[l, sorted(_active(goals, g + l))] = 1.0
                goal[l, 88] = float(goals.sustain[g + l])
        depths, sustain, tips = np.zeros(88), 0.0, np.zeros((10, 3))
        if g < len(goals):
            depths[annotation.pressed[g]] = 1.0
            sustain = float(goals.sustain[g])
            tips = annotation.fingertip_trace[g]
        obs[t] = np.concatenate([goal[:, :88].ravel(), goal[:, 88], depths, [sustain], tips.ravel(), np.zeros(46)])
    pad = episode.n_padded
    ep_goals = GoalSequence(
        np.vstack([goals.keys[start:stop], np.zeros((pad, 88), dtype=bool)]),
        sustain=np.concatenate([goals.sustain[start:stop], np.zeros(pad, dtype=int)]),
        dt=goals.dt,
    )
    ep_pressed = np.vstack([annotation.pressed[start:stop], np.zeros((pad, 88), dtype=bool)])
    ep_annotation = FingeringAnnotation(
        finger=np.vstack([annotation.finger[start:stop], np.full((pad, 88), NO_FINGER, dtype=np.int8)]),
        distance=np.concatenate([annotation.distance[start:stop], np.zeros(pad)]),
        collision=np.concatenate([annotation.collision[start:stop], np.zeros(pad, dtype=bool)]),
        dt=goals.dt,
        embodiment=annotation.embodiment,
        pressed=ep_pressed,
    )
    rewards = np.array([row[-1] for row in _reference_scores(ep_goals, ep_annotation, params)], dtype=np.float32)
    hits = pressed = active = 0
    for t in range(T):
        p, a = set(np.flatnonzero(ep_pressed[t]).tolist()), _active(ep_goals, t)
        hits, pressed, active = hits + len(p & a), pressed + len(p), active + len(a)
    precision = hits / pressed if pressed else 1.0
    recall = hits / active if active else 1.0
    return obs, rewards, f1(precision, recall)


@pytest.mark.parametrize("lookahead", [0, 10, 15])
def test_episode_records_match_per_step_reference(lookahead):
    # 150 steps in 64-step episodes: windows cross both episode boundaries and the song end
    held = _held_chords(np.random.default_rng(5), 150, 10)
    goals = GoalSequence(held.keys, sustain=(np.arange(150) // 7) % 2, dt=0.05)
    annotation = annotate_song(goals, HANDS, GEOM, _ODD_PARAMS)
    scores = score_annotation(goals, annotation, _ODD_PARAMS)
    episodes = chunk_episodes(goals, annotation, 64)
    assert [e.n_real for e in episodes] == [64, 64, 22]
    for episode in episodes:
        record = build_episode_record(
            episode, goals, annotation, scores.total, _ODD_PARAMS, "s", annotation.snapshot, lookahead
        )
        obs, rewards, score = _reference_episode_record(episode, goals, annotation, _ODD_PARAMS, lookahead)
        assert record.observations.tobytes() == obs.tobytes()
        assert record.rewards.tobytes() == rewards.tobytes()
        assert record.meta["f1"] == score


def test_annotation_text_round_trip():
    goals = _sequence([{30 + t % 4, 60 - t % 3} for t in range(25)])
    annotation = annotate_song(goals, HANDS, GEOM)
    text = write_annotation_text(annotation, annotation.snapshot)
    distance, finger = parse_annotation_text(text)
    assert distance.tolist() == annotation.distance.tolist()  # repr round trip is exact
    assert np.array_equal(finger, annotation.finger)
    assert not (finger == DROPPED).any()
    assert "# embodiment = ten-finger" in text
    assert "hand.span_max" in text


def test_annotation_text_round_trip_with_silent_steps():
    goals = _sequence([{39}, set(), set(), {41}])
    annotation = annotate_song(goals, HANDS, GEOM)
    distance, finger = parse_annotation_text(write_annotation_text(annotation, annotation.snapshot))
    assert finger.shape == (4, 88)
    assert distance[1] == 0.0 and (finger[1] == NO_FINGER).all()


def test_annotation_text_best_effort_markers():
    goals = _sequence([set(range(40, 51))])
    annotation = annotate_song(goals, HANDS, GEOM, best_effort=True)
    text = write_annotation_text(annotation, annotation.snapshot)
    _distance, finger = parse_annotation_text(text)
    assert np.array_equal(finger, annotation.finger)
    assert len(_dropped(annotation, 0)) == 1
    # fingered keys first, then the dropped one, each in key order
    cells = [f"{key}:{digit.label()}" for key, digit in annotation.pairs(0)]
    cells += [f"{key}:-" for key in _dropped(annotation, 0)]
    assert text.splitlines()[-1] == f"0\t{float(annotation.distance[0])!r}\t{';'.join(cells)}"


@pytest.mark.parametrize(
    "distance,cell",
    [pytest.param("0.0", cell, id=cell) for cell in ["88:R1", "-1:R1", "39:R9", "39:X2", "39:", "39:R1:", "39:R1;39:L2"]]
    + [pytest.param(distance, "39:R1", id=f"distance={distance}") for distance in ["-1.5", "nan", "inf", "-inf"]],
)
def test_parse_annotation_text_rejects_bad_cells(distance, cell):
    with pytest.raises(ValueError):
        parse_annotation_text(f"0\t{distance}\t{cell}\n")


@pytest.mark.parametrize("min_base_gap, collided", [(1.0, True), (0.0, False)])
def test_collision_follows_min_base_gap(min_base_gap, collided):
    # the bases start, and move only toward press points, between keys 20 and 70
    # (x = 0.28 to 0.94 m), so they stay under 1 m apart; no gap is below 0
    goals = _sequence([{30, 50}, set(), {39, 41}, {20, 60, 70}] * 3)
    annotation = annotate_song(goals, HandConfig(min_base_gap=min_base_gap), GEOM)
    assert annotation.collision.tolist() == [collided] * len(goals)


def test_far_key_is_pressed_once_its_fingertip_arrives():
    goals = _sequence([{87}] * 8)
    annotation = annotate_song(goals, HANDS, GEOM)
    assert (annotation.finger[:, 87] >= 0).all()
    reached = annotation.pressed[:, 87].tolist()
    assert not reached[0] and reached[-1]
    assert reached == sorted(reached)  # unreached until the speed cap lets it arrive, then held
    slot = annotation.finger[-1, 87]
    assert np.linalg.norm(annotation.fingertip_trace[-1, slot] - key_press_point(87, GEOM)) < DEFAULT_PARAMS.threshold


def test_fingertip_trace_shape():
    goals = _sequence([{39}] * 7)
    annotation = annotate_song(goals, HANDS, GEOM)
    assert annotation.fingertip_trace.shape == (7, 10, 3)
    assert not annotation.fingertip_trace.flags.writeable


# near-valid annotation lines: step, distance and key:finger cells with odd fields
_ANNOTATION_CELL = st.tuples(
    st.sampled_from(["39", "x", "", "-1"]), st.sampled_from([":R1", ":L5", ":-", ":R9", ":X2", ":", "", ":R1:"])
).map("".join)
_ANNOTATION_LINE = st.lists(
    st.sampled_from(["0", "1", "x", "0.25", "nan", ""]) | st.lists(_ANNOTATION_CELL, max_size=3).map(";".join),
    min_size=1,
    max_size=4,
).map("\t".join)


@given(st.lists(_ANNOTATION_LINE, max_size=6).map("\n".join) | st.text())
def test_parse_annotation_text_raises_only_value_errors(text):
    try:
        parse_annotation_text(text)
    except ValueError:
        pass
