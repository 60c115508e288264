from __future__ import annotations

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_reference as reference
from otpiano.config import parse_config
from otpiano.hand import (
    LEFT,
    RIGHT,
    FingerId,
    HandConfig,
    HandMotion,
    HandState,
    InvalidConfigError,
    bases_collide,
    init_hands,
    step_hand,
)
from otpiano.keyboard import KeyboardGeometry

GEOM = KeyboardGeometry()


def test_default_init_ten_fingertips_symmetric():
    state = init_hands(HandConfig.default(), GEOM)
    assert np.shape(state.fingertips) == (10, 3)
    center = GEOM.width / 2.0
    assert np.array(state.fingertips)[:, 0].mean() == pytest.approx(center)
    assert state.base[0] == pytest.approx(GEOM.width / 3.0)
    assert state.base[1] == pytest.approx(2.0 * GEOM.width / 3.0)


def test_four_finger_variant_has_eight_fingertips():
    state = init_hands(HandConfig.four_finger(), GEOM)
    assert np.shape(state.fingertips) == (8, 3)
    assert all(f.digit != 5 for f in state.fingers)


def test_span_constraint_holds_at_init():
    config = HandConfig.default()
    state = init_hands(config, GEOM)
    assert reference.hand_spread(state, LEFT) <= config.span_max
    assert reference.hand_spread(state, RIGHT) <= config.span_max


def test_exact_arrival_at_speed_limit():
    config = HandConfig.default()
    state = init_hands(config, GEOM)
    finger = FingerId(RIGHT, 2)
    # v_max * dt = 0.1: a target exactly 0.1 m away is reached this step
    target = state.fingertip(finger) + np.array([0.0, 0.1, 0.0])
    after = step_hand(state, {finger: target}, 0.05, config, GEOM)
    assert np.array_equal(after.fingertip(finger), target)


def test_speed_cap_limits_travel():
    config = HandConfig.default()
    state = init_hands(config, GEOM)
    finger = FingerId(LEFT, 3)
    target = state.fingertip(finger) + np.array([0.0, 5.0, 0.0])
    after = step_hand(state, {finger: target}, 0.05, config, GEOM)
    moved = np.linalg.norm(np.subtract(after.fingertip(finger), state.fingertip(finger)))
    assert moved == pytest.approx(config.v_max * 0.05)


def test_no_assignment_relaxes_to_rest():
    config = HandConfig.default()
    rest = init_hands(config, GEOM)
    # perturb one fingertip, then relax with no targets
    tips = (tuple(np.add(rest.fingertips[0], (0.03, 0.05, 0.02)).tolist()), *rest.fingertips[1:])
    state = HandState(fingers=rest.fingers, fingertips=tips, base=rest.base)
    for _ in range(5):
        state = step_hand(state, {}, 0.05, config, GEOM)
    assert np.allclose(np.array(state.fingertips), np.array(rest.fingertips), atol=1e-12)


def test_span_projection_bounds_spread():
    config = HandConfig.default()
    state = init_hands(config, GEOM)
    thumb, little = FingerId(RIGHT, 1), FingerId(RIGHT, 5)
    targets = {
        thumb: state.fingertip(thumb) + np.array([-0.25, 0.0, 0.0]),
        little: state.fingertip(little) + np.array([0.25, 0.0, 0.0]),
    }
    for _ in range(10):
        state = step_hand(state, targets, 0.05, config, GEOM)
    assert reference.hand_spread(state, RIGHT) <= config.span_max + 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the span projection runs after the speed cap")
def test_no_fingertip_moves_more_than_v_max_dt():
    # the right hand starts inside its span ball; R3 moves v_max*dt up and to the left toward its target,
    # while R1 and the free R2 and R4 move left faster in x, so the span projection pulls R3 further along,
    # 1.093 x v_max*dt in all (22 of 12009 legato four-finger steps of perfbench seed 0 overrun so)
    config = HandConfig.four_finger()
    rest = init_hands(config, GEOM)
    right = ((0.54, 0.0, 0.0), (0.61, 0.0, 0.0), (0.72, 0.0, 0.0), (0.64, 0.0, 0.0))
    state = HandState(config.enabled_fingers, rest.fingertips[:4] + right, (rest.base[0], 0.51))
    targets = {FingerId(RIGHT, 1): (0.1, 0.0, 0.0), FingerId(RIGHT, 3): (0.6, 0.09, 0.0)}
    moved = step_hand(state, targets, 0.05, config, GEOM)
    reach = config.v_max * 0.05
    assert max(map(math.dist, state.fingertips, moved.fingertips)) <= reach * (1 + 1e-12)


# coordinates include both zeros: the kernel must keep -0.0 apart from 0.0
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
_CONFIGS = [HandConfig.default(), HandConfig.four_finger(), HandConfig(span_max=0.05, base_v_max=3.0)]


def _motion(config, dt, tips, base):
    """A HandMotion of ``config`` at ``dt`` from fingertips ``tips`` and bases ``base``."""
    return HandMotion(config, GEOM, dt, HandState(config.enabled_fingers, tuple(tips), base))


def _step(motion, rows, targets):
    """``motion.step`` with ``targets[m]`` assigned to finger row ``rows[m]``, split by hand as annotate_song does."""
    split = motion.hand_bounds[1][0]
    hand_pairs = ([], [])
    for row, target in zip(rows, targets):
        hand_pairs[row >= split].append((row, target))
    return motion.step(hand_pairs)


def _assert_step_matches_reference(config, dt, tips, base, rows, targets):
    motion = _motion(config, dt, tips, base)
    _step(motion, rows, targets)
    got_tips, got_base = motion.tips, motion.base
    want_tips, want_base = reference.HandMotion(config, GEOM, dt).step(
        np.array(tips, dtype=np.float64), base, rows, np.array(targets, dtype=np.float64).reshape(len(rows), 3)
    )
    assert np.array(got_tips, dtype=np.float64).tobytes() == want_tips.tobytes()
    assert [x.hex() for x in got_base] == [x.hex() for x in want_base]
    return got_tips, got_base


@given(data=st.data())
def test_step_kernel_matches_numpy_reference(data):
    config = data.draw(st.sampled_from(_CONFIGS))
    dt = data.draw(st.sampled_from([0.01, 0.05, 0.2]))
    reach = config.v_max * dt
    n = len(config.enabled_fingers)
    if data.draw(st.booleans(), label="scattered tips"):
        tips = data.draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=n, max_size=n))
    else:  # near the rest pose, where the span limit mostly holds
        jitter = st.floats(-0.01, 0.01)
        tips = [
            tuple(c + data.draw(jitter) for c in tip) for tip in init_hands(config, GEOM).fingertips
        ]
    base = data.draw(st.tuples(_COORD, _COORD))
    rows = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    targets = []
    for row in rows:
        if data.draw(st.booleans(), label="in reach"):
            unit = st.floats(-0.5, 0.5)  # |offset| <= 0.87 * reach
            targets.append(tuple(c + data.draw(unit) * reach for c in tips[row]))
        else:
            targets.append(data.draw(st.tuples(_COORD, _COORD, _COORD)))
    _assert_step_matches_reference(config, dt, tips, base, rows, targets)


@given(pull=st.floats(0.06, 0.08), steps=st.integers(1, 8), lift=st.one_of(st.just(-0.0), st.floats(-0.05, 0.05)))
def test_step_kernel_matches_numpy_reference_under_span_clamp(pull, steps, lift):
    # thumb and little finger get targets in reach but more than span_max
    # apart, so they arrive and every step's span projection pulls them back
    config = HandConfig.default()
    state = init_hands(config, GEOM)
    rows = [config.enabled_fingers.index(FingerId(RIGHT, 1)), config.enabled_fingers.index(FingerId(RIGHT, 5))]
    tips = list(state.fingertips)
    targets = [(tips[rows[0]][0] - pull, lift, 0.0), (tips[rows[1]][0] + pull, -0.0, lift)]
    base = state.base
    for _ in range(steps):
        tips, base = _assert_step_matches_reference(config, 0.05, tips, base, rows, targets)
        assert tuple(tips[rows[0]]) != targets[0]  # held back by the clamp
    assert reference.hand_spread(HandState(config.enabled_fingers, tuple(tips), base), RIGHT) <= config.span_max + 1e-12


def _bits(motion) -> bytes:
    return struct.pack(f"<{3 * len(motion.tips) + 2}d", *itertools.chain.from_iterable(motion.tips), *motion.base)


def _flip_zeros(point):
    """The same point as floats, with 0.0 and -0.0 swapped: equal under ``==``, not bitwise."""
    return tuple(-c if c == 0.0 else c for c in point)


def _target_near(data, tip, reach):
    """A target off a fingertip by none, part of or three times v_max*dt, or 7 cm, which clamps a thumb and
    little finger pulled apart; y and z may be zeros of either sign."""
    dx = data.draw(st.sampled_from([0.0, 0.3 * reach, -0.5 * reach, 3.0 * reach, -0.07, 0.07]))
    y, z = data.draw(st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (tip[1], tip[2]), (tip[1] + 0.01, tip[2])]))
    return (tip[0] + dx, y, z)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_step_sequence_matches_fresh_motions(data):
    # one HandMotion over a sequence of calls must give the bits of one that forgets before every call which
    # hands it left settled, and so steps both as a fresh HandMotion would: held targets let hands settle and
    # be skipped, targets beyond v_max*dt hit the speed cap, targets wider than the span get clamped, a hand
    # may have no target, bases may still be moving, and a target equal only as floats must step
    config = data.draw(st.sampled_from(_CONFIGS))
    dt = 0.05
    reach = config.v_max * dt
    fingers = config.enabled_fingers
    motion, stepping = (HandMotion(config, GEOM, dt, init_hands(config, GEOM)) for _ in range(2))
    rows, targets = [], []
    for call in range(data.draw(st.integers(1, 24))):
        change = data.draw(st.sampled_from(["hold", "hold", "hold", "new", "zero signs"]), label="targets")
        if change == "new" or call == 0:
            hands = data.draw(st.sampled_from([(LEFT, RIGHT), (LEFT,), (RIGHT,), ()]), label="hands with targets")
            candidates = [row for row, finger in enumerate(fingers) if finger.hand in hands]
            rows = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4)) if candidates else []
            targets = [_target_near(data, motion.tips[row], reach) for row in rows]
        elif change == "zero signs":
            targets = [_flip_zeros(target) for target in targets]
        stepping._settled = [None, None]
        assert _step(stepping, rows, targets)
        _step(motion, rows, targets)
        assert _bits(motion) == _bits(stepping), call


def _held(config, targets_of, calls):
    """``calls`` steps of one HandMotion from rest, row -> target from ``targets_of(tips)``; the motion."""
    motion = HandMotion(config, GEOM, 0.05, init_hands(config, GEOM))
    for _ in range(calls):
        chosen = targets_of(motion.tips)
        _step(motion, list(chosen), list(chosen.values()))
    return motion


def _step_both_ways(motion, chosen):
    """One step of ``motion`` and of a fresh HandMotion from its state; asserts the same bits, returns ``motion``'s."""
    rows, targets = list(chosen), list(chosen.values())
    fresh = _motion(_TEN, 0.05, motion.tips, motion.base)
    _step(fresh, rows, targets)
    stepped = _step(motion, rows, targets)
    assert _bits(motion) == _bits(fresh)
    return stepped


_TEN = HandConfig.default()
_LEFT_ROWS = [row for row, finger in enumerate(_TEN.enabled_fingers) if finger.hand == LEFT]
_RIGHT_ROWS = [row for row, finger in enumerate(_TEN.enabled_fingers) if finger.hand == RIGHT]
_L3 = _TEN.enabled_fingers.index(FingerId(LEFT, 3))
_R3 = _TEN.enabled_fingers.index(FingerId(RIGHT, 3))


def test_settled_hand_keeps_its_fingertip_objects():
    # the left middle finger holds a point of its rest pose, so the left hand settles at once and its
    # base stays; the right middle finger chases a target beyond v_max*dt, alternating sides
    hold = init_hands(_TEN, GEOM).fingertips[_L3]
    far = [(0.2, 0.0, 0.0), (1.2, 0.0, 0.0)]
    motion = _held(_TEN, lambda tips: {_L3: hold}, 2)
    for k in range(4):
        tips, base = motion.tips, motion.base
        assert _step_both_ways(motion, {_L3: hold, _R3: far[k % 2]})
        assert all(motion.tips[row] is tips[row] for row in _LEFT_ROWS)
        assert motion.base[0] is base[0]
        assert all(motion.tips[row] is not tips[row] for row in _RIGHT_ROWS)


def test_no_hand_steps_returns_the_state_given():
    rest = init_hands(_TEN, GEOM).fingertips
    chosen = {_L3: rest[_L3], _R3: rest[_R3]}
    motion = _held(_TEN, lambda tips: chosen, 1)
    tips, base = motion.tips, motion.base
    assert _step_both_ways(motion, chosen) is False
    assert motion.tips is tips and motion.base is base


def _left_is_stepped(motion, chosen):
    tips = motion.tips
    _step_both_ways(motion, chosen)
    free = [row for row in _LEFT_ROWS if row not in chosen]
    return any(motion.tips[row] is not tips[row] for row in free)


def test_hand_is_stepped_while_its_base_moves():
    # in reach of the finger but beyond base_v_max*dt of the base: the hand settles while its base still travels
    hold = init_hands(_TEN, GEOM).fingertips[_L3]
    target = (hold[0] + 0.08, hold[1], hold[2])
    motion = _held(_TEN, lambda tips: {_L3: target}, 1)
    assert motion.tips[_L3] is target
    assert _left_is_stepped(motion, {_L3: target})


@pytest.mark.parametrize("change", ["new point", "zero signs"])
def test_hand_is_stepped_when_a_target_changes(change):
    hold = init_hands(_TEN, GEOM).fingertips[_L3]
    hold = (hold[0], 0.0, 0.0)  # on a white key's press point, in reach
    motion = _held(_TEN, lambda tips: {_L3: hold}, 3)
    assert motion.tips[_L3] is hold and not _left_is_stepped(motion, {_L3: hold})
    moved = _flip_zeros(hold) if change == "zero signs" else (hold[0] + 0.01, 0.0, 0.0)
    _step_both_ways(motion, {_L3: moved})
    assert motion.tips[_L3] is moved  # a target equal only as floats still gives its own bits


def _left_keeps_moving(config, tips, calls):
    """``calls`` steps with no target for the left hand; asserts it is stepped, to a fresh motion's bits, each time."""
    motion = _motion(config, 0.05, tips, init_hands(config, GEOM).base)
    right = config.enabled_fingers.index(FingerId(RIGHT, 3))
    left_rows = [row for row, finger in enumerate(config.enabled_fingers) if finger.hand == LEFT]
    for _ in range(calls):
        tips = motion.tips
        fresh = _motion(config, 0.05, tips, motion.base)
        _step(fresh, [right], [tips[right]])
        _step(motion, [right], [tips[right]])
        assert _bits(motion) == _bits(fresh)
        assert all(motion.tips[row] is not tips[row] for row in left_rows)


def test_hand_is_stepped_after_the_speed_cap():
    # the left fingertips start 0.3 m above their rest pose: they relax at v_max*dt, capped for three calls
    rest = init_hands(_TEN, GEOM).fingertips
    tips = [(x, y, z + 0.3) if row in _LEFT_ROWS else (x, y, z) for row, (x, y, z) in enumerate(rest)]
    _left_keeps_moving(_TEN, tips, 3)


def test_hand_is_stepped_after_the_span_projection():
    # a rest pose wider than span_max: the projection pulls the outer free fingers in on every call
    narrow = HandConfig(span_max=0.05)
    _left_keeps_moving(narrow, init_hands(narrow, GEOM).fingertips, 3)


def test_step_is_deterministic():
    config = HandConfig.default()
    target = {FingerId(LEFT, 2): (0.3, 0.0, 0.0)}
    a = init_hands(config, GEOM)
    b = init_hands(config, GEOM)
    for _ in range(7):
        a = step_hand(a, target, 0.05, config, GEOM)
        b = step_hand(b, target, 0.05, config, GEOM)
    assert np.array(a.fingertips).tobytes() == np.array(b.fingertips).tobytes()
    assert a.base == b.base


def test_disabling_preserves_remaining_motion_when_unconstrained():
    ten = HandConfig.default()
    eight = HandConfig.four_finger()
    target = {FingerId(RIGHT, 1): (0.60, 0.0, 0.0), FingerId(LEFT, 2): (0.35, 0.0, 0.0)}
    a = init_hands(ten, GEOM)
    b = init_hands(eight, GEOM)
    for _ in range(8):
        a = step_hand(a, target, 0.05, ten, GEOM)
        b = step_hand(b, target, 0.05, eight, GEOM)
    for finger in b.fingers:
        assert np.array_equal(a.fingertip(finger), b.fingertip(finger))


def test_base_stays_without_targets_for_that_hand():
    config = HandConfig.default()
    state = init_hands(config, GEOM)
    after = step_hand(state, {FingerId(RIGHT, 1): (1.0, 0.0, 0.0)}, 0.05, config, GEOM)
    assert after.base[0] == state.base[0]
    assert after.base[1] != state.base[1]


def test_target_on_disabled_finger_rejected():
    config = HandConfig.four_finger()
    state = init_hands(config, GEOM)
    with pytest.raises(InvalidConfigError):
        step_hand(state, {FingerId(RIGHT, 5): (0.5, 0.0, 0.0)}, 0.05, config, GEOM)
    with pytest.raises(InvalidConfigError):  # a state of another embodiment
        step_hand(state, {}, 0.05, HandConfig.default(), GEOM)
    with pytest.raises(InvalidConfigError):  # not a 3D point
        step_hand(state, {FingerId(RIGHT, 1): (0.5, 0.0)}, 0.05, config, GEOM)


def test_collision_flag_boundaries():
    gap = HandConfig.default().min_base_gap  # 0.10
    assert bases_collide((0.0, 0.5), gap) is False
    assert bases_collide((0.0, 0.05), gap) is True
    assert bases_collide((0.0, 0.10), gap) is False  # strict inequality


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        HandConfig(span_max=0.0)
    with pytest.raises(InvalidConfigError):
        HandConfig(disabled=(1, 2, 3, 4, 5))  # no finger left
    with pytest.raises(InvalidConfigError):
        HandConfig(disabled=(6,))
    with pytest.raises(InvalidConfigError):
        FingerId("middle", 1)
    with pytest.raises(InvalidConfigError):
        FingerId(LEFT, 6)


@pytest.mark.parametrize("offset", [(1e200, 0.0, 0.0), (0.0, -1e39, 0.0), (0.0, 0.0, 3.4e38)], ids=str)
def test_config_refuses_rest_offsets_past_the_coordinate_limit(offset):
    text = f"rest_offset.L1 = {offset[0]!r} {offset[1]!r} {offset[2]!r}\n"
    with pytest.raises(InvalidConfigError, match="rest offset L1 must lie within"):
        HandConfig.from_mapping(parse_config(text))


def test_config_from_text():
    text = """
    name = narrow
    span_max = 0.15
    disabled = 5
    rest_offset.R1 = -0.05 0 0
    """
    config = HandConfig.from_mapping(parse_config(text))
    assert config.name == "narrow"
    assert config.span_max == 0.15
    assert len(config.enabled_fingers) == 8
    assert config.rest_offsets[FingerId(RIGHT, 1)] == (-0.05, 0.0, 0.0)
    with pytest.raises(InvalidConfigError):
        HandConfig.from_mapping({"wingspan": 1.0})


@pytest.mark.parametrize("value", ["7", "true", "1 2"])
def test_config_name_must_be_text(value):
    # the parser reads these as a number, a bool and a tuple; none may become a name such as "7.0"
    with pytest.raises(InvalidConfigError, match="^name must be text, got "):
        HandConfig.from_mapping(parse_config(f"name = {value}\n"))


def test_finger_labels_round_trip():
    for finger in HandConfig.default().enabled_fingers:
        assert FingerId.from_label(finger.label()) == finger
