from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
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


# coordinates include both zeros: the kernel must keep -0.0 apart from 0.0
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
_CONFIGS = [HandConfig.default(), HandConfig.four_finger(), HandConfig(span_max=0.05, base_v_max=3.0)]


def _assert_step_matches_reference(config, dt, tips, base, rows, targets):
    got_tips, got_base = HandMotion(config, GEOM, dt).step(tips, base, rows, targets)
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


def test_finger_labels_round_trip():
    for finger in HandConfig.default().enabled_fingers:
        assert FingerId.from_label(finger.label()) == finger
