from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import key_rows
from reward_reference import collision_reward, press_reward, sustain_reward
from otpiano.keyboard import KEY_COUNT, KeyState
from otpiano.reward import (
    DEFAULT_PARAMS,
    InvalidParamsError,
    RewardParams,
    ot_reward,
    score_steps,
    tolerance,
    total_reward,
)

# ---------------------------------------------------------------------------
# tolerance
# ---------------------------------------------------------------------------


def test_tolerance_inside_bounds():
    assert tolerance(0.3, bounds=(0.0, 1.0), margin=0.1, value_at_margin=0.1) == 1.0
    assert tolerance(0.0, bounds=(0.0, 0.0), margin=0.1, value_at_margin=0.1) == 1.0


def test_tolerance_defining_property_at_margin():
    for margin, vam in [(0.1, 0.1), (0.5, 0.05), (2.0, 0.9)]:
        value = tolerance(margin, bounds=(0.0, 0.0), margin=margin, value_at_margin=vam)
        assert abs(value - vam) < 1e-12


def test_tolerance_gaussian_tail():
    # distance twice the margin: value_at_margin ** 4
    assert tolerance(0.2, bounds=(0.0, 0.0), margin=0.1, value_at_margin=0.1) == pytest.approx(1e-4, rel=1e-12)


def test_tolerance_below_interval():
    assert tolerance(-0.1, bounds=(0.0, 0.0), margin=0.1, value_at_margin=0.1) == pytest.approx(0.1, abs=1e-12)


def test_tolerance_invalid_params():
    with pytest.raises(InvalidParamsError):
        tolerance(0.0, bounds=(1.0, 0.0))
    with pytest.raises(InvalidParamsError):
        tolerance(0.0, margin=0.0)
    with pytest.raises(InvalidParamsError):
        tolerance(0.0, value_at_margin=1.0)


@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=1e-3, max_value=10),
    st.floats(min_value=1e-6, max_value=0.999),
)
def test_tolerance_range_property(x, margin, vam):
    value = tolerance(x, bounds=(-1.0, 1.0), margin=margin, value_at_margin=vam)
    assert 0.0 <= value <= 1.0  # exact 0 only by float underflow far outside bounds


def test_tolerance_positive_before_underflow():
    # up to ~17 margins out the Gaussian stays representable
    for scaled in (1.0, 5.0, 10.0, 17.0):
        assert tolerance(scaled * 0.1, bounds=(0.0, 0.0), margin=0.1, value_at_margin=0.1) > 0.0


# ---------------------------------------------------------------------------
# proximity reward
# ---------------------------------------------------------------------------


def test_ot_reward_saturates_below_threshold():
    assert ot_reward(0.005) == 1.0
    assert ot_reward(0.0) == 1.0


def test_ot_reward_continuous_at_threshold():
    assert ot_reward(0.01) == 1.0  # exp(0)
    assert ot_reward(0.01 + 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_ot_reward_default_scale_anchor():
    # falloff anchored so 0.1 m past the threshold scores 0.1
    assert abs(ot_reward(0.11) - 0.1) < 1e-9
    assert DEFAULT_PARAMS.scale == pytest.approx(math.log(0.1) / 0.01, rel=1e-12)


def test_ot_reward_strictly_decreasing():
    grid = np.linspace(0.01, 1.5, 2000)
    values = [ot_reward(float(d)) for d in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_ot_reward_rejects_negative_distance():
    with pytest.raises(ValueError):
        ot_reward(-0.01)


# ---------------------------------------------------------------------------
# press / sustain / collision / energy
# ---------------------------------------------------------------------------


def _key_state(pairs):
    depths = [0.0] * KEY_COUNT
    for key, depth in pairs:
        depths[key] = depth
    return KeyState(depths=tuple(depths))


def _score_one(active, pressed, collided=False):
    """``score_steps`` on one step: the goal keys ``active``, the keys ``pressed``."""
    return score_steps(key_rows([active]), key_rows([pressed]), np.zeros(1), np.array([collided]))


def test_press_reward_all_keys_down():
    state = _key_state([(39, 1.0), (43, 1.0)])
    assert press_reward(state, {39, 43}, False) == pytest.approx(1.0)
    assert press_reward(state, {39, 43}, True) == pytest.approx(0.5)
    assert _score_one({39, 43}, {39, 43}).press.tolist() == [press_reward(state, {39, 43}, False)]
    # key 50 pressed but not active: a false press
    assert _score_one({39, 43}, {39, 43, 50}).press.tolist() == [press_reward(state, {39, 43}, True)]


def test_press_reward_partial_depth():
    params = RewardParams(tolerance_bounds=(0.0, 0.0), tolerance_margin=0.1, value_at_margin=0.1)
    state = _key_state([(39, 1.0), (43, 0.9)])
    assert press_reward(state, {39, 43}, False, params) == pytest.approx(0.5 * (1.0 + 0.1) / 2 + 0.5, abs=1e-12)


def test_press_reward_no_active_keys():
    state = _key_state([])
    assert press_reward(state, set(), False) == 1.0
    assert press_reward(state, set(), True) == 0.5
    assert _score_one(set(), set()).press.tolist() == [1.0]
    assert _score_one(set(), {50}).press.tolist() == [0.5]


def test_sustain_reward():
    assert sustain_reward(0.7, 0.7) == 1.0
    params = RewardParams(tolerance_bounds=(0.0, 0.0), tolerance_margin=0.5, value_at_margin=0.1)
    assert sustain_reward(1.0, 0.0, params) == pytest.approx(1e-4, rel=1e-12)
    assert sustain_reward(0.5, 0.0, params) == pytest.approx(0.1, abs=1e-12)  # at margin
    with pytest.raises(ValueError):
        sustain_reward(1.5, 0.0)


def test_collision_reward():
    assert collision_reward(False) == 1.0
    assert collision_reward(True) == 0.0
    assert collision_reward(True) == collision_reward(True)
    assert _score_one({39}, {39}, collided=False).collision.tolist() == [1.0]
    assert _score_one({39}, {39}, collided=True).collision.tolist() == [0.0]


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def test_total_reward_perfect_step():
    result = total_reward(ot=1.0, press=1.0, sustain=1.0, collision=1.0, energy=0.0)
    assert result.total == pytest.approx(3.5)


def test_total_reward_zero():
    assert total_reward(0.0, 0.0, 0.0, 0.0, 0.0).total == 0.0


def test_energy_enters_as_penalty():
    result = total_reward(0.0, 0.0, 0.0, 0.0, 100.0)
    assert result.total == pytest.approx(-0.5)


def test_total_reward_affine_coefficients():
    base = total_reward(0.2, 0.3, 0.4, 0.5, 0.6).total
    assert total_reward(1.2, 0.3, 0.4, 0.5, 0.6).total - base == pytest.approx(1.0)
    assert total_reward(0.2, 1.3, 0.4, 0.5, 0.6).total - base == pytest.approx(1.0)
    assert total_reward(0.2, 0.3, 1.4, 0.5, 0.6).total - base == pytest.approx(1.0)
    assert total_reward(0.2, 0.3, 0.4, 1.5, 0.6).total - base == pytest.approx(0.5)
    assert total_reward(0.2, 0.3, 0.4, 0.5, 1.6).total - base == pytest.approx(-5e-3)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1000.0),
)
def test_total_bounded_and_energy_monotone(ot, press, sustain, collision, energy):
    result = total_reward(ot, press, sustain, collision, energy)
    assert -5e-3 * energy - 1e-9 <= result.total <= 3.5 + 1e-9
    more_energy = total_reward(ot, press, sustain, collision, energy + 1.0)
    assert more_energy.total <= result.total


def test_total_reward_preserves_components():
    result = total_reward(0.1, 0.2, 0.3, 0.4, 0.5)
    assert result.as_row() == (0.1, 0.2, 0.3, 0.4, 0.5, result.total)
    with pytest.raises(ValueError):
        total_reward(float("nan"), 0.0, 0.0, 0.0, 0.0)


def test_params_validation_and_config():
    with pytest.raises(InvalidParamsError):
        RewardParams(threshold=0.0)
    with pytest.raises(InvalidParamsError):
        RewardParams(scale=1.0)
    params = RewardParams.from_mapping({"threshold": 0.02, "alpha_energy": 0.01})
    assert params.threshold == 0.02
    assert params.alpha_energy == 0.01
    with pytest.raises(InvalidParamsError):
        RewardParams.from_mapping({"alpha3": 1.0})
    snap = params.snapshot()
    assert snap["reward.threshold"] == 0.02
