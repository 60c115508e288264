"""Scalar forms of the press, sustain and collision terms, kept as independent references.

The package scores these terms only through ``otpiano.reward.score_steps``,
many steps at once over (T, 88) key rows; these are the per-step functions
it replaced.  Unlike the array form they take continuous key depths, an
explicit false-press flag and a sustain state off its target.
"""

from __future__ import annotations

import operator
from functools import reduce

from otpiano.reward import DEFAULT_PARAMS, RewardParams


def press_reward(key_state, active_keys, false_press: bool, params: RewardParams = DEFAULT_PARAMS) -> float:
    """Half for sinking the active keys, half for touching nothing else.

    The depth term averages the shaping of |depth - 1| over active keys
    (vacuously 1 with no active keys); the second term zeroes out when any
    inactive key is pressed.
    """
    active = sorted(active_keys)
    if active:
        shaped = (params.shaping(abs(key_state.depths[k] - 1.0)) for k in active)
        depth_term = reduce(operator.add, shaped, 0.0) / len(active)  # left to right: sum() compensates from 3.12 on
    else:
        depth_term = 1.0
    return 0.5 * depth_term + 0.5 * (0.0 if false_press else 1.0)


def sustain_reward(s: float, s_target: float, params: RewardParams = DEFAULT_PARAMS) -> float:
    """Shaped closeness of the sustain state to its target."""
    if not 0.0 <= s <= 1.0 or not 0.0 <= s_target <= 1.0:
        raise ValueError("sustain values must lie in [0, 1]")
    return params.shaping(abs(s - s_target))


def collision_reward(collided: bool) -> float:
    """1 when the forearms stayed clear, 0 on collision."""
    return 0.0 if collided else 1.0
