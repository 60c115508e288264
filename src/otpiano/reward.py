"""Per-step reward terms and their weighted aggregate.

The proximity term turns the solved finger-moving distance into a shaped
reward that saturates at 1 once fingertips are within a press threshold.
Press and sustain terms reuse a Gaussian tolerance curve; collision is a
binary bonus and energy a penalty.  All shaping terms live in [0, 1].
``score_steps`` is the one implementation of the press, sustain and
collision terms: it scores many steps at once from (T, 88) key rows, and
a single step is a one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import require_finite, settings_from_mapping, settings_snapshot


class InvalidParamsError(ValueError):
    """Shaping parameters outside their valid ranges."""


def tolerance(x: float, bounds=(0.0, 0.0), margin: float = 0.1, value_at_margin: float = 0.1) -> float:
    """Gaussian tolerance curve: 1 inside ``bounds``, decaying outside.

    At distance ``margin`` from the bounds interval the value is exactly
    ``value_at_margin``; beyond that it keeps falling as a Gaussian, so the
    result is always in (0, 1].
    """
    lo, hi = bounds
    if lo > hi:
        raise InvalidParamsError(f"bounds {bounds} must satisfy lo <= hi")
    if margin <= 0.0:
        raise InvalidParamsError("margin must be > 0")
    if not 0.0 < value_at_margin < 1.0:
        raise InvalidParamsError("value_at_margin must lie in (0, 1)")
    if lo <= x <= hi:
        return 1.0
    distance = (lo - x) if x < lo else (x - hi)
    scaled = distance / margin
    # exp(-0.5 (scaled*w)^2) with w fixed by the value at scaled == 1
    return math.exp(math.log(value_at_margin) * scaled * scaled)


def _default_scale() -> float:
    # makes the proximity falloff match a Gaussian tolerance with
    # margin 0.1 m and value 0.1 at the margin
    return math.log(0.1) / 0.1**2


@dataclass(frozen=True)
class RewardParams:
    """Coefficients and shaping parameters for all reward terms."""

    threshold: float = 0.01  # meters; proximity saturates below this
    scale: float = _default_scale()  # exponential falloff, < 0
    alpha_collision: float = 0.5
    alpha_energy: float = 5e-3
    tolerance_bounds: tuple = (0.0, 0.05)
    tolerance_margin: float = 0.5
    value_at_margin: float = 0.1

    def __post_init__(self) -> None:
        require_finite(self, InvalidParamsError)
        if self.threshold <= 0.0:
            raise InvalidParamsError("threshold must be > 0")
        if self.scale >= 0.0:
            raise InvalidParamsError("scale must be < 0")
        if self.tolerance_margin <= 0.0:
            raise InvalidParamsError("tolerance_margin must be > 0")
        if not 0.0 < self.value_at_margin < 1.0:
            raise InvalidParamsError("value_at_margin must lie in (0, 1)")
        lo, hi = self.tolerance_bounds
        if lo > hi:
            raise InvalidParamsError(f"tolerance_bounds {self.tolerance_bounds} must satisfy lo <= hi")

    def shaping(self, x: float) -> float:
        """The configured tolerance curve."""
        return tolerance(x, self.tolerance_bounds, self.tolerance_margin, self.value_at_margin)

    @classmethod
    def from_mapping(cls, values: dict) -> "RewardParams":
        """Build from a parsed config dict; unknown keys and non-numbers are rejected."""
        return settings_from_mapping(cls, values, InvalidParamsError)

    def snapshot(self) -> dict:
        """Flat dict of every parameter, for embedding in output files."""
        return settings_snapshot(self, "reward")


DEFAULT_PARAMS = RewardParams()


def ot_reward(distance: float, params: RewardParams = DEFAULT_PARAMS) -> float:
    """Proximity reward from the solved total moving distance.

    1.0 below the press threshold, then exp(scale * (d - threshold)^2):
    continuous at the threshold and strictly decreasing beyond it.
    """
    if distance < 0.0:
        raise ValueError("distance must be >= 0")
    if distance < params.threshold:
        return 1.0
    excess = distance - params.threshold
    return math.exp(params.scale * excess * excess)


@dataclass(frozen=True)
class RewardBreakdown:
    """All reward components plus their weighted total (floats or per-step arrays)."""

    ot: float
    press: float
    sustain: float
    collision: float
    energy: float
    total: float

    def as_row(self) -> tuple:
        return (self.ot, self.press, self.sustain, self.collision, self.energy, self.total)


def total_reward(
    ot: float,
    press: float,
    sustain: float,
    collision: float,
    energy: float,
    params: RewardParams = DEFAULT_PARAMS,
) -> RewardBreakdown:
    """Weighted aggregate of the five components.

    Energy enters as a penalty (subtracted with weight alpha_energy); the
    collision bonus is weighted by alpha_collision.  Components are floats
    for one step or equal-length arrays for many (as ``score_steps``
    passes them); each step's total is the same sum either way.
    """
    for name, value in (("ot", ot), ("press", press), ("sustain", sustain), ("collision", collision), ("energy", energy)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} component must be finite")
    total = ot + press + sustain + params.alpha_collision * collision - params.alpha_energy * energy
    return RewardBreakdown(ot=ot, press=press, sustain=sustain, collision=collision, energy=energy, total=total)


def score_steps(active, pressed, distance, collided, params: RewardParams = DEFAULT_PARAMS) -> RewardBreakdown:
    """Reward breakdown of T steps at once: one (T,) array per term.

    ``active`` and ``pressed`` are (T, 88) bool arrays of the goal keys and
    the keys held down, ``distance`` the (T,) float array of solved moving
    distances and ``collided`` the (T,) collision flags.  A pressed key has
    depth 1 and any other depth 0; the press term is half the mean depth
    shaping over the active keys (1 with none) and half for pressing no
    inactive key.  Sustain is scored at its target and energy is zero.
    """
    # the scalar ot_reward: np.exp may differ from math.exp in the last bit
    ot = np.array([ot_reward(d, params) for d in distance.tolist()])
    T = len(ot)
    # depth shaping per active key, one row per step in ascending key order,
    # zero-padded: cumsum adds sequentially, so each step's sum runs over its
    # keys in ascending order whatever the row length
    n_active = active.sum(axis=1)
    step = np.repeat(np.arange(T), n_active)
    rank = np.arange(len(step)) - np.repeat(np.cumsum(n_active) - n_active, n_active)
    depth = np.zeros((T, n_active.max(initial=0) + 1))
    depth[step, rank] = np.where(pressed[active], params.shaping(0.0), params.shaping(1.0))
    np.cumsum(depth, axis=1, out=depth)
    depth_term = np.divide(depth[:, -1], n_active, out=np.ones(T), where=n_active > 0)
    false_press = (pressed & ~active).any(axis=1)
    press = 0.5 * depth_term + 0.5 * np.where(false_press, 0.0, 1.0)
    sustain = np.full(T, params.shaping(0.0))
    collision = np.where(collided, 0.0, 1.0)
    return total_reward(ot, press, sustain, collision, np.zeros(T), params)
