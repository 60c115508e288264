"""Bimanual point-fingertip surrogate with speed and span limits.

Fingertips are free 3D points that chase assigned key targets under a
per-step speed cap; each hand has a scalar base position that follows the
lateral center of its targets, and a span limit that keeps fingertips of
one hand inside a reach ball (a hand cannot press keys too far apart).
This replaces joint-level simulation for annotation purposes: assignment
costs only need fingertip positions.  An embodiment (``HandConfig``) is the
set of digits switched off on both hands, such as the little fingers of
the four-finger hand, plus the motion limits.  A hand state is the
fingertips as ``(x, y, z)`` Python floats plus the ``(left_x, right_x)``
base pair, the values the one step kernel ``HandMotion.step`` works on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import ConfigError, config_number, config_numbers, require_finite
from .keyboard import KeyboardGeometry

LEFT = "left"
RIGHT = "right"
DIGITS = (1, 2, 3, 4, 5)  # thumb, index, middle, ring, little

DEFAULT_SPAN_MAX = 0.20
DEFAULT_V_MAX = 2.0
DEFAULT_BASE_V_MAX = 1.0
DEFAULT_MIN_BASE_GAP = 0.10
_REST_SPACING = 0.0225  # rest-pose fingertip spacing, one white key


class InvalidConfigError(ConfigError):
    """Hand configuration violates its invariants."""


@dataclass(frozen=True, order=True)
class FingerId:
    """One digit of one hand; digit 1 = thumb .. 5 = little."""

    hand: str
    digit: int

    def __post_init__(self) -> None:
        if self.hand not in (LEFT, RIGHT):
            raise InvalidConfigError(f"hand must be {LEFT!r} or {RIGHT!r}")
        if not 1 <= self.digit <= 5:
            raise InvalidConfigError("digit must be 1..5")

    def label(self) -> str:
        return f"{'L' if self.hand == LEFT else 'R'}{self.digit}"

    @classmethod
    def from_label(cls, label: str) -> "FingerId":
        if len(label) != 2 or label[0] not in "LR" or label[1] not in "12345":
            raise InvalidConfigError(f"bad finger label {label!r}")
        return cls(LEFT if label[0] == "L" else RIGHT, int(label[1]))


ALL_FINGERS = tuple(FingerId(hand, digit) for hand in (LEFT, RIGHT) for digit in range(1, 6))


def _default_rest_offsets() -> dict:
    """Rest pose: digits fan out from the base, thumbs toward the body center.

    On a keyboard the right thumb is the leftmost right-hand digit and the
    left thumb the rightmost left-hand digit.
    """
    offsets = {}
    for finger in ALL_FINGERS:
        direction = 1.0 if finger.hand == RIGHT else -1.0
        offsets[finger] = (direction * (finger.digit - 3) * _REST_SPACING, 0.0, 0.0)
    return offsets


@dataclass(frozen=True)
class HandConfig:
    """Embodiment description: disabled digits plus motion limits (SI units).

    ``disabled`` lists digits 1 (thumb) .. 5 (little), each switched off on
    both hands, the meaning of the config key of that name; at least one
    digit stays on.  It is stored as a sorted tuple without repeats.
    """

    name: str = "ten-finger"
    disabled: tuple = ()
    span_max: float = DEFAULT_SPAN_MAX
    v_max: float = DEFAULT_V_MAX
    base_v_max: float = DEFAULT_BASE_V_MAX
    min_base_gap: float = DEFAULT_MIN_BASE_GAP
    rest_offsets: dict = field(default_factory=_default_rest_offsets)

    def __post_init__(self) -> None:
        require_finite(self, InvalidConfigError)
        if any(isinstance(d, bool) or d not in DIGITS for d in self.disabled):
            raise InvalidConfigError(f"disabled must list digits 1..5, got {self.disabled!r}")
        object.__setattr__(self, "disabled", tuple(sorted({int(d) for d in self.disabled})))
        if self.disabled == DIGITS:
            raise InvalidConfigError("every digit is disabled")
        if self.span_max <= 0 or self.v_max <= 0 or self.base_v_max <= 0:
            raise InvalidConfigError("span_max, v_max and base_v_max must be > 0")
        if self.min_base_gap < 0:
            raise InvalidConfigError("min_base_gap must be >= 0")
        missing = [f for f in ALL_FINGERS if f not in self.rest_offsets]
        if missing:
            raise InvalidConfigError(f"missing rest offsets for {missing}")

    @property
    def enabled_fingers(self) -> tuple:
        """The fingers not disabled, in ``ALL_FINGERS`` order."""
        return tuple(f for f in ALL_FINGERS if f.digit not in self.disabled)

    @classmethod
    def default(cls) -> "HandConfig":
        return cls()

    @classmethod
    def four_finger(cls) -> "HandConfig":
        """Little fingers disabled: eight fingertips total."""
        return cls(name="four-finger", disabled=(5,))

    @classmethod
    def from_mapping(cls, values: dict) -> "HandConfig":
        """Build from a parsed config dict; unknown keys are rejected.

        Recognized keys: name, span_max, v_max, base_v_max, min_base_gap,
        disabled (list of digit numbers 1..5, applied to both hands), and
        rest_offset.<L|R><digit> = x y z overrides.  Numbers must be finite.
        """
        rest = _default_rest_offsets()
        kwargs: dict = {}
        for key, val in values.items():
            if key == "name":
                kwargs[key] = str(val)
            elif key == "disabled":
                vals = val if isinstance(val, tuple) else (val,)
                kwargs[key] = tuple(config_number(key, v, InvalidConfigError) for v in vals)
            elif key in ("span_max", "v_max", "base_v_max", "min_base_gap"):
                kwargs[key] = config_number(key, val, InvalidConfigError)
            elif key.startswith("rest_offset."):
                finger = FingerId.from_label(key.split(".", 1)[1])
                rest[finger] = config_numbers(key, val, 3, InvalidConfigError)
            else:
                raise InvalidConfigError(f"unknown hand config key {key!r}")
        return cls(rest_offsets=rest, **kwargs)

    def snapshot(self) -> dict:
        """Flat dict describing the embodiment, for output headers; rest offsets only where not default."""
        snapshot = {
            "hand.name": self.name,
            "hand.enabled": ",".join(f.label() for f in self.enabled_fingers),
            "hand.span_max": self.span_max,
            "hand.v_max": self.v_max,
            "hand.base_v_max": self.base_v_max,
            "hand.min_base_gap": self.min_base_gap,
        }
        for finger, default in _default_rest_offsets().items():
            offset = tuple(self.rest_offsets[finger])
            if offset != default:
                snapshot[f"hand.rest_offset.{finger.label()}"] = offset
        return snapshot


@dataclass(frozen=True)
class HandState:
    """Immutable hand snapshot, in the form ``HandMotion.step`` works on.

    One ``(x, y, z)`` float tuple per finger of ``fingers`` and the ``(left_x, right_x)`` bases.
    """

    fingers: tuple
    fingertips: tuple
    base: tuple

    def fingertip(self, finger: FingerId) -> tuple:
        return self.fingertips[self.fingers.index(finger)]


def _rest_pose(config: HandConfig, geom: KeyboardGeometry) -> list:
    """Rest pose of each enabled finger relative to its hand base: x offset, absolute y and z."""
    _, oy, oz = geom.origin
    offsets = map(config.rest_offsets.get, config.enabled_fingers)
    return [(float(dx), float(oy + dy), float(oz + dz)) for dx, dy, dz in offsets]


def init_hands(config: HandConfig, geom: KeyboardGeometry) -> HandState:
    """Rest pose: bases at 1/3 and 2/3 of the keyboard width, fingertips at their rest offsets."""
    ox = geom.origin[0]
    left_x, right_x = ox + geom.width / 3.0, ox + 2.0 * geom.width / 3.0
    fingers = config.enabled_fingers
    tips = tuple(
        (dx + (left_x if finger.hand == LEFT else right_x), y, z)
        for finger, (dx, y, z) in zip(fingers, _rest_pose(config, geom))
    )
    return HandState(fingers=fingers, fingertips=tips, base=(left_x, right_x))


class HandMotion:
    """Step constants of one embodiment at one dt, in finger-row order.

    Finger rows are positions in ``config.enabled_fingers``, which is also
    the finger tuple of every hand state of that config.  Built once
    per song by the annotator, and per call by step_hand.  ``step`` is the
    one hand-step kernel: it runs on Python floats, since numpy
    call overhead dominates arrays of at most 10x3, and keeps numpy's order
    of operations, so its results are the same bits a numpy build of the
    step gives: norms sum as ``(dx*dx + dy*dy) + dz*dz`` and a centroid is
    a running sum from 0.0 over the rows, then a division.
    """

    def __init__(self, config: HandConfig, geom: KeyboardGeometry, dt: float):
        fingers = config.enabled_fingers
        self.is_left = tuple(finger.hand == LEFT for finger in fingers)
        # finger rows of the left hand, then of the right hand; neither is empty, since a digit stays enabled
        self.hand_rows = tuple(
            tuple(i for i, finger in enumerate(fingers) if finger.hand == hand) for hand in (LEFT, RIGHT)
        )
        self.rest = _rest_pose(config, geom)
        self.step_reach = config.v_max * dt
        self.base_reach = config.base_v_max * dt
        self.radius = config.span_max / 2.0

    def distance_bound(self, points: list, base: tuple) -> float:
        """Bound on the distance from any fingertip to any of ``points`` in a rollout from rest at ``base``.

        ``step`` moves a fingertip only toward its goal, one of ``points``
        or its rest offset around its base, and the span projection only
        toward its hand's centroid; a base only moves toward a mean of
        the points' x.  So every fingertip stays in the box around the
        points and the rest pose at the two extreme bases, and no
        distance exceeds that box's diagonal.
        """
        xs = [x for x, _, _ in points] + list(base)
        corners = list(points) + [(b + dx, y, z) for b in (min(xs), max(xs)) for dx, y, z in self.rest]
        return math.sqrt(sum((max(c) - min(c)) ** 2 for c in zip(*corners)))

    def step(self, tips: list, base: tuple, rows: list, targets: list) -> tuple:
        """Advance one control step; returns the new ``(fingertips, (left_x, right_x))``.

        ``tips`` holds one ``(x, y, z)`` point per finger row and
        ``targets[m]`` is the point assigned to finger row ``rows[m]``.
        Assigned fingertips move toward their targets at up to v_max
        (arriving exactly when in range), each hand base moves toward the
        mean target x at up to base_v_max (staying put with no targets),
        and unassigned fingertips relax toward the rest pose around the
        updated base.  Finally each hand's fingertips are projected into
        the ball of radius span_max/2 around their centroid, which bounds
        the pairwise spread by span_max.
        """
        hand_xs = ([], [])
        for row, target in zip(rows, targets):
            hand_xs[0 if self.is_left[row] else 1].append(target[0])
        new_base = []
        for x, xs in zip(base, hand_xs):
            if xs:
                delta = sum(xs) / len(xs) - x
                x = x + max(-self.base_reach, min(self.base_reach, delta))
            new_base.append(x)
        left_x, right_x = new_base
        goals = [(dx + (left_x if left else right_x), y, z) for (dx, y, z), left in zip(self.rest, self.is_left)]
        for row, target in zip(rows, targets):
            goals[row] = target

        reach = self.step_reach
        new_tips = []
        for (tx, ty, tz), goal in zip(tips, goals):
            dx = goal[0] - tx
            dy = goal[1] - ty
            dz = goal[2] - tz
            dist = math.sqrt((dx * dx + dy * dy) + dz * dz)
            if dist > reach:
                scale = reach / dist
                goal = (tx + dx * scale, ty + dy * scale, tz + dz * scale)
            new_tips.append(goal)  # in-range fingertips arrive exactly

        # span projection per hand: clamp into ball of radius span_max/2 around centroid
        radius = self.radius
        for idx in self.hand_rows:
            cx = cy = cz = 0.0
            for i in idx:
                x, y, z = new_tips[i]
                cx += x
                cy += y
                cz += z
            cx /= len(idx)
            cy /= len(idx)
            cz /= len(idx)
            for i in idx:
                x, y, z = new_tips[i]
                ox = x - cx
                oy = y - cy
                oz = z - cz
                norm = math.sqrt((ox * ox + oy * oy) + oz * oz)
                if norm > radius:
                    scale = radius / norm
                    new_tips[i] = (cx + ox * scale, cy + oy * scale, cz + oz * scale)
        return new_tips, (left_x, right_x)


def step_hand(
    state: HandState, targets: dict, dt: float, config: HandConfig, geom: KeyboardGeometry
) -> HandState:
    """Advance one control step toward assigned targets (see HandMotion.step).

    ``targets`` maps enabled FingerId -> 3D point.
    """
    if state.fingers != config.enabled_fingers:
        raise InvalidConfigError("hand state has other fingers than the config enables")
    rows, points = [], []
    for finger, target in targets.items():
        if finger not in state.fingers:
            raise InvalidConfigError(f"target for disabled or unknown finger {finger}")
        if len(target) != 3:
            raise InvalidConfigError(f"target for {finger} must be 3 numbers, got {target!r}")
        rows.append(state.fingers.index(finger))
        points.append(tuple(float(c) for c in target))
    tips, base = HandMotion(config, geom, dt).step(state.fingertips, state.base, rows, points)
    return HandState(fingers=state.fingers, fingertips=tuple(tips), base=base)


def bases_collide(base: tuple, min_base_gap: float) -> bool:
    """Forearm-collision proxy on ``(left_x, right_x)``: bases closer than min_base_gap."""
    return abs(base[0] - base[1]) < min_base_gap
