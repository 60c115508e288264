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
base pair.  A ``HandMotion`` holds one rollout's hand state and steps it
with the one step kernel ``HandMotion.step``; it remembers which hands
its steps left settled on their goals, and skips each settled hand whose
targets and base stay the same, since stepping it would give the same
bits (the proof is at ``HandMotion.step``).  Float sums here run left to
right, never through builtin ``sum``, which compensates from Python 3.12
on, so a rollout gives the same bits on every Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import ConfigError, config_number, config_numbers, require_finite
from .keyboard import COORDINATE_LIMIT, KeyboardGeometry

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
    digit stays on.  It is stored as a sorted tuple without repeats.  Every
    rest-offset coordinate must lie within ``±COORDINATE_LIMIT``: a
    fingertip is a base plus its offset, and must stay finite in float32.
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
        for finger, offset in self.rest_offsets.items():
            if not all(abs(x) <= COORDINATE_LIMIT for x in offset):
                raise InvalidConfigError(f"rest offset {finger.label()} must lie within {COORDINATE_LIMIT:.6g} m of 0")

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

        Recognized keys: name (text), span_max, v_max, base_v_max, min_base_gap,
        disabled (list of digit numbers 1..5, applied to both hands), and
        rest_offset.<L|R><digit> = x y z overrides.  Numbers must be finite.
        """
        rest = _default_rest_offsets()
        kwargs: dict = {}
        for key, val in values.items():
            if key == "name":
                if not isinstance(val, str):
                    raise InvalidConfigError(f"name must be text, got {val!r}")
                kwargs[key] = val
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
    """Immutable hand snapshot, the form a ``HandMotion`` is built from.

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
    """One rollout's hand state and the step constants of its embodiment at one dt, in finger-row order.

    Finger rows are positions in ``config.enabled_fingers``, the fingers of
    the state it holds: ``tips``, a list of one ``(x, y, z)`` per row, and
    the ``base`` pair, which a ``step`` that moves a hand replaces and
    nothing changes in place.  Built once per song by the annotator, and
    per call by step_hand.  ``step`` is the one hand-step kernel: it runs
    on Python floats, since numpy call overhead dominates arrays of at most
    10x3, and keeps numpy's order of operations, so its results are the
    same bits a numpy build of the step gives: norms sum as
    ``(dx*dx + dy*dy) + dz*dz`` and a centroid is a running sum from 0.0
    over the rows, then a division.

    It remembers per hand the ``(row, target)`` pairs its last step of
    that hand settled on, if it did, and skips a hand it can prove would
    not move (see ``step``), to the bits a fresh ``HandMotion`` would give.
    """

    def __init__(self, config: HandConfig, geom: KeyboardGeometry, dt: float, state: HandState):
        fingers = config.enabled_fingers
        if state.fingers != fingers:
            raise InvalidConfigError("hand state has other fingers than the config enables")
        # enabled fingers keep ALL_FINGERS order, so rows [0, split) are the left hand's and the rest
        # the right hand's; neither is empty, since a digit stays enabled on both hands
        split = sum(finger.hand == LEFT for finger in fingers)
        self.hand_bounds = ((0, split), (split, len(fingers)))
        self.rest = _rest_pose(config, geom)
        self.hand_rest = (self.rest[:split], self.rest[split:])
        self.step_reach = config.v_max * dt
        self.base_reach = config.base_v_max * dt
        self.radius = config.span_max / 2.0
        self.press_points = geom.press_points
        self.tips, self.base = list(state.fingertips), state.base
        self._settled = [None, None]  # per hand: the (row, target) pairs it settled on when last stepped, or None

    def distance_bound(self) -> float:
        """Bound on any fingertip-to-press-point distance in a rollout from rest at the base it was built with.

        ``step`` moves a fingertip only toward its goal, a press point of
        the geometry or its rest offset around its base, and the span
        projection only toward its hand's centroid; a base only moves
        toward a mean of the points' x.  So every fingertip stays in the
        box around the press points and the rest pose at the two extreme
        bases, and no distance exceeds that box's diagonal.
        """
        xs = [x for x, _, _ in self.press_points] + list(self.base)
        corners = list(self.press_points) + [(b + dx, y, z) for b in (min(xs), max(xs)) for dx, y, z in self.rest]
        dx, dy, dz = (max(c) - min(c) for c in zip(*corners))
        return math.sqrt(dx**2 + dy**2 + dz**2)  # left to right, as every step's sums

    def step(self, hand_pairs: tuple) -> bool:
        """Advance ``tips`` and ``base`` one control step; returns whether any hand stepped.

        ``hand_pairs`` holds a list per hand, left then right, of
        ``(row, target)`` pairs: the point assigned to each finger row of
        that hand, with no row twice.  Assigned fingertips move toward
        their targets by at most v_max*dt (arriving exactly when in range),
        each hand base moves toward the mean of its targets' x, summed left
        to right in pair order, by at most base_v_max*dt (staying put with no targets),
        and unassigned fingertips relax toward the rest pose around the
        updated base.  Finally each hand's fingertips are projected into
        the ball of radius span_max/2 around their centroid, which bounds
        the pairwise spread by span_max.  The pair lists given must not be
        changed in place, as the call keeps them.

        The speed cap is not a hard cap on a fingertip's move: the span
        projection runs after it, and it can carry a fingertip further than
        v_max*dt from where the step began (README "Known limits").

        A call leaves a hand *settled* when no fingertip of it hit the
        speed cap and the span projection moved none of them: its
        fingertips are then exactly its goals, the very target objects of
        its assigned rows and the rest offsets around its new base.  A call
        skips a hand, keeping its fingertip objects and its base, when

        - the last call that stepped the hand left it settled;
        - the hand's ``(row, target)`` pairs equal the ones it settled on,
          with the same target objects (``0.0 == -0.0``, so equal floats
          are not enough): each assigned fingertip *is* its target;
        - the hand's base update leaves its base bitwise unchanged.

        Stepping such a hand would change nothing.  Every goal is bitwise
        the goal it settled on, and every fingertip sits on its goal, so
        each distance is 0.0 and the fingertip "arrives exactly" at the
        same bits.  The projection then sees the points it saw when the
        hand settled, so it computes the same centroid and norms and again
        moves none.
        """
        tips, base = self.tips, self.base
        base_reach = self.base_reach
        new_base = list(base)
        stepped = []
        for hand, pairs in enumerate(hand_pairs):
            x = old = base[hand]
            if pairs:
                total = 0.0
                for _, target in pairs:
                    total += target[0]
                delta = total / len(pairs) - x
                # max(-base_reach, min(base_reach, delta)) spelled out: the same value, without two calls
                delta = delta if delta < base_reach else base_reach
                x = x + (delta if delta > -base_reach else -base_reach)
            # bitwise x == old, as 0.0 == -0.0; the pairs compare targets as floats, the loop as objects
            if x == old and (x or math.copysign(1.0, x) == math.copysign(1.0, old)):
                if self._settled[hand] == pairs:
                    for row, target in pairs:
                        if tips[row] is not target:
                            break
                    else:
                        continue
            new_base[hand] = x
            stepped.append(hand)
        if not stepped:
            return False

        reach = self.step_reach
        radius = self.radius
        new_tips = list(tips)
        for hand in stepped:
            lo, hi = self.hand_bounds[hand]
            x = new_base[hand]
            goals = [(dx + x, y, z) for dx, y, z in self.hand_rest[hand]]
            pairs = hand_pairs[hand]
            for row, target in pairs:
                goals[row - lo] = target
            settled = True
            cx = cy = cz = 0.0
            for j, (tx, ty, tz) in enumerate(tips[lo:hi]):
                goal = goals[j]
                dx = goal[0] - tx
                dy = goal[1] - ty
                dz = goal[2] - tz
                dist = math.sqrt((dx * dx + dy * dy) + dz * dz)
                if dist > reach:
                    scale = reach / dist
                    goal = goals[j] = (tx + dx * scale, ty + dy * scale, tz + dz * scale)
                    settled = False
                # in-range fingertips arrive exactly; the centroid sums as they come
                cx += goal[0]
                cy += goal[1]
                cz += goal[2]

            # span projection: clamp into ball of radius span_max/2 around centroid
            cx /= hi - lo
            cy /= hi - lo
            cz /= hi - lo
            for j, (x, y, z) in enumerate(goals):
                ox = x - cx
                oy = y - cy
                oz = z - cz
                norm = math.sqrt((ox * ox + oy * oy) + oz * oz)
                if norm > radius:
                    scale = radius / norm
                    goals[j] = (cx + ox * scale, cy + oy * scale, cz + oz * scale)
                    settled = False
            new_tips[lo:hi] = goals
            self._settled[hand] = pairs if settled else None
        self.tips, self.base = new_tips, tuple(new_base)
        return True


def step_hand(
    state: HandState, targets: dict, dt: float, config: HandConfig, geom: KeyboardGeometry
) -> HandState:
    """Advance one control step toward assigned targets (see HandMotion.step).

    ``targets`` maps enabled FingerId -> 3D point.
    """
    motion = HandMotion(config, geom, dt, state)
    hand_pairs = ([], [])
    for finger, target in targets.items():
        if finger not in state.fingers:
            raise InvalidConfigError(f"target for disabled or unknown finger {finger}")
        if len(target) != 3:
            raise InvalidConfigError(f"target for {finger} must be 3 numbers, got {target!r}")
        point = tuple(float(c) for c in target)
        hand_pairs[finger.hand == RIGHT].append((state.fingers.index(finger), point))
    motion.step(hand_pairs)
    return HandState(fingers=state.fingers, fingertips=tuple(motion.tips), base=motion.base)


def bases_collide(base: tuple, min_base_gap: float) -> bool:
    """Forearm-collision proxy on ``(left_x, right_x)``: bases closer than min_base_gap."""
    return abs(base[0] - base[1]) < min_base_gap
