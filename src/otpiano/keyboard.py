"""The 88-key keyboard: pitch/key mapping, color classification, press points.

Key 0 is A0 (MIDI pitch 21), key 87 is C8 (MIDI pitch 108).  Press points
are the 3D targets a fingertip must reach to sound a key; white keys sit on
the front plane, black keys are set back toward the fallboard and raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .config import ConfigError, require_finite, settings_from_mapping, settings_snapshot

KEY_COUNT = 88
MIN_PITCH = 21
MAX_PITCH = 108
WHITE_KEY_COUNT = 52

# pitch classes (pitch mod 12) of the black keys: C#, D#, F#, G#, A#
_BLACK_PITCH_CLASSES = frozenset({1, 3, 6, 8, 10})


class OutOfRangeError(ValueError):
    """Pitch or key index outside the 88-key keyboard."""


def key_for_pitch(pitch: int) -> int:
    """Map MIDI pitch 21..108 to key index 0..87."""
    if not MIN_PITCH <= pitch <= MAX_PITCH:
        raise OutOfRangeError(f"pitch {pitch} outside keyboard range [{MIN_PITCH}, {MAX_PITCH}]")
    return pitch - MIN_PITCH


def pitch_for_key(key: int) -> int:
    """Map key index 0..87 back to MIDI pitch 21..108."""
    _check_key(key)
    return key + MIN_PITCH


def _check_key(key: int) -> None:
    if not 0 <= key < KEY_COUNT:
        raise OutOfRangeError(f"key index {key} outside [0, {KEY_COUNT})")


def is_black(key: int) -> bool:
    """True for the 36 raised keys, False for the 52 white keys."""
    _check_key(key)
    return (key + MIN_PITCH) % 12 in _BLACK_PITCH_CLASSES


@dataclass(frozen=True)
class KeyboardGeometry:
    """Physical layout used to place press-point targets.

    Defaults are near standard acoustic dimensions; all lengths in meters.
    ``origin`` is the left edge of key A0 at white-key press height.
    """

    white_key_width: float = 0.0225
    white_key_length: float = 0.15
    black_key_setback: float = 0.09
    black_key_height: float = 0.01
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        require_finite(self)
        for f in fields(self):  # every length but the origin point
            if not isinstance(f.default, tuple) and getattr(self, f.name) <= 0.0:
                raise ConfigError(f"{f.name} must be > 0")
        if len(self.origin) != 3:
            raise ConfigError("origin must be a 3D point")

    @property
    def width(self) -> float:
        """Total keyboard width (52 white keys)."""
        return WHITE_KEY_COUNT * self.white_key_width

    @classmethod
    def from_mapping(cls, values: dict) -> "KeyboardGeometry":
        """Build from a parsed config dict; unknown keys and non-numbers are rejected."""
        return settings_from_mapping(cls, values)

    def snapshot(self) -> dict:
        """Flat dict of every dimension, for embedding in output files."""
        return settings_snapshot(self, "geometry")


# white index of each key, -1 for black keys, computed once
_WHITE_INDEX = []
_count = 0
for _k in range(KEY_COUNT):
    if (_k + MIN_PITCH) % 12 in _BLACK_PITCH_CLASSES:
        _WHITE_INDEX.append(-1)
    else:
        _WHITE_INDEX.append(_count)
        _count += 1
del _count, _k


def key_press_point(key: int, geom: KeyboardGeometry) -> tuple[float, float, float]:
    """3D press-point target of a key.

    A white key's point is centered on the key; a black key's sits at the
    boundary between its two white neighbours, set back and raised.
    """
    _check_key(key)
    ox, oy, oz = geom.origin
    w = _WHITE_INDEX[key]
    if w >= 0:
        return (ox + (w + 0.5) * geom.white_key_width, oy, oz)
    # black key: left neighbour (key - 1) is always white
    w = _WHITE_INDEX[key - 1]
    return (
        ox + (w + 1) * geom.white_key_width,
        oy + geom.black_key_setback,
        oz + geom.black_key_height,
    )


def press_point_table(geom: KeyboardGeometry) -> np.ndarray:
    """(88, 3) array whose row k is ``key_press_point(k, geom)``."""
    return np.array([key_press_point(k, geom) for k in range(KEY_COUNT)], dtype=np.float64)


def _default_depths() -> "tuple[float, ...]":
    return (0.0,) * KEY_COUNT


@dataclass(frozen=True)
class KeyState:
    """Normalized key depths (0 = up, 1 = fully pressed) plus sustain state."""

    depths: tuple[float, ...] = field(default_factory=_default_depths)
    sustain: float = 0.0

    def __post_init__(self) -> None:
        if len(self.depths) != KEY_COUNT:
            raise ValueError(f"expected {KEY_COUNT} key depths, got {len(self.depths)}")
        if any(not 0.0 <= d <= 1.0 for d in self.depths):
            raise ValueError("key depths must lie in [0, 1]")
        if not 0.0 <= self.sustain <= 1.0:
            raise ValueError("sustain must lie in [0, 1]")
