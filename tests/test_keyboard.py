from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from numpy_reference import pressed_keys
from otpiano.config import ConfigError, parse_config
from otpiano.keyboard import (
    KEY_COUNT,
    MAX_PITCH,
    MIN_PITCH,
    WHITE_KEY_COUNT,
    KeyboardGeometry,
    KeyState,
    OutOfRangeError,
    is_black,
    key_for_pitch,
    key_press_point,
    pitch_for_key,
)


def test_pitch_to_key_endpoints():
    assert key_for_pitch(21) == 0
    assert key_for_pitch(108) == 87
    assert key_for_pitch(60) == 39  # middle C


@pytest.mark.parametrize("pitch", [20, 109, 0, 127, -5])
def test_pitch_out_of_range(pitch):
    with pytest.raises(OutOfRangeError):
        key_for_pitch(pitch)


@given(st.integers(min_value=MIN_PITCH, max_value=MAX_PITCH))
def test_pitch_key_round_trip(pitch):
    assert pitch_for_key(key_for_pitch(pitch)) == pitch


def test_key_index_out_of_range():
    with pytest.raises(OutOfRangeError):
        pitch_for_key(88)
    with pytest.raises(OutOfRangeError):
        is_black(-1)


def test_black_white_classification():
    assert not is_black(0)  # A0
    assert is_black(1)  # A#0
    blacks = sum(1 for k in range(KEY_COUNT) if is_black(k))
    assert blacks == 36
    assert KEY_COUNT - blacks == WHITE_KEY_COUNT == 52
    assert WHITE_KEY_COUNT / KEY_COUNT == pytest.approx(0.59091, abs=5e-6)


def test_press_point_defaults():
    geom = KeyboardGeometry()
    x0, y0, z0 = key_press_point(0, geom)
    assert x0 == pytest.approx(0.01125, rel=1e-12)
    assert (y0, z0) == (0.0, 0.0)
    x87, _, _ = key_press_point(87, geom)
    assert x87 == pytest.approx(51.5 * 0.0225, rel=1e-12)
    # black key sits at the white-key boundary, set back and raised
    x1, y1, z1 = key_press_point(1, geom)
    assert x1 == pytest.approx(0.0225, rel=1e-12)
    assert y1 == geom.black_key_setback
    assert z1 == geom.black_key_height


def test_press_points_ordered_and_bounded():
    geom = KeyboardGeometry()
    points = [key_press_point(k, geom) for k in range(KEY_COUNT)]
    whites = [points[k][0] for k in range(KEY_COUNT) if not is_black(k)]
    assert all(a < b for a, b in zip(whites, whites[1:]))
    for x, _, _ in points:
        assert 0.0 <= x <= geom.width
    assert len(set(points)) == KEY_COUNT  # all press points distinct


def test_press_point_with_shifted_origin():
    geom = KeyboardGeometry(origin=(1.0, 2.0, 3.0))
    x, y, z = key_press_point(0, geom)
    assert (x, y, z) == pytest.approx((1.01125, 2.0, 3.0), rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        KeyboardGeometry(white_key_width=0.0)
    with pytest.raises(ConfigError):
        KeyboardGeometry(black_key_height=-0.01)


def test_geometry_from_config_text():
    values = parse_config("white_key_width = 0.023\norigin = 0.1 0 0\n")
    geom = KeyboardGeometry.from_mapping(values)
    assert geom.white_key_width == 0.023
    assert geom.origin == (0.1, 0.0, 0.0)
    with pytest.raises(ConfigError):
        KeyboardGeometry.from_mapping({"white_width": 0.02})


def test_key_state_bounds():
    state = KeyState()
    assert pressed_keys(state) == frozenset()
    depths = [0.0] * KEY_COUNT
    depths[39] = 1.0
    state = KeyState(depths=tuple(depths), sustain=0.5)
    assert pressed_keys(state) == {39}
    with pytest.raises(ValueError):
        KeyState(depths=tuple([1.5] + [0.0] * 87))
    with pytest.raises(ValueError):
        KeyState(sustain=2.0)
    with pytest.raises(ValueError):
        KeyState(depths=(0.0,) * 87)
