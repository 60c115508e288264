from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import key_rows
from numpy_reference import pressed_keys
from otpiano import keyboard
from otpiano.annotate import annotate_song
from otpiano.assign import build_cost_matrix
from otpiano.cli import main
from otpiano.config import ConfigError, parse_config
from otpiano.hand import HandConfig, HandMotion, init_hands
from otpiano.keyboard import (
    COORDINATE_LIMIT,
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
    press_point_table,
)
from otpiano.midi import GoalSequence


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


def test_press_points_are_computed_once_when_the_geometry_is_built(monkeypatch, capsys):
    formula, calls = keyboard._press_point, []

    def counted(key, geom):
        calls.append(key)
        return formula(key, geom)

    monkeypatch.setattr(keyboard, "_press_point", counted)
    geom, hands = KeyboardGeometry(), HandConfig.default()
    assert calls == list(range(KEY_COUNT))
    assert geom.press_points == tuple(formula(key, geom) for key in range(KEY_COUNT))
    annotate_song(GoalSequence(key_rows([{39, 43}, {39, 43}, {40}, set(), {87}]), dt=0.05), hands, geom)
    state = init_hands(hands, geom)
    build_cost_matrix(state.fingertips, state.fingers, {1, 39, 87}, geom)
    HandMotion(hands, geom, 0.05, state).distance_bound()
    assert key_press_point(87, geom) is geom.press_points[87]
    assert press_point_table(geom).tolist() == [list(point) for point in geom.press_points]
    assert len(calls) == KEY_COUNT
    assert main(["debug-assign", "--pitches", "60,64,67"]) == 0  # it builds its own geometry, and only that
    assert len(calls) == 2 * KEY_COUNT and "total cost:" in capsys.readouterr().out


def test_press_point_table_is_no_field_of_the_geometry():
    geom = KeyboardGeometry()
    assert geom.snapshot() == {  # every dataclass field, and only those
        "geometry.white_key_width": 0.0225,
        "geometry.white_key_length": 0.15,
        "geometry.black_key_setback": 0.09,
        "geometry.black_key_height": 0.01,
        "geometry.origin": (0.0, 0.0, 0.0),
    }
    assert repr(geom) == (
        "KeyboardGeometry(white_key_width=0.0225, white_key_length=0.15, black_key_setback=0.09, "
        "black_key_height=0.01, origin=(0.0, 0.0, 0.0))"
    )
    assert geom == KeyboardGeometry() and hash(geom) == hash(KeyboardGeometry())
    assert geom != KeyboardGeometry(origin=(0.1, 0.0, 0.0))
    assert {type(x) for point in KeyboardGeometry(origin=(1, 2, 3)).press_points for x in point} == {float}
    copy = pickle.loads(pickle.dumps(geom))  # as --jobs workers receive it
    assert copy == geom and copy.press_points == geom.press_points
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.press_points = ()
    with pytest.raises(ConfigError, match="unknown KeyboardGeometry key 'press_points'"):
        KeyboardGeometry.from_mapping({"press_points": 0.0})


def test_geometry_validation():
    with pytest.raises(ConfigError):
        KeyboardGeometry(white_key_width=0.0)
    with pytest.raises(ConfigError):
        KeyboardGeometry(black_key_height=-0.01)


@pytest.mark.parametrize(
    "values,message",
    [
        # press points past float32's range: the rollout hangs or overflows, or the containers hold inf
        (dict(white_key_width=1e307), "must lie within"),
        (dict(white_key_width=1e300), "must lie within"),
        (dict(white_key_width=1e160), "must lie within"),
        (dict(white_key_width=1e150), "must lie within"),
        (dict(origin=(1e308, 0.0, 0.0)), "must lie within"),
        (dict(origin=(0.0, -1e39, 0.0)), "must lie within"),
        (dict(black_key_setback=1e39), "must lie within"),
        # the key widths vanish beside the origin, so the white keys' press points coincide
        (dict(origin=(1e16, 0.0, 0.0)), "share one press point"),
    ],
    ids=str,
)
def test_geometry_refuses_press_points_that_overflow_or_coincide(values, message):
    with pytest.raises(ConfigError, match=message):
        KeyboardGeometry(**values)


def test_geometry_accepts_press_points_up_to_the_coordinate_limit():
    geom = KeyboardGeometry(origin=(0.0, COORDINATE_LIMIT, -COORDINATE_LIMIT), black_key_setback=1e-3)
    assert key_press_point(1, geom)[1:] == (COORDINATE_LIMIT, -COORDINATE_LIMIT)  # the set-back rounds away
    # far from 0 the key widths round, but while no two press points coincide the geometry stands
    assert len({key_press_point(key, KeyboardGeometry(origin=(1e14, 0.0, 0.0))) for key in range(88)}) == 88


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
