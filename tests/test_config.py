from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from otpiano.config import ConfigError, load_config, parse_config
from otpiano.hand import HandConfig
from otpiano.keyboard import KeyboardGeometry
from otpiano.reward import RewardParams


def test_parse_scalars_and_tuples():
    values = parse_config(
        """
        # a comment
        span = 0.2
        name = wide hand
        enabled = true
        trimmed = false
        origin = 0.1, 0.2, 0.3   # trailing comment
        """
    )
    assert values == {
        "span": 0.2,
        "name": "wide hand",
        "enabled": True,
        "trimmed": False,
        "origin": (0.1, 0.2, 0.3),
    }


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("just words\n")
    with pytest.raises(ConfigError):
        parse_config("= 1\n")
    with pytest.raises(ConfigError):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config("a =\n")


def test_load_config(tmp_path):
    path = tmp_path / "geom.cfg"
    path.write_text("white_key_width = 0.023\n", encoding="utf-8")
    assert load_config(path) == {"white_key_width": 0.023}


# every key each class knows plus one it does not, and values of each parsed kind
_CONFIG_KEYS = {
    KeyboardGeometry: ["white_key_width", "white_key_length", "black_key_setback", "black_key_height", "origin"],
    HandConfig: ["name", "span_max", "v_max", "base_v_max", "min_base_gap", "disabled", "rest_offset.R1",
                 "rest_offset.L5", "rest_offset.X9"],
    RewardParams: ["threshold", "scale", "alpha_collision", "alpha_energy", "tolerance_bounds",
                   "tolerance_margin", "value_at_margin"],
}
_CONFIG_VALUE = st.lists(
    st.sampled_from(["0", "1", "2.5", "5", "7", "-0.5", "0.02", "-460", "1e308", "nan", "inf", "-inf"]),
    min_size=1,
    max_size=4,
).map(" ".join) | st.sampled_from(["true", "false", "abc", "yes", "0.1,", "1 x"])


@pytest.mark.parametrize("cls", list(_CONFIG_KEYS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_from_mapping_raises_only_value_errors(cls, data):
    keys = data.draw(st.lists(st.sampled_from([*_CONFIG_KEYS[cls], "unknown"]), max_size=4, unique=True))
    text = "".join(f"{key} = {data.draw(_CONFIG_VALUE)}\n" for key in keys)
    try:
        built = cls.from_mapping(parse_config(text))
    except ValueError:
        return
    for value in built.snapshot().values():
        if not isinstance(value, str):
            assert all(math.isfinite(x) for x in (value if isinstance(value, tuple) else (value,)))



def _non_finite_settings():
    """One number of one field made NaN, inf or -inf, for every number of every settings class."""
    for cls in (KeyboardGeometry, HandConfig, RewardParams):
        for f in dataclasses.fields(cls):
            default = getattr(cls(), f.name)
            for bad in (math.nan, math.inf, -math.inf):
                if isinstance(default, float):
                    yield pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}={bad}")
                elif isinstance(default, tuple) and default:
                    for i in range(len(default)):
                        value = (*default[:i], bad, *default[i + 1:])
                        yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}[{i}]={bad}")
                elif isinstance(default, dict):  # rest offsets: each coordinate of each finger
                    for finger, offset in default.items():
                        for i in range(len(offset)):
                            value = {**default, finger: (*offset[:i], bad, *offset[i + 1:])}
                            yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}.{finger.label()}[{i}]={bad}")


@pytest.mark.parametrize("cls, field, value", _non_finite_settings())
def test_constructors_reject_non_finite_numbers(cls, field, value):
    with pytest.raises(ValueError, match="must be finite"):
        cls(**{field: value})
