"""Plain-text ``key = value`` config files shared by geometry, reward and hand setup.

One assignment per line, ``#`` starts a comment, values are SI units.
A value is parsed as a bool (``true``/``false``), a float, a tuple of
floats (whitespace or comma separated), or kept as a bare string.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Iterable
from pathlib import Path


class ConfigError(ValueError):
    """Raised for unparseable config text or unknown keys."""


def _parse_value(raw: str):
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ConfigError("empty value")
    try:
        floats = [float(tok) for tok in tokens]
    except ValueError:
        return raw
    if len(floats) == 1:
        return floats[0]
    return tuple(floats)


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines into a dict.

    Raises ConfigError on lines that are neither blank, comment, nor
    assignment, and on duplicate keys.
    """
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(raw.strip())
    return out


def config_number(key: str, value, error: type = ConfigError) -> float:
    """A parsed value as a finite float; raises ``error`` for anything else.

    Booleans, bare strings, tuples, NaN and infinities are all rejected.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise error(f"{key} must be a finite number, got {value!r}")
    return float(value)


def require_finite(settings, error: type = ConfigError) -> None:
    """Raise ``error`` unless every number a settings dataclass holds is finite.

    A field's numbers are its value, the items of a sequence such as a
    tuple, or the items of a dict's values; text is not a number.
    """
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        for part in value.values() if isinstance(value, dict) else (value,):
            for x in part if isinstance(part, Iterable) and not isinstance(part, str) else (part,):
                if isinstance(x, numbers.Real) and not math.isfinite(x):
                    raise error(f"{f.name} must be finite, got {x!r}")


def config_numbers(key: str, value, count: int, error: type = ConfigError) -> tuple:
    """A parsed value as a tuple of ``count`` finite floats; raises ``error`` otherwise."""
    values = value if isinstance(value, tuple) else (value,)
    if len(values) != count:
        raise error(f"{key} needs {count} numbers, got {value!r}")
    return tuple(config_number(key, x, error) for x in values)


def settings_from_mapping(cls: type, values: dict, error: type = ConfigError):
    """Build the settings dataclass ``cls`` from a parsed config dict; raises ``error`` otherwise.

    Every key must name a field.  A field whose default is a tuple takes
    that many finite numbers; any other field takes one finite number.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in values.items():
        if key not in defaults:
            raise error(f"unknown {cls.__name__} key {key!r}")
        if isinstance(defaults[key], tuple):
            kwargs[key] = config_numbers(key, value, len(defaults[key]), error)
        else:
            kwargs[key] = config_number(key, value, error)
    return cls(**kwargs)


def settings_snapshot(settings, prefix: str) -> dict:
    """Every field of a settings dataclass as ``{"<prefix>.<field>": value}``, in declaration order."""
    return {f"{prefix}.{f.name}": getattr(settings, f.name) for f in dataclasses.fields(settings)}


def load_config(path) -> dict:
    """Read and parse a config file."""
    return parse_config(Path(path).read_text(encoding="utf-8"))

