"""The line-by-line goal text parser, kept as an independent reference.

``otpiano.midi.goal_from_text`` parses the whole text with one pattern;
this is the loop it replaced.  Both must return equal arrays, or raise the
same error class, on every text outside the forms the pattern rejects on
purpose (see ``newly_rejected`` in tests/test_midi.py).
"""

from __future__ import annotations

import math

import numpy as np

from otpiano.keyboard import KEY_COUNT, OutOfRangeError
from otpiano.midi import DEFAULT_DT, GoalSequence


def goal_from_text(text: str) -> GoalSequence:
    dt = DEFAULT_DT
    steps, keys, sustain = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            body = line.lstrip().lstrip("#").strip()
            if body.startswith("dt"):
                name, sep, value = body.partition("=")
                if name.strip() != "dt" or not sep:
                    raise ValueError(f"line {lineno}: expected '# dt = <seconds>'")
                dt = float(value)
                if not 0.0 < dt < math.inf:
                    raise ValueError(f"line {lineno}: dt must be positive and finite")
            continue
        # the keys field is empty on silent steps, so keep trailing tabs
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 tab-separated fields")
        index, level, keys_field = parts
        if int(index) != len(sustain):
            raise ValueError(f"line {lineno}: step index {index} out of order")
        if int(level) not in (0, 1):
            raise ValueError(f"line {lineno}: sustain must be 0 or 1, got {level}")
        for k in keys_field.split(","):
            if k != "":
                key = int(k)
                if not 0 <= key < KEY_COUNT:
                    raise OutOfRangeError(f"line {lineno}: key {key} outside [0, {KEY_COUNT})")
                steps.append(len(sustain))
                keys.append(key)
        sustain.append(int(level))
    grid = np.zeros((len(sustain), KEY_COUNT), dtype=bool)
    grid[steps, keys] = True
    return GoalSequence(grid, sustain=sustain, dt=dt)
