"""Outputs that do not depend on how the interpreter sums floats.

From Python 3.12 on, builtin ``sum()`` over floats is compensated
(Neumaier 1974; CPython gh-100425), so a sum of three or more floats can
round otherwise than on 3.10 and 3.11.  The package and its test
references sum floats left to right from 0.0 instead, which is what
``sum()`` did before 3.12.  These tests replace ``builtins.sum`` with 3.12's
algorithm and run the golden annotate runs and the reference comparisons
under it, so a float ``sum()`` left in their paths fails on any Python.
"""

from __future__ import annotations

import builtins
import math

import pytest

import test_annotate
import test_golden
import test_hand
from otpiano.hand import RIGHT, FingerId, HandConfig, HandState, init_hands, step_hand
from otpiano.keyboard import KeyboardGeometry

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()`` where ``start`` is the int 0 and every item an exact float; ``sum()`` elsewhere."""
    items = list(iterable)
    if type(start) is not int or start != 0 or not items or any(type(x) is not float for x in items):
        return _builtin_sum(items, start)
    total = 0 + items[0]  # the int start plus the first item, as 3.12 adds them before its float loop
    compensation = 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.fixture
def python312_sum(monkeypatch):
    """``builtins.sum`` replaced by ``compensated_sum`` for the test."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0 and sum([1e100, 1.0, -1e100]) == 1.0  # both 0.9999999999999999 and 0.0 before 3.12


def test_golden_annotate_runs_hold_under_python312_sum(python312_sum, tmp_path):
    for run, directory in test_golden.annotate_runs(tmp_path).items():
        assert test_golden.file_digests(directory) == test_golden.GOLDEN[run], run


REFERENCE_COMPARISONS = (
    test_annotate.test_rollout_matches_reference_loop,
    test_annotate.test_score_annotation_matches_per_step_reference,
    test_hand.test_step_kernel_matches_numpy_reference,
    test_hand.test_step_kernel_matches_numpy_reference_under_span_clamp,
)


def _cases(test) -> list:
    """The argument tuples ``test`` runs with: one per case of its ``parametrize`` mark, else one empty one."""
    for mark in getattr(test, "pytestmark", ()):
        if mark.name == "parametrize":
            names, values = mark.args[:2]
            return list(values) if "," in names else [(value,) for value in values]
    return [()]


@pytest.mark.parametrize("test", REFERENCE_COMPARISONS, ids=lambda test: test.__name__)
def test_reference_comparisons_hold_under_python312_sum(test, python312_sum):
    for args in _cases(test):
        test(*args)


def test_base_moves_to_the_left_to_right_mean_of_its_targets(python312_sum):
    # 1.0 + 1e-16 rounds back to 1.0, so summed left to right the mean is 0.2; 3.12's sum() keeps the four
    # lost halves and gives 0.2000000000000001.  The base starts 0.02 away, inside base_v_max*dt = 0.05.
    config, geom = HandConfig.default(), KeyboardGeometry()
    xs = [1.0, 1e-16, 1e-16, 1e-16, 1e-16]
    assert sum(xs) / len(xs) == 0.2000000000000001
    rest = init_hands(config, geom)
    state = HandState(rest.fingers, rest.fingertips, (rest.base[0], 0.22))
    targets = {FingerId(RIGHT, digit): (x, 0.0, 0.0) for digit, x in zip(range(1, 6), xs)}
    moved = step_hand(state, targets, 0.05, config, geom)
    assert moved.base[1].hex() == (0.2).hex()
    assert moved.base[0] == state.base[0]  # no targets: the left base stays put
