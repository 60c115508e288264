"""The per-step text writers against the step-by-step loops they replaced."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import writer_reference as reference
from conftest import key_rows
from otpiano.annotate import DROPPED, NO_FINGER, FingeringAnnotation, write_annotation_text
from otpiano.hand import ALL_FINGERS
from otpiano.midi import GoalSequence, goal_to_text, step_runs
from otpiano.reward import RewardBreakdown
from otpiano.store import score_csv

# a few distinct rows repeated in runs, so that runs and repeats far apart both occur
_RUNS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=12)


def _expand(palette, runs):
    return [palette[index % len(palette)] for index, length in runs for _ in range(length)]


@settings(max_examples=60, deadline=None)
@given(
    palette=st.lists(st.tuples(st.sets(st.integers(0, 87), max_size=8), st.sampled_from([0, 1])), min_size=1, max_size=4),
    runs=_RUNS,
    dt=st.floats(1e-4, 1.0),
)
def test_goal_text_matches_reference(palette, runs, dt):
    steps = _expand(palette, runs)
    seq = GoalSequence(key_rows([keys for keys, _ in steps]), sustain=[sustain for _, sustain in steps], dt=dt)
    assert goal_to_text(seq) == reference.goal_to_text(seq)


_SLOT = st.sampled_from([NO_FINGER] * 6 + [DROPPED] + list(range(len(ALL_FINGERS))))
# distances that differ only in the sign of zero, or in the last bit
_DISTANCE = st.sampled_from([0.0, -0.0, 0.1, np.nextafter(0.1, 1.0), 1e-300]) | st.floats(0.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    palette=st.lists(st.tuples(st.lists(_SLOT, min_size=88, max_size=88), _DISTANCE), min_size=1, max_size=4),
    runs=_RUNS,
    snapshot=st.dictionaries(st.text("abc.", min_size=1, max_size=4), st.integers() | st.floats() | st.booleans()),
)
def test_annotation_text_matches_reference(palette, runs, snapshot):
    steps = _expand(palette, runs)
    annotation = FingeringAnnotation(
        finger=np.array([row for row, _ in steps], dtype=np.int8).reshape(len(steps), 88),
        distance=np.array([distance for _, distance in steps], dtype=np.float64),
        collision=np.zeros(len(steps), dtype=bool),
        dt=0.05,
        embodiment="ten-finger",
    )
    assert write_annotation_text(annotation, snapshot) == reference.write_annotation_text(annotation, snapshot)


_DTYPES = [np.float64, np.float32, np.float16, np.int64, np.int8, np.bool_]
_VALUE = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1, np.nextafter(0.1, 1.0), float("nan"), float("inf")]) | st.floats(-4.0, 4.0)


@settings(max_examples=80, deadline=None)
@given(
    palette=st.lists(st.lists(_VALUE, min_size=6, max_size=6), min_size=1, max_size=4),
    runs=_RUNS,
    dtypes=st.lists(st.sampled_from(_DTYPES), min_size=6, max_size=6),
)
def test_score_csv_matches_reference_on_any_column_dtype(palette, runs, dtypes):
    steps = _expand(palette, runs)
    with np.errstate(invalid="ignore"):  # nan and inf cast to an integer column
        columns = [np.array([row[j] for row in steps], dtype=np.float64).astype(dtype) for j, dtype in enumerate(dtypes)]
    breakdown = RewardBreakdown(*columns)
    assert score_csv(breakdown) == reference.score_csv(breakdown)


@given(row=st.lists(_VALUE | st.integers(-3, 3) | st.booleans(), min_size=6, max_size=6))
def test_score_csv_matches_reference_on_one_step(row):
    breakdown = RewardBreakdown(*row)
    assert score_csv(breakdown) == reference.score_csv(breakdown)


def test_step_runs_compare_bits():
    distance = np.array([0.0, 0.0, -0.0, -0.0, np.nan, np.nan, 0.0])
    finger = np.zeros((7, 88), dtype=np.int8)
    finger[6, 3] = 1
    starts, run = step_runs(finger, distance)
    assert starts.tolist() == [0, 2, 4, 6]
    assert run.tolist() == [0, 0, 1, 1, 2, 2, 3]
