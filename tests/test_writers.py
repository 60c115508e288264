"""The per-step text writers against the step-by-step loops they replaced."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import writer_reference as reference
from conftest import key_rows
from otpiano.annotate import DROPPED, NO_FINGER, FingeringAnnotation, write_annotation_text
from otpiano.hand import ALL_FINGERS
from otpiano.midi import GoalSequence, goal_to_text, step_runs
from otpiano.reward import RewardBreakdown
from otpiano.store import EpisodeRecord, reward_rows, score_csv

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


# float32 bit patterns: ±0, ±inf, NaNs with payloads and either sign, subnormals, and any other
_REWARD_BITS = st.sampled_from(
    [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7FC00001, 0xFFC00000, 0x7F800001, 0x00000001, 0x807FFFFF]
) | st.integers(0, 2**32 - 1)


@settings(max_examples=80, deadline=None)
@given(
    palette=st.lists(_REWARD_BITS, min_size=1, max_size=4),
    runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 200)), min_size=1, max_size=8),
    song=st.text(st.sampled_from('ab ,"\r\n'), max_size=6),
    chunk=st.integers(0, 20),
    f1=st.floats(0.0, 1.0),
)
@example(palette=[0x00000000, 0x80000000], runs=[(0, 2), (1, 2)], song="a,b", chunk=0, f1=0.5)
def test_reward_rows_match_reference(palette, runs, song, chunk, f1):
    rewards = np.array(_expand(palette, runs), dtype=np.uint32).view(np.float32)
    T = len(rewards)
    rec = EpisodeRecord(np.zeros((T, 1)), np.zeros((T, 1)), rewards, meta={"song": song, "chunk": chunk, "f1": f1})
    assert reward_rows(rec) == reference.reward_rows(rec)


def test_step_runs_compare_bits():
    distance = np.array([0.0, 0.0, -0.0, -0.0, np.nan, np.nan, 0.0])
    finger = np.zeros((7, 88), dtype=np.int8)
    finger[6, 3] = 1
    starts, run = step_runs(finger, distance)
    assert starts.tolist() == [0, 2, 4, 6]
    assert run.tolist() == [0, 0, 1, 1, 2, 2, 3]
