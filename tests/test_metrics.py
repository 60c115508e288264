from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agreement_reference
from conftest import key_rows
from otpiano.metrics import (
    AgreementResult,
    DatasetStats,
    NoOverlapError,
    counts_precision_recall,
    dataset_stats,
    f1,
    fingering_agreement,
    key_counts,
    precision_recall,
)
from otpiano.midi import GoalSequence
from otpiano.pig import PigRecord


def _trace(step_pairs):
    """(pressed, active) key rows of a rollout given as (pressed set, active set) per step."""
    return key_rows([p for p, _ in step_pairs]), key_rows([a for _, a in step_pairs])


# ---------------------------------------------------------------------------
# precision / recall / F1
# ---------------------------------------------------------------------------


def test_perfect_trace():
    trace = _trace([({39}, {39}), ({40, 41}, {40, 41})])
    assert precision_recall(*trace) == (1.0, 1.0)


def test_half_recall():
    trace = _trace([({39}, {39, 41})])
    assert precision_recall(*trace) == (1.0, 0.5)


def test_nothing_pressed_convention():
    trace = _trace([(set(), {39, 41})])
    assert precision_recall(*trace) == (1.0, 0.0)


def test_nothing_active_convention():
    trace = _trace([({39}, set())])
    assert precision_recall(*trace) == (0.0, 1.0)


def test_precision_recall_rejects_bad_shapes():
    with pytest.raises(ValueError):
        precision_recall(np.zeros((3, 88), dtype=bool), np.zeros((2, 88), dtype=bool))
    with pytest.raises(ValueError):
        precision_recall(np.zeros((3, 89), dtype=bool), np.zeros((3, 89), dtype=bool))
    with pytest.raises(ValueError):
        precision_recall(np.zeros((0, 88), dtype=bool), np.zeros((0, 88), dtype=bool))


def test_step_order_invariance():
    steps = [({39}, {39}), (set(), {40}), ({41, 42}, {41})]
    assert precision_recall(*_trace(steps)) == precision_recall(*_trace(list(reversed(steps))))


def test_micro_averaging_pools_counts():
    # 3 hits of 4 pressed and of 6 active, regardless of step split
    trace = _trace([({1, 2}, {1, 2, 3}), ({3, 9}, {4, 5, 3})])
    precision, recall = precision_recall(*trace)
    assert precision == pytest.approx(3 / 4)
    assert recall == pytest.approx(3 / 6)


_key_sets = st.sets(st.integers(0, 87), max_size=6)


@given(st.lists(st.tuples(_key_sets, _key_sets), min_size=2, max_size=12), st.integers(1, 11))
def test_key_counts_of_split_traces_sum_to_the_counts_of_the_joined_trace(steps, cut):
    pressed, active = _trace(steps)
    cut = cut % (len(steps) - 1) + 1
    parts = key_counts(pressed[:cut], active[:cut]), key_counts(pressed[cut:], active[cut:])
    summed = tuple(map(sum, zip(*parts)))
    assert summed == key_counts(pressed, active)
    assert counts_precision_recall(*summed) == precision_recall(pressed, active)


def test_key_counts_are_hits_pressed_and_active():
    assert key_counts(*_trace([({1, 2}, {1, 2, 3}), ({3, 9}, {4, 5, 3})])) == (3, 4, 6)
    assert counts_precision_recall(0, 0, 0) == (1.0, 1.0)


def test_f1_identities():
    assert f1(1.0, 1.0) == 1.0
    assert f1(1.0, 0.5) == pytest.approx(2 / 3)
    assert f1(0.0, 0.0) == 0.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_f1_of_equal_inputs(x):
    assert f1(x, x) == pytest.approx(x)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_f1_symmetric_and_bounded(p, r):
    assert f1(p, r) == f1(r, p)
    assert 0.0 <= f1(p, r) <= 1.0
    if p > 0 and r > 0:
        assert f1(p, r) <= 2 * min(p, r) + 1e-12
        assert f1(p, r) >= min(p, r) - 1e-12


# ---------------------------------------------------------------------------
# fingering agreement
# ---------------------------------------------------------------------------


def _pig(note_id, onset, pitch_name, finger, channel=0):
    return PigRecord(note_id, onset, onset + 0.2, pitch_name, 80, 0, channel, finger)


def test_agreement_identical_files():
    ours = [_pig(0, 0.0, "C4", "1"), _pig(1, 0.5, "E4", "3")]
    result = fingering_agreement(ours, list(ours))
    assert result.agreement == 1.0
    assert result.matched == 2
    assert result.unmatched_ours == result.unmatched_reference == 0


def test_agreement_all_fingers_differ():
    ours = [_pig(0, 0.0, "C4", "1")]
    theirs = [_pig(0, 0.0, "C4", "2")]
    assert fingering_agreement(ours, theirs).agreement == 0.0


def test_agreement_three_of_four():
    ours = [_pig(i, 0.1 * i, "C4", "1") for i in range(4)]
    theirs = [_pig(i, 0.1 * i, "C4", "1" if i < 3 else "4") for i in range(4)]
    result = fingering_agreement(ours, theirs, onset_tolerance=0.01)
    assert result.agreement == pytest.approx(0.75)


def test_agreement_unmatched_counted_separately():
    ours = [_pig(0, 0.0, "C4", "1"), _pig(1, 5.0, "D4", "2")]
    theirs = [_pig(0, 0.0, "C4", "1"), _pig(1, 9.0, "E4", "3")]
    result = fingering_agreement(ours, theirs)
    assert result.matched == 1
    assert result.agreement == 1.0
    assert result.unmatched_ours == 1
    assert result.unmatched_reference == 1


def test_agreement_onset_tolerance():
    ours = [_pig(0, 0.0, "C4", "1")]
    theirs = [_pig(0, 0.04, "C4", "1")]
    assert fingering_agreement(ours, theirs, onset_tolerance=0.05).matched == 1
    with pytest.raises(NoOverlapError):
        fingering_agreement(ours, theirs, onset_tolerance=0.01)


def test_agreement_no_overlap():
    with pytest.raises(NoOverlapError):
        fingering_agreement([_pig(0, 0.0, "C4", "1")], [_pig(0, 0.0, "G7", "2")])


def test_agreement_tie_goes_to_the_earlier_note():
    ours = [_pig(0, 0.25, "C4", "1")]
    theirs = [_pig(1, 0.5, "C4", "2"), _pig(0, 0.0, "C4", "1")]
    result = fingering_agreement(ours, theirs, onset_tolerance=0.3)
    assert (result.agreeing, result.unmatched_reference) == (1, 1)


def test_agreement_tie_after_rounding_goes_to_the_earliest_note():
    # 1.0 minus each of these onsets rounds to the same gap, so all three notes tie
    ours = [_pig(0, 1.0, "C4", "1")]
    theirs = [_pig(2, 2e-17, "C4", "2"), _pig(1, 1e-17, "C4", "2"), _pig(0, 0.0, "C4", "1")]
    assert fingering_agreement(ours, theirs, onset_tolerance=1.0).agreeing == 1


def test_agreement_nan_tolerance_matches_nothing():
    ours = [_pig(0, 0.0, "C4", "1")]
    with pytest.raises(NoOverlapError):
        fingering_agreement(ours, list(ours), onset_tolerance=math.nan)


def _nudged(onset, ulps):
    for _ in range(abs(ulps)):
        onset = math.nextafter(onset, math.copysign(math.inf, ulps))
    return onset


@st.composite
def _agreement_inputs(draw):
    # One grid per instance makes equidistant pairs common.  A note nudged by an
    # ulp or by 1e-17 from its neighbour can have the same gap to a far note after
    # rounding.  Both sides draw (onset, pitch) from one pool, so equal onsets
    # and duplicate records are common.
    grid = draw(st.sampled_from([0.1, 0.05, 0.3, 1 / 3]))
    notes = st.tuples(
        st.integers(0, 4),
        st.sampled_from([0.0, 0.02, -0.02]),
        st.sampled_from([0.0, 1e-17, -1e-17]),
        st.integers(-2, 2),
        st.sampled_from(["C#4", "Db4", "C4"]),
    )
    pool = [
        (_nudged(k * grid + jitter + nudge, ulps), pitch)
        for k, jitter, nudge, ulps, pitch in draw(st.lists(notes, min_size=1, max_size=25))
    ]
    side = st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(["1", "2"])), min_size=1, max_size=25)
    ours = [_pig(0, onset, pitch, finger) for (onset, pitch), finger in draw(side)]
    theirs = [_pig(0, onset, pitch, finger) for (onset, pitch), finger in draw(side)]
    return ours, theirs, draw(st.sampled_from([math.inf, 0.1, 0.05, 0.02, 1e-9, 0.0, math.nan]))


def _agreement_or_none(match, ours, theirs, tolerance):
    try:
        return match(ours, theirs, onset_tolerance=tolerance)
    except NoOverlapError:
        return None


@settings(max_examples=300, deadline=None)
@given(_agreement_inputs())
def test_agreement_matches_linear_scan(inputs):
    assert _agreement_or_none(fingering_agreement, *inputs) == _agreement_or_none(
        agreement_reference.fingering_agreement, *inputs
    )


# ---------------------------------------------------------------------------
# dataset statistics
# ---------------------------------------------------------------------------


def _goal_sequence(active_sets):
    return GoalSequence(key_rows(active_sets), dt=0.05)


def test_single_onset_histogram():
    stats = dataset_stats([_goal_sequence([{39}, {39}])])
    assert stats.key_histogram[39] == 1  # sustained key counts once
    assert stats.total_onsets == 1
    assert stats.white_fraction == 1.0
    assert stats.active_key_counts == [1]


def test_uniform_corpus_white_fraction():
    stats = dataset_stats([_goal_sequence([{k} for k in range(88)])])
    assert stats.total_onsets == 88
    assert stats.white_fraction == pytest.approx(52 / 88)


def test_step_occupancy_mode():
    stats = dataset_stats([_goal_sequence([{39}, {39}, set(), {39}])], count_mode="steps")
    assert stats.key_histogram[39] == 3
    with pytest.raises(ValueError):
        dataset_stats([_goal_sequence([{39}])], count_mode="notes")


def test_f1_threshold_fractions():
    stats = dataset_stats([_goal_sequence([{39}])], f1_scores=[0.8, 0.6, 0.4])
    assert stats.fraction_f1_above(0.75) == pytest.approx(1 / 3)
    assert stats.fraction_f1_above(0.5) == pytest.approx(2 / 3)


def test_stats_require_a_source():
    with pytest.raises(ValueError):
        dataset_stats([])


def test_histogram_total_equals_onsets():
    sources = [_goal_sequence([{k % 88, (3 * k) % 88} for k in range(0, 40, 2)]) for _ in range(3)]
    stats = dataset_stats(sources)
    assert stats.total_onsets == sum(stats.key_histogram)
    assert stats.total_onsets == sum(stats.active_key_counts)
