"""Evaluation: key-press precision/recall/F1, fingering agreement, corpus stats.

Precision measures avoiding inactive keys, recall measures pressing the
active ones; both are micro-averaged over all steps (summed intersection
counts, stable for silent steps).  Corpus statistics cover the pressed-key
histogram, the white-key share, per-piece active-key totals, and the
fraction of F1 scores above thresholds.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .keyboard import KEY_COUNT, is_black
from .midi import onset_mask
from .pig import spelled_to_midi

DEFAULT_PRESS_THRESHOLD = 0.5
F1_THRESHOLDS = (0.5, 0.75)


class NoOverlapError(ValueError):
    """Two fingering files share no matching notes."""


def key_counts(pressed, active) -> tuple:
    """``(hits, n_pressed, n_active)`` key-steps of (T, 88) pressed and goal keys; split traces' counts sum to these."""
    pressed = np.asarray(pressed, dtype=bool)
    active = np.asarray(active, dtype=bool)
    if pressed.shape != active.shape or pressed.ndim != 2 or pressed.shape[1] != KEY_COUNT:
        raise ValueError(f"pressed {pressed.shape} and active {active.shape} must both be (T, {KEY_COUNT})")
    if len(pressed) == 0:
        raise ValueError("trace must contain at least one step")
    return int(np.count_nonzero(pressed & active)), int(np.count_nonzero(pressed)), int(np.count_nonzero(active))


def precision_recall(pressed, active) -> tuple:
    """Micro-averaged precision and recall over all steps of a trace; see ``counts_precision_recall``."""
    return counts_precision_recall(*key_counts(pressed, active))


def counts_precision_recall(hits: int, n_pressed: int, n_active: int) -> tuple:
    """Precision and recall from ``key_counts``: 1 with nothing pressed, and 1 with nothing active, respectively."""
    return (hits / n_pressed if n_pressed else 1.0), (hits / n_active if n_active else 1.0)


def f1(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if precision < 0 or recall < 0:
        raise ValueError("precision and recall must be >= 0")
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)



def f1_rows(counts: dict) -> list:
    """``(song, precision, recall, f1)`` of each song by name, then of the whole corpus, named ``OVERALL``.

    ``counts`` maps each song to its ``key_counts`` summed over its traces;
    the OVERALL row sums them again.  No songs, or a song named OVERALL,
    whose row would read as the total, raise ValueError.
    """
    if not counts:
        raise ValueError("at least one song is required")
    if "OVERALL" in counts:
        raise ValueError("a song named OVERALL would read as the total row")
    rows = [(song, *counts[song]) for song in sorted(counts)]
    rows.append(("OVERALL", *map(sum, zip(*counts.values()))))
    rows = [(song, *counts_precision_recall(*found)) for song, *found in rows]
    return [(song, precision, recall, f1(precision, recall)) for song, precision, recall in rows]


# ---------------------------------------------------------------------------
# Fingering agreement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementResult:
    """Share of matched notes with identical finger labels."""

    agreement: float
    matched: int
    agreeing: int
    unmatched_ours: int
    unmatched_reference: int


_onset = attrgetter("onset")


def fingering_agreement(ours, reference, onset_tolerance: float = 0.05) -> AgreementResult:
    """Compare two PIG record lists note by note.

    Our notes are taken in onset order.  Each is matched to the reference
    note of the same MIDI pitch with the nearest onset, if that gap is at
    most ``onset_tolerance`` seconds; the earliest reference note in onset
    order wins a tie, and each reference note is used once.  A NaN tolerance
    matches nothing.  Unmatched notes are excluded from the ratio but
    counted.  Labels must be identical tokens to agree (substitutions
    included).  Raises NoOverlapError when no note matches.
    """
    remaining = {}  # pitch -> (onsets, records) of the unmatched reference notes, in onset order
    for rec in sorted(reference, key=_onset):
        onsets, records = remaining.setdefault(spelled_to_midi(rec.spelled_pitch), ([], []))
        onsets.append(rec.onset)
        records.append(rec)
    matched = 0
    agreeing = 0
    unmatched_ours = 0
    for rec in sorted(ours, key=_onset):
        onsets, records = remaining.get(spelled_to_midi(rec.spelled_pitch), ((), ()))
        if not onsets:
            unmatched_ours += 1
            continue
        # the nearest candidate is onsets[j - 1] or onsets[j]; gaps do not shrink away from them
        j = min(bisect_left(onsets, rec.onset), len(onsets) - 1)
        gap = abs(onsets[j] - rec.onset)
        # step left while the gap does not grow: the left neighbour wins a tie with
        # the right one, and rounding can give earlier notes on the left the same gap
        while j > 0 and abs(onsets[j - 1] - rec.onset) <= gap:
            j -= 1
            gap = abs(onsets[j] - rec.onset)
        if not gap <= onset_tolerance:
            unmatched_ours += 1
            continue
        del onsets[j]
        best = records.pop(j)
        matched += 1
        if rec.finger == best.finger:
            agreeing += 1
    unmatched_reference = sum(len(records) for _, records in remaining.values())
    if matched == 0:
        raise NoOverlapError("no notes matched between the two files")
    return AgreementResult(
        agreement=agreeing / matched,
        matched=matched,
        agreeing=agreeing,
        unmatched_ours=unmatched_ours,
        unmatched_reference=unmatched_reference,
    )


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------


@dataclass
class DatasetStats:
    """Aggregated corpus statistics."""

    key_histogram: list = field(default_factory=lambda: [0] * KEY_COUNT)
    active_key_counts: list = field(default_factory=list)
    f1_scores: list = field(default_factory=list)
    count_mode: str = "onsets"

    @property
    def total_onsets(self) -> int:
        return sum(self.key_histogram)

    @property
    def white_fraction(self) -> float:
        """Share of counted presses on white keys; 0 for an empty corpus."""
        total = self.total_onsets
        if total == 0:
            return 0.0
        white = sum(n for key, n in enumerate(self.key_histogram) if not is_black(key))
        return white / total

    def fraction_f1_above(self, threshold: float) -> float:
        """Share of F1 scores >= threshold, one score per episode as ``stats --f1-meta`` collects them; 0 with none."""
        if not self.f1_scores:
            return 0.0
        return sum(1 for s in self.f1_scores if s >= threshold) / len(self.f1_scores)


def dataset_stats(sources, f1_scores=None, count_mode: str = "onsets") -> DatasetStats:
    """Aggregate corpus statistics over goal sequences or episode records.

    Each source is a GoalSequence or any object whose ``active_key_steps()``
    returns its (T, 88) goal keys (the episode-record hook).
    ``count_mode="onsets"`` counts each key once per activation;
    ``"steps"`` counts per-step occupancy instead.  Optional F1 scores
    (``stats`` passes one per episode) feed the threshold fractions.
    """
    if count_mode not in ("onsets", "steps"):
        raise ValueError("count_mode must be 'onsets' or 'steps'")
    stats = DatasetStats(count_mode=count_mode)
    for source in sources:
        keys = source.active_key_steps() if hasattr(source, "active_key_steps") else source.keys
        counted = onset_mask(keys) if count_mode == "onsets" else keys
        per_key = counted.sum(axis=0).tolist()
        stats.key_histogram = [a + b for a, b in zip(stats.key_histogram, per_key)]
        stats.active_key_counts.append(sum(per_key))
    if not stats.active_key_counts:
        raise ValueError("at least one source is required")
    if f1_scores is not None:
        stats.f1_scores.extend(float(s) for s in f1_scores)
    return stats
