"""The step-by-step text writers, kept as independent references.

``otpiano.midi.goal_to_text``, ``otpiano.annotate.write_annotation_text``
and ``otpiano.store.score_csv`` format each distinct step row once and
join every step's index to its row's text, and ``otpiano.store.reward_rows``
formats each distinct reward once; these are the loops they replaced,
which format every step.  Both must return equal text on every input.
"""

from __future__ import annotations

import numpy as np

from otpiano.annotate import _LABELS, ANNOTATION_HEADER, DROPPED, NO_FINGER, FingeringAnnotation
from otpiano.midi import GoalSequence
from otpiano.store import CSV_COLUMNS, EpisodeRecord, csv_cell


def goal_to_text(seq: GoalSequence) -> str:
    keys = [str(k) for k in np.nonzero(seq.keys)[1].tolist()]
    ends = np.cumsum(seq.keys.sum(axis=1)).tolist()
    lines = [f"# dt = {seq.dt!r}"]
    start = 0
    for t, (sustain, end) in enumerate(zip(seq.sustain.tolist(), ends)):
        lines.append(f"{t}\t{sustain}\t{','.join(keys[start:end])}")
        start = end
    return "\n".join(lines) + "\n"


def write_annotation_text(annotation: FingeringAnnotation, snapshot: dict) -> str:
    lines = [ANNOTATION_HEADER, f"# embodiment = {annotation.embodiment}"]
    for key in sorted(snapshot):
        lines.append(f"# {key} = {snapshot[key]}")
    steps, keys = np.nonzero(annotation.finger != NO_FINGER)
    slots = annotation.finger[steps, keys]
    order = np.lexsort((keys, slots == DROPPED, steps))
    cells = [f"{key}:{_LABELS[slot]}" for key, slot in zip(keys[order].tolist(), slots[order].tolist())]
    ends = np.cumsum(np.bincount(steps, minlength=len(annotation))).tolist()
    start = 0
    for t, (distance, end) in enumerate(zip(annotation.distance.tolist(), ends)):
        lines.append(f"{t}\t{distance!r}\t{';'.join(cells[start:end])}")
        start = end
    return "\n".join(lines) + "\n"


def score_csv(breakdown) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for t, row in enumerate(np.column_stack(breakdown.as_row()).tolist()):
        lines.append(f"{t},{','.join(map(repr, row))}")
    return "\n".join(lines) + "\n"


def reward_rows(rec: EpisodeRecord) -> list:
    song, chunk, f1_value = (csv_cell(str(rec.meta.get(name, ""))) for name in ("song", "chunk", "f1"))
    return [f"{song},{chunk},{t},{reward!r},{f1_value}" for t, reward in enumerate(rec.rewards)]
