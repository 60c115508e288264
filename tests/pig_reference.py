"""The per-note record types and the PIG parse loop, kept as independent references.

``otpiano.pig.PigRecord`` and ``otpiano.midi.NoteEvent`` check their fields
in one hand-written constructor and store them in one dict update; these
are the frozen dataclasses they replaced, built by the generated
``__init__`` and checked in ``__post_init__``.  ``parse_pig`` is the loop
``otpiano.pig.parse_pig`` replaced, building these records.  Both sides must
accept the same inputs, build records with equal fields, ``hash`` and
``repr``, and reject the same inputs with the same error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from otpiano.pig import MalformedPigLineError, _check_finger, spelled_to_midi


@dataclass(frozen=True)
class PigRecord:
    note_id: int
    onset: float
    offset: float
    spelled_pitch: str
    onset_velocity: int
    offset_velocity: int
    channel: int
    finger: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.onset) and math.isfinite(self.offset)):
            raise ValueError(f"onset and offset must be finite, got {self.onset!r} and {self.offset!r}")
        if self.offset < self.onset:
            raise ValueError("offset before onset")
        if self.channel not in (0, 1):
            raise ValueError(f"channel must be 0 (right hand) or 1 (left hand), got {self.channel!r}")
        _check_finger(self.finger)
        if not 0 <= spelled_to_midi(self.spelled_pitch) <= 127:
            raise ValueError(f"spelled pitch {self.spelled_pitch!r} outside MIDI 0..127")


@dataclass(frozen=True)
class NoteEvent:
    pitch: int
    onset: float
    offset: float
    velocity: int
    channel: int

    def __post_init__(self) -> None:
        if self.offset <= self.onset:
            raise ValueError(f"offset {self.offset} must exceed onset {self.onset}")


def parse_pig(text: str) -> list[PigRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        fields = stripped.split("\t")
        if len(fields) != 8:
            raise MalformedPigLineError(lineno, f"expected 8 tab-separated fields, got {len(fields)}")
        if "_" in stripped and "_" in stripped.rpartition("\t")[0]:
            bad = next(f for f in fields if "_" in f)
            raise MalformedPigLineError(lineno, f"underscore outside the finger field: {bad!r}")
        note_id, onset, offset, pitch, onset_velocity, offset_velocity, channel, finger = fields
        try:
            records.append(
                PigRecord(
                    int(note_id),
                    float(onset),
                    float(offset),
                    pitch,
                    int(onset_velocity),
                    int(offset_velocity),
                    int(channel),
                    finger,
                )
            )
        except ValueError as exc:
            raise MalformedPigLineError(lineno, str(exc)) from exc
    return records
