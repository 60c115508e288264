"""PIG v1 fingering files: one tab-separated record per note.

Field order: note id, onset, offset, spelled pitch, onset velocity,
offset velocity, channel (0 = right hand, 1 = left hand), finger.
Finger labels are signed digits 1..5 (negative = left hand); a
substitution like ``1_2`` is kept verbatim; no other field holds ``_``.
Lines starting with ``//`` are headers and are skipped on parse.

``PigRecord`` is a frozen dataclass with one hand-written constructor that
checks every field and then stores them all in one dict update; the parser
builds one per note line.  ``load_pig`` skips a leading UTF-8 byte-order
mark.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

PIG_HEADER = "//Version: PianoFingering_v170101"

_NOTE_LETTER_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_SEMITONE_SHARP_NAME = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]
_PITCH_RE = re.compile(r"^([A-G])([#b]*)(-?\d+)$")
_FINGER_TOKEN_RE = re.compile(r"^-?[1-5]$")
# Each distinct pitch spelling and finger token is checked once.  The caches
# are bounded because file tokens are untrusted: ``[#b]*`` and ``-?\d+`` admit
# unboundedly many valid spellings.  A token that raises is not cached.
_TOKEN_CACHE_SIZE = 1024


class MalformedPigLineError(ValueError):
    """A PIG line that does not parse; carries the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def spelled_to_midi(name: str) -> int:
    """Convert a spelled pitch like ``C4`` or ``Bb3`` to a MIDI number (C4 = 60)."""
    match = _PITCH_RE.match(name)
    if not match:
        raise ValueError(f"bad spelled pitch {name!r}")
    letter, accidentals, octave = match.groups()
    semitone = _NOTE_LETTER_SEMITONE[letter]
    for acc in accidentals:
        semitone += 1 if acc == "#" else -1
    return 12 * (int(octave) + 1) + semitone


def midi_to_spelled(pitch: int) -> str:
    """Spell a MIDI number with sharps (60 -> ``C4``)."""
    if not 0 <= pitch <= 127:
        raise ValueError(f"MIDI pitch {pitch} outside [0, 127]")
    octave, semitone = divmod(pitch, 12)
    return f"{_SEMITONE_SHARP_NAME[semitone]}{octave - 1}"


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _check_finger(token: str) -> None:
    parts = token.split("_")
    if not 1 <= len(parts) <= 2 or not all(_FINGER_TOKEN_RE.match(p) for p in parts):
        raise ValueError(f"bad finger label {token!r}")


@dataclass(frozen=True, init=False)
class PigRecord:
    """One PIG note record; ``finger`` keeps the file token verbatim.

    Construction checks the record: onset and offset are finite with the
    offset not before the onset, the channel is 0 or 1, the finger label is
    one or two signed digits 1..5 joined by ``_``, and the spelled pitch
    parses to a MIDI pitch 0..127.  A bad field raises ValueError.
    """

    note_id: int
    onset: float
    offset: float
    spelled_pitch: str
    onset_velocity: int
    offset_velocity: int
    channel: int
    finger: str

    def __init__(
        self,
        note_id: int,
        onset: float,
        offset: float,
        spelled_pitch: str,
        onset_velocity: int,
        offset_velocity: int,
        channel: int,
        finger: str,
    ) -> None:
        if not (math.isfinite(onset) and math.isfinite(offset)):
            raise ValueError(f"onset and offset must be finite, got {onset!r} and {offset!r}")
        if offset < onset:
            raise ValueError("offset before onset")
        if channel not in (0, 1):
            raise ValueError(f"channel must be 0 (right hand) or 1 (left hand), got {channel!r}")
        _check_finger(finger)
        if not 0 <= spelled_to_midi(spelled_pitch) <= 127:
            raise ValueError(f"spelled pitch {spelled_pitch!r} outside MIDI 0..127")
        # the frozen __setattr__ refuses assignment, so the checked fields go into the instance dict at once
        self.__dict__.update(
            note_id=note_id,
            onset=onset,
            offset=offset,
            spelled_pitch=spelled_pitch,
            onset_velocity=onset_velocity,
            offset_velocity=offset_velocity,
            channel=channel,
            finger=finger,
        )

    @property
    def pitch(self) -> int:
        return spelled_to_midi(self.spelled_pitch)

    @property
    def primary_finger(self) -> int:
        """First digit of the label (the finger that strikes the key)."""
        return int(self.finger.split("_", 1)[0])

    @property
    def substitution(self) -> "int | None":
        """Second digit for a mid-note finger substitution, if any."""
        parts = self.finger.split("_", 1)
        return int(parts[1]) if len(parts) == 2 else None


def parse_pig(text: str) -> list[PigRecord]:
    """Parse PIG text into records, skipping blank and ``//`` header lines.

    Each line holds 8 tab-separated fields; the numeric ones are read with
    ``int()`` and ``float()``, so surrounding spaces, a leading ``+`` and
    exponents such as ``1e0`` are accepted, but not the digit-group
    underscores of Python literals (``1_0``): only the finger field may hold
    ``_``.  A line with the wrong number of fields, an underscore before the
    finger field, a field that does not convert, or a record that
    ``PigRecord`` rejects (a NaN or infinite time, a channel other than 0 or
    1, a pitch outside MIDI 0..127) raises MalformedPigLineError with its
    1-based line number.
    """
    records = []
    append = records.append
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[:2] == "//":
            continue
        fields = stripped.split("\t")
        if len(fields) != 8:
            raise MalformedPigLineError(lineno, f"expected 8 tab-separated fields, got {len(fields)}")
        # only the finger field may hold "_", and most lines hold none at all
        if "_" in stripped and "_" in stripped.rpartition("\t")[0]:
            bad = next(f for f in fields if "_" in f)
            raise MalformedPigLineError(lineno, f"underscore outside the finger field: {bad!r}")
        note_id, onset, offset, pitch, onset_velocity, offset_velocity, channel, finger = fields
        try:  # fields convert left to right, so the first bad one names the error
            append(
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


def write_pig(records, header_comments=()) -> str:
    """Render records as canonical PIG text.

    Floats use their shortest round-tripping form so parse(write(x))
    recovers every field exactly.  Extra ``//`` comment lines can carry
    config snapshots.
    """
    lines = [PIG_HEADER]
    lines.extend(f"// {c}" for c in header_comments)
    for rec in records:
        lines.append(
            "\t".join(
                (
                    str(rec.note_id),
                    repr(rec.onset),
                    repr(rec.offset),
                    rec.spelled_pitch,
                    str(rec.onset_velocity),
                    str(rec.offset_velocity),
                    str(rec.channel),
                    rec.finger,
                )
            )
        )
    return "\n".join(lines) + "\n"


def load_pig(path) -> list[PigRecord]:
    """Parse a PIG file; a leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_pig(fh.read())


def save_pig(records, path, header_comments=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_pig(records, header_comments))
