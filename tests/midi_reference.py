"""Two independent references: the two-pass SMF parser, and the per-note note-to-step rule.

``otpiano.midi.parse_midi`` reads each track once and matches its notes
while it reads; this is the parser it replaced, which read every track
through a bounds-checked cursor into tagged ``"on"``/``"off"`` event lists
and matched notes by replaying them once the tempo map was known.  Both
must return equal ``MidiSong``s (notes, pedal and problems, in order), or
raise MalformedMidiError with the same message, on every input.  The one
change to the old parser: a channel event's data byte above 0x7F raises
MalformedMidiError here too, as it does in ``parse_midi``.

``note_step_span``, ``keyboard_notes`` and ``trim_shift`` are the per-note
rule that ``otpiano.midi.discretize`` replaced with one array computation
over all notes; ``note_starts`` reads from it the ``(first step, note)``
pairs that ``discretize`` must record.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from operator import itemgetter

from otpiano.keyboard import MAX_PITCH, MIN_PITCH
from otpiano.midi import EmptySongError, MalformedMidiError, MidiSong, NoteEvent, PedalEvent

_SUSTAIN_CONTROLLER = 64
_DEFAULT_US_PER_BEAT = 500000
_STEP_EPS = 1e-9  # tolerance for grid-boundary comparisons


class _Reader:
    """Byte cursor with bounds checking."""

    def __init__(self, data: bytes, start: int, end: int):
        self.data = data
        self.pos = start
        self.end = end

    def remaining(self) -> int:
        return self.end - self.pos

    def u8(self) -> int:
        if self.pos >= self.end:
            raise MalformedMidiError("unexpected end of track data")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def peek(self) -> int:
        if self.pos >= self.end:
            raise MalformedMidiError("unexpected end of track data")
        return self.data[self.pos]

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise MalformedMidiError("unexpected end of track data")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def varlen(self) -> int:
        value = 0
        for _ in range(4):
            b = self.u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MalformedMidiError("variable-length quantity longer than 4 bytes")


def _data_byte(reader: _Reader, track_no: int) -> int:
    """One channel-event data byte; SMF data bytes are below 0x80."""
    byte = reader.u8()
    if byte > 0x7F:
        raise MalformedMidiError(f"track {track_no}: data byte {byte:#x} above 0x7f")
    return byte


def _seconds_at(tick: int, segments: list[tuple[int, float, float]]) -> float:
    """Convert an absolute tick to seconds via tempo segments.

    Each segment is (start_tick, start_seconds, seconds_per_tick); segments
    are sorted by start_tick and the last one extends to infinity.  A tick
    takes the last segment that starts at or before it.
    """
    start_tick, start_sec, sec_per_tick = segments[bisect_right(segments, tick, key=itemgetter(0)) - 1]
    return start_sec + (tick - start_tick) * sec_per_tick


def parse_midi(data: bytes) -> MidiSong:
    """Parse SMF format 0/1 bytes into note and pedal events.

    Note on/off pairs are matched per (track, channel, pitch) first-in
    first-out; a note-on with velocity 0 counts as a note-off.  The tempo
    map is merged across tracks and applied to convert ticks to seconds.
    Unmatched note-offs, dangling note-ons and zero-length notes are skipped
    and reported in ``MidiSong.problems``; a matched note outside the 88-key
    range is kept and reported there too.  Structurally invalid data raises
    MalformedMidiError.
    """
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedMidiError("missing MThd header")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6:
        raise MalformedMidiError(f"header length {header_len} < 6")
    fmt, ntracks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise MalformedMidiError(f"unsupported SMF format {fmt}")
    if fmt == 0 and ntracks != 1:
        raise MalformedMidiError(f"format 0 file declares {ntracks} tracks")

    smpte = bool(division & 0x8000)
    if smpte:
        fps = 256 - (division >> 8)  # stored as negative two's complement
        ticks_per_frame = division & 0xFF
        if fps <= 0 or ticks_per_frame == 0:
            raise MalformedMidiError("invalid SMPTE division")
        fixed_sec_per_tick = 1.0 / (fps * ticks_per_frame)
    elif division == 0:
        raise MalformedMidiError("zero ticks per quarter note")

    # chunk scan: collect MTrk spans, skip unknown chunk types
    tracks: list[tuple[int, int]] = []
    pos = 8 + header_len
    while pos < len(data):
        if pos + 8 > len(data):
            raise MalformedMidiError("truncated chunk header")
        kind = data[pos : pos + 4]
        length = struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        if pos + 8 + length > len(data):
            raise MalformedMidiError(f"truncated {kind!r} chunk")
        if kind == b"MTrk":
            tracks.append((pos + 8, pos + 8 + length))
        pos += 8 + length
    if len(tracks) < ntracks:
        raise MalformedMidiError(f"header declares {ntracks} tracks, found {len(tracks)}")

    # pass 1: raw events with absolute ticks
    tempo_events: list[tuple[int, int]] = []  # (tick, us_per_beat)
    raw_notes: list[list[tuple]] = []
    raw_pedal: list[tuple[int, int]] = []
    problems: list[str] = []

    for track_no, (start, end) in enumerate(tracks):
        reader = _Reader(data, start, end)
        tick = 0
        running_status = None
        events: list[tuple] = []
        while reader.remaining() > 0:
            tick += reader.varlen()
            status = reader.peek()
            if status >= 0x80:
                reader.u8()
                if status < 0xF0:
                    running_status = status
            else:
                if running_status is None:
                    raise MalformedMidiError(f"track {track_no}: data byte {status:#x} without running status")
                status = running_status
            if status == 0xFF:  # meta
                meta_type = reader.u8()
                length = reader.varlen()
                payload = reader.take(length)
                if meta_type == 0x51:
                    if length != 3:
                        raise MalformedMidiError("set-tempo event with bad length")
                    tempo_events.append((tick, int.from_bytes(payload, "big")))
            elif status in (0xF0, 0xF7):  # sysex
                reader.take(reader.varlen())
            else:
                kind = status & 0xF0
                channel = status & 0x0F
                if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
                    d1 = _data_byte(reader, track_no)
                    d2 = _data_byte(reader, track_no)
                    if kind == 0x90 and d2 > 0:
                        events.append(("on", tick, channel, d1, d2))
                    elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                        events.append(("off", tick, channel, d1))
                    elif kind == 0xB0 and d1 == _SUSTAIN_CONTROLLER:
                        raw_pedal.append((tick, d2))
                elif kind in (0xC0, 0xD0):
                    _data_byte(reader, track_no)
                else:
                    raise MalformedMidiError(f"track {track_no}: bad status byte {status:#x}")
        raw_notes.append(events)

    # tempo map -> tick->seconds segments
    if smpte:
        segments = [(0, 0.0, fixed_sec_per_tick)]
    else:
        tempo_events.sort(key=lambda pair: pair[0])
        cur_tick, cur_sec = 0, 0.0
        cur_us = _DEFAULT_US_PER_BEAT
        segments = [(0, 0.0, cur_us / (division * 1e6))]
        for t_tick, us in tempo_events:
            cur_sec += (t_tick - cur_tick) * cur_us / (division * 1e6)
            cur_tick = t_tick
            cur_us = us
            segments.append((cur_tick, cur_sec, cur_us / (division * 1e6)))

    # pass 2: FIFO matching per (channel, pitch) within each track
    notes: list[NoteEvent] = []
    for track_no, events in enumerate(raw_notes):
        open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for ev in events:
            if ev[0] == "on":
                _, tick, channel, pitch, velocity = ev
                open_notes.setdefault((channel, pitch), []).append((tick, velocity))
            else:
                _, tick, channel, pitch = ev
                queue = open_notes.get((channel, pitch))
                if not queue:
                    problems.append(f"track {track_no}: note-off without note-on (pitch {pitch}, tick {tick})")
                    continue
                on_tick, velocity = queue.pop(0)
                onset = _seconds_at(on_tick, segments)
                offset = _seconds_at(tick, segments)
                if offset <= onset:
                    problems.append(f"track {track_no}: zero-length note skipped (pitch {pitch}, tick {on_tick})")
                    continue
                if not MIN_PITCH <= pitch <= MAX_PITCH:
                    problems.append(
                        f"track {track_no}: note outside the 88-key range left out (pitch {pitch}, tick {on_tick})"
                    )
                notes.append(NoteEvent(pitch, onset, offset, velocity, channel))
        for (channel, pitch), queue in sorted(open_notes.items()):
            for on_tick, _velocity in queue:
                problems.append(f"track {track_no}: note-on without note-off (pitch {pitch}, tick {on_tick})")

    notes.sort(key=lambda n: (n.onset, n.pitch, n.channel))
    pedal = tuple(
        PedalEvent(_seconds_at(tick, segments), value)
        for tick, value in sorted(raw_pedal, key=lambda pair: pair[0])
    )
    return MidiSong(notes=tuple(notes), pedal=pedal, problems=tuple(problems))


# ---------------------------------------------------------------------------
# The per-note note-to-step rule
# ---------------------------------------------------------------------------


def _first_step(time: float, dt: float) -> int:
    return int(math.floor(time / dt + _STEP_EPS))


def _end_step(time: float, dt: float) -> int:
    """Exclusive end step of an interval finishing at ``time``."""
    return int(math.ceil(time / dt - _STEP_EPS))


def note_step_span(note: NoteEvent, dt: float, stretch: float, shift: float) -> tuple[int, int]:
    """Half-open step range [first, end) a note occupies after stretch/shift; a ValueError where a time over dt overflows."""
    onset = note.onset * stretch - shift
    offset = note.offset * stretch - shift
    if not (math.isfinite(onset / dt) and math.isfinite(offset / dt)):
        raise ValueError(f"note {note.pitch} at {note.onset!r} s has no finite step at stretch {stretch!r}, dt {dt!r}")
    return _first_step(onset, dt), _end_step(offset, dt)


def keyboard_notes(notes) -> list:
    """The subset of notes within the 88-key pitch range, order preserved."""
    return [n for n in notes if MIN_PITCH <= n.pitch <= MAX_PITCH]


def trim_shift(notes, stretch: float) -> float:
    """Time shift that maps the earliest playable stretched onset to t = 0."""
    playable = keyboard_notes(notes)
    if not playable:
        raise EmptySongError("cannot trim silence: song has no playable notes")
    return min(n.onset for n in playable) * stretch


def note_starts(notes, dt: float, stretch: float, trim_silence: bool) -> list:
    """``(first, note)`` of each keyboard note with ``0 <= first < end``, stably sorted by (onset, pitch, channel)."""
    shift = trim_shift(notes, stretch) if trim_silence else 0.0
    starts = []
    for note in keyboard_notes(notes):
        first, end = note_step_span(note, dt, stretch, shift)
        if 0 <= first < end:
            starts.append((first, note))
    return sorted(starts, key=lambda pair: (pair[1].onset, pair[1].pitch, pair[1].channel))
