"""Standard MIDI file parsing and time discretization into per-step goals.

Reads SMF format 0/1 byte-exactly (no external MIDI dependency), converts
ticks to seconds through the tempo map, and discretizes note intervals onto
a fixed control grid: a (T, 88) bool array of keys that must be down plus a
(T,) binary sustain-pedal target.  Lookahead windows of that grid are sliced
into goal vectors and observation blocks.
"""

from __future__ import annotations

import math
import re
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter

import numpy as np

from .keyboard import KEY_COUNT, MAX_PITCH, MIN_PITCH, KeyState, OutOfRangeError, key_for_pitch

DEFAULT_DT = 0.05
DEFAULT_STRETCH = 1.25
DEFAULT_LOOKAHEAD = 10  # future steps; window length L = lookahead + 1
GOAL_STEP_DIM = KEY_COUNT + 1  # 88 key bits + 1 sustain bit
HAND_STATE_DIM = 46
FINGERTIP_SLOTS = 10
OBSERVATION_DIM = 1144
ACTION_DIM = 39

_SUSTAIN_CONTROLLER = 64
_SUSTAIN_ON = 64  # CC values >= this count as pedal down
_DEFAULT_US_PER_BEAT = 500000  # 120 bpm until the first tempo event
_STEP_EPS = 1e-9  # tolerance for grid-boundary comparisons


class MalformedMidiError(ValueError):
    """Structurally invalid MIDI data (bad header, chunk, or event)."""


class EmptySongError(ValueError):
    """No notes where at least one is required."""


class DimensionMismatchError(ValueError):
    """Vector component has the wrong shape."""


@dataclass(frozen=True, init=False)
class NoteEvent:
    """One matched note: pitch with onset/offset in seconds; an offset not after the onset raises ValueError."""

    pitch: int
    onset: float
    offset: float
    velocity: int
    channel: int

    def __init__(self, pitch: int, onset: float, offset: float, velocity: int, channel: int) -> None:
        if offset <= onset:
            raise ValueError(f"offset {offset} must exceed onset {onset}")
        # the frozen __setattr__ refuses assignment, so the checked fields go into the instance dict at once
        self.__dict__.update(pitch=pitch, onset=onset, offset=offset, velocity=velocity, channel=channel)


@dataclass(frozen=True)
class PedalEvent:
    """Sustain-pedal (CC64) change: value 0..127 at a time in seconds."""

    time: float
    value: int


@dataclass(frozen=True)
class MidiSong:
    """Parse result: matched notes, pedal events, and one report line per problem.

    ``notes`` keeps every matched note, off-keyboard pitches included;
    ``problems`` names each skipped event and each note outside the 88 keys,
    which ``discretize`` leaves out.
    """

    notes: tuple[NoteEvent, ...]
    pedal: tuple[PedalEvent, ...]
    problems: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# SMF parsing
# ---------------------------------------------------------------------------


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
                    d1 = reader.u8()
                    d2 = reader.u8()
                    if kind == 0x90 and d2 > 0:
                        events.append(("on", tick, channel, d1, d2))
                    elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                        events.append(("off", tick, channel, d1))
                    elif kind == 0xB0 and d1 == _SUSTAIN_CONTROLLER:
                        raw_pedal.append((tick, d2))
                elif kind in (0xC0, 0xD0):
                    reader.u8()
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


def load_midi(path) -> MidiSong:
    """Parse a MIDI file from disk."""
    with open(path, "rb") as fh:
        return parse_midi(fh.read())


# ---------------------------------------------------------------------------
# Discretization onto the control grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GoalSequence:
    """Time-discretized goal on a grid of period ``dt``.

    Row t of ``keys``, a read-only ``(T, 88)`` bool array, marks the keys
    that must be down at step t; ``sustain`` is the read-only ``(T,)`` 0/1
    pedal target (all zero when omitted).
    """

    keys: np.ndarray
    sustain: "np.ndarray | None" = None
    dt: float = DEFAULT_DT

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        keys = np.array(self.keys, dtype=bool)
        if keys.size == 0:
            keys = keys.reshape(0, KEY_COUNT)
        if keys.ndim != 2 or keys.shape[1] != KEY_COUNT:
            raise DimensionMismatchError(f"goal keys must have shape (T, {KEY_COUNT}), got {keys.shape}")
        sustain = np.zeros(len(keys)) if self.sustain is None else np.array(self.sustain)
        if sustain.shape != (len(keys),):
            raise DimensionMismatchError(f"sustain must have shape ({len(keys)},), got {sustain.shape}")
        if not np.isin(sustain, (0, 1)).all():
            raise ValueError("sustain targets must be 0 or 1")
        sustain = sustain.astype(np.uint8)
        for name, arr in (("keys", keys), ("sustain", sustain)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.keys)


def onset_mask(keys: np.ndarray) -> np.ndarray:
    """Rows of a (T, 88) key array reduced to the keys not down the step before."""
    before = np.zeros_like(keys)
    before[1:] = keys[:-1]
    return keys & ~before


def _first_step(time: float, dt: float) -> int:
    return int(math.floor(time / dt + _STEP_EPS))


def _end_step(time: float, dt: float) -> int:
    """Exclusive end step of an interval finishing at ``time``."""
    return int(math.ceil(time / dt - _STEP_EPS))


def note_step_span(note: NoteEvent, dt: float, stretch: float, shift: float) -> tuple[int, int]:
    """Half-open step range [first, end) a note occupies after stretch/shift."""
    onset = note.onset * stretch - shift
    offset = note.offset * stretch - shift
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


def discretize(
    notes,
    dt: float = DEFAULT_DT,
    stretch: float = DEFAULT_STRETCH,
    trim_silence: bool = True,
    pedal=(),
) -> GoalSequence:
    """Discretize note events into a GoalSequence.

    All times are multiplied by ``stretch`` first; with ``trim_silence`` the
    grid starts at the earliest onset.  A key is active at step t when the
    stretched [onset, offset) interval intersects [t*dt, (t+1)*dt); boundary
    comparisons carry a 1e-9-step tolerance.  The sustain bit samples the
    pedal state (CC value >= 64) at each step start.  Notes outside the
    88-key range are left out silently; ``parse_midi`` reports them.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if stretch <= 0.0:
        raise ValueError("stretch must be > 0")
    kept = keyboard_notes(notes)
    if not kept:
        if trim_silence:
            raise EmptySongError("cannot trim silence: song has no playable notes")
        return GoalSequence(np.zeros((0, KEY_COUNT), dtype=bool), dt=dt)

    shift = trim_shift(kept, stretch) if trim_silence else 0.0
    spans = np.array([(key_for_pitch(n.pitch), *note_step_span(n, dt, stretch, shift)) for n in kept])
    key, first, end = spans[:, 0], np.maximum(spans[:, 1], 0), spans[:, 2]
    length = max(int(end.max()), 0)
    # difference array: +1 where a note's interval starts, -1 where it ends;
    # a note that ends by step 0 (negative times, no trim) fills nothing
    live = first < end
    fill = np.zeros((length + 1, KEY_COUNT), dtype=np.int32)
    np.add.at(fill, (first[live], key[live]), 1)
    np.add.at(fill, (end[live], key[live]), -1)
    keys = np.cumsum(fill[:length], axis=0, out=fill[:length]) > 0

    # pedal state sampled at step starts: the last event at or before each start
    times = np.array([p.time * stretch - shift for p in pedal], dtype=np.float64)
    order = np.argsort(times, kind="stable")
    levels = np.concatenate(([0], np.array([p.value for p in pedal], dtype=np.int64)[order]))
    reached = np.searchsorted(times[order], np.arange(length) * dt + _STEP_EPS * dt, side="right")
    return GoalSequence(keys, sustain=levels[reached] >= _SUSTAIN_ON, dt=dt)


# ---------------------------------------------------------------------------
# Goal and observation vectors
# ---------------------------------------------------------------------------


def goal_windows(seq: GoalSequence, start: int, count: int, lookahead_window: int) -> tuple:
    """Goal rows of the windows starting at steps start .. start+count-1.

    Returns ``(count, L, 88)`` key bits and ``(count, L)`` sustain bits,
    read-only views of one zero-padded copy of the ``count + L - 1`` rows
    involved: steps past the end of the sequence are silent.
    """
    rows = count + lookahead_window - 1
    keys = np.zeros((rows, KEY_COUNT), dtype=bool)
    sustain = np.zeros(rows, dtype=np.uint8)
    real = seq.keys[start : start + rows]
    keys[: len(real)] = real
    sustain[: len(real)] = seq.sustain[start : start + rows]
    windows = np.lib.stride_tricks.sliding_window_view
    return windows(keys, (lookahead_window, KEY_COUNT))[:, 0], windows(sustain, lookahead_window)


def goal_vector(seq: GoalSequence, t: int, lookahead_window: int = DEFAULT_LOOKAHEAD + 1) -> np.ndarray:
    """Binary goal vector for steps t .. t+L-1, flattened per step.

    Each step contributes 88 key bits plus one sustain bit; steps past the
    end of the sequence are all zero.  Length is always L*89.
    """
    if t < 0:
        raise ValueError("step index must be >= 0")
    if lookahead_window < 1:
        raise ValueError("lookahead window must be >= 1")
    keys, sustain = goal_windows(seq, t, 1, lookahead_window)
    out = np.zeros((lookahead_window, GOAL_STEP_DIM), dtype=np.float64)
    out[:, :KEY_COUNT] = keys[0]
    out[:, KEY_COUNT] = sustain[0]
    return out.ravel()


def observation_layout(lookahead_window: int = DEFAULT_LOOKAHEAD + 1) -> dict:
    """Block name -> (start, stop) index ranges of the observation vector."""
    L = lookahead_window
    blocks = [
        ("goal_keys", KEY_COUNT * L),
        ("goal_sustain", L),
        ("key_joints", KEY_COUNT),
        ("sustain_state", 1),
        ("fingertips", 3 * FINGERTIP_SLOTS),
        ("hand_state", HAND_STATE_DIM),
    ]
    layout = {}
    start = 0
    for name, size in blocks:
        layout[name] = (start, start + size)
        start += size
    return layout


def observation_dim(lookahead_window: int = DEFAULT_LOOKAHEAD + 1) -> int:
    """Length of an observation vector; 1144 for the default 11-step window."""
    return observation_layout(lookahead_window)["hand_state"][1]


def write_observations(out: np.ndarray, goal_keys, goal_sustain, key_depths, sustain_state, fingertips, hand_state) -> None:
    """Fill the n rows of ``out`` block by block in ``observation_layout`` order.

    ``goal_keys`` is (n, L, 88) and ``goal_sustain`` (n, L); the piano,
    fingertip and hand blocks are (n, 88), (n,), (n, 10, 3) and (n, 46).
    """
    n, L = np.shape(goal_sustain)
    blocks = {
        "goal_keys": np.reshape(goal_keys, (n, L * KEY_COUNT)),
        "goal_sustain": goal_sustain,
        "key_joints": key_depths,
        "sustain_state": np.reshape(sustain_state, (n, 1)),
        "fingertips": np.reshape(fingertips, (n, 3 * FINGERTIP_SLOTS)),
        "hand_state": hand_state,
    }
    for name, (start, stop) in observation_layout(L).items():
        out[:, start:stop] = blocks[name]


def assemble_observation(goal: np.ndarray, keys: KeyState, fingertips, hand_state) -> np.ndarray:
    """Concatenate goal, piano state, fingertip and hand blocks.

    The interleaved goal vector is split into its key and sustain planes so
    the result follows the canonical block order (88L, L, 88, 1, 30, 46);
    with the default 11-step window the result has 1144 entries.
    """
    goal = np.asarray(goal, dtype=np.float64)
    if goal.ndim != 1 or goal.size % GOAL_STEP_DIM != 0 or goal.size == 0:
        raise DimensionMismatchError(f"goal vector length {goal.size} is not a multiple of {GOAL_STEP_DIM}")
    L = goal.size // GOAL_STEP_DIM
    per_step = goal.reshape(L, GOAL_STEP_DIM)

    tips = np.asarray(fingertips, dtype=np.float64)
    if tips.shape != (FINGERTIP_SLOTS, 3):
        raise DimensionMismatchError(f"fingertips must have shape ({FINGERTIP_SLOTS}, 3), got {tips.shape}")
    hand = np.asarray(hand_state, dtype=np.float64)
    if hand.shape != (HAND_STATE_DIM,):
        raise DimensionMismatchError(f"hand state must have shape ({HAND_STATE_DIM},), got {hand.shape}")

    out = np.empty((1, observation_dim(L)), dtype=np.float64)
    write_observations(
        out,
        per_step[None, :, :KEY_COUNT],
        per_step[None, :, KEY_COUNT],
        np.asarray(keys.depths, dtype=np.float64)[None],
        keys.sustain,
        tips[None],
        hand[None],
    )
    return out[0]


# ---------------------------------------------------------------------------
# Goal sequence text format
# ---------------------------------------------------------------------------


_KEY_NAMES = np.array([str(key) for key in range(KEY_COUNT)], dtype=object)


def row_bits(column: np.ndarray) -> np.ndarray:
    """Row t of a ``(T,)`` or ``(T, n)`` array as one value made of its bytes.

    Two rows are equal when their bytes are, so floats that print
    differently, such as -0.0 and 0.0, stay apart.
    """
    column = np.ascontiguousarray(column)
    return column.view(np.dtype((np.void, column.itemsize * math.prod(column.shape[1:])))).reshape(len(column))


def step_runs(*columns) -> tuple:
    """The first step of each run of equal steps, and the run of every step.

    Row t of each column is step t's entry in it, and two steps are equal
    when all their entries' ``row_bits`` are.  Returns ``(starts, run)``:
    the steps that begin a run, and for every step the index of its run in
    ``starts``.
    """
    changed = np.zeros(len(columns[0]), dtype=bool)
    changed[:1] = True
    for column in columns:
        bits = row_bits(column)
        changed[1:] |= bits[1:] != bits[:-1]
    return np.flatnonzero(changed), np.cumsum(changed) - 1


def numbered_lines(bodies: list, run: np.ndarray, sep: str) -> str:
    """One line per step, ``<step><sep><body of its run>``, each ending in a line break."""
    return "".join([f"{t}{sep}{bodies[r]}\n" for t, r in enumerate(run.tolist())])


def goal_to_text(seq: GoalSequence) -> str:
    """Render a GoalSequence as text: one step per line.

    Line format: ``<step>\\t<sustain>\\t<key,key,...>`` with keys ascending;
    a ``# dt = ...`` header keeps the grid period.  Each run of equal steps
    is formatted once.
    """
    starts, run = step_runs(seq.keys, seq.sustain)
    keys = seq.keys[starts]
    names = _KEY_NAMES[np.nonzero(keys)[1]].tolist()
    ends = np.cumsum(keys.sum(axis=1)).tolist()
    bodies = []
    start = 0
    for sustain, end in zip(seq.sustain[starts].tolist(), ends):
        bodies.append(f"{sustain}\t{','.join(names[start:end])}")
        start = end
    return f"# dt = {seq.dt!r}\n" + numbered_lines(bodies, run, "\t")


# One goal-text line: a step, a '# dt = <seconds>' header, another comment, or
# a blank line.  A blank is any whitespace but the line break, as str.strip has
# it.  A comment's text after its '#' run and blanks starts with neither a
# blank nor '#' (so the runs cannot be cut short) nor 'dt'.
_GOAL_LINE = re.compile(
    r"""^(?:
        ([0-9]+)\t([01])\t((?:-?[0-9]+(?:,-?[0-9]+)*)?)\r?      # <step> TAB <sustain> TAB <key>,<key>,...
      | [^\S\n]*(?:\#+[^\S\n]*(?:                                # a '#' run and blanks, then
            dt[^\S\n]*(=.*)                                       # '= <seconds>' after 'dt'
          | (?:[^\s\#d]|d(?!t)).*                                  # or any other comment text
          |                                                     # or nothing
        ))?                                                     # (or a blank line)
    )$""",
    re.MULTILINE | re.VERBOSE,
)


def goal_from_text(text: str) -> GoalSequence:
    """Parse the goal text format back into a GoalSequence.

    Lines end in ``\\n`` (or ``\\r\\n``).  Each is one of:

    * a step, ``<step>\\t<sustain>\\t<keys>``: the step index (0, 1, 2, ...
      in order) and the keys are decimal integers in ASCII digits, and a
      key may carry a minus sign; the sustain is ``0`` or ``1``; the keys
      are comma-separated with no empty item, and the field is empty on a
      silent step;
    * a ``# dt = <seconds>`` header (``#`` may repeat; spaces are free
      around ``#``, ``dt`` and ``=``; the value is any text ``float``
      reads);
    * any other comment, a line whose first non-blank character is ``#``
      and whose text after the ``#`` run and blanks does not start with
      ``dt``;
    * a blank line.

    Comment, blank and header lines may appear anywhere, and the last
    ``# dt`` header sets the period.  The first offending line, counted
    from 1, is named in the error: ValueError for a line outside this
    language, a ``# dt`` value that is not positive and finite, or a step
    index out of order, and OutOfRangeError (a ValueError) for a key
    outside 0..87.  Of two errors on one line, the step index is reported.
    """
    lines = _GOAL_LINE.findall(text)
    if len(lines) <= text.count("\n"):
        _raise_at_first_bad_line(text)
    is_step = np.fromiter(map(bool, map(itemgetter(0), lines)), bool, len(lines))
    errors = []  # (line number, error); the first line's error is raised
    dt = DEFAULT_DT
    for n in np.flatnonzero(~is_step).tolist():
        header = lines[n][3]
        if not header:
            continue
        try:
            value = float(header[1:])
        except ValueError:
            value = math.nan
        if not 0.0 < value < math.inf:
            errors.append((n + 1, ValueError(f"line {n + 1}: dt must be positive and finite")))
            break
        dt = value

    lineno = np.flatnonzero(is_step) + 1
    index, sustain, fields = (list(compress(map(itemgetter(i), lines), is_step.tolist())) for i in range(3))
    wrong = np.flatnonzero(np.fromiter(map(float, index), np.float64, len(index)) != np.arange(len(index)))
    if wrong.size:
        row = wrong[0]
        errors.append((lineno[row], ValueError(f"line {lineno[row]}: step index {index[row]} out of order")))

    # each distinct keys field (a chord, often held for many steps) is parsed once
    chords = {field: n for n, field in enumerate(dict.fromkeys(fields))}
    chord_of_row = np.fromiter(map(chords.__getitem__, fields), np.intp, len(fields))
    chord_keys = [field.split(",") if field else [] for field in chords]
    chord_of_key = np.repeat(np.arange(len(chords)), list(map(len, chord_keys)))
    keys = np.fromiter(map(float, chain.from_iterable(chord_keys)), np.float64, len(chord_of_key))
    outside = (keys < 0) | (keys >= KEY_COUNT)
    if outside.any():
        row = np.flatnonzero(np.isin(chord_of_row, chord_of_key[outside]))[0]
        key = next(k for k in fields[row].split(",") if not 0 <= float(k) < KEY_COUNT)
        errors.append((lineno[row], OutOfRangeError(f"line {lineno[row]}: key {key} outside [0, {KEY_COUNT})")))
    if errors:
        raise min(errors, key=itemgetter(0))[1]

    table = np.zeros((len(chords), KEY_COUNT), dtype=bool)
    table[chord_of_key, keys.astype(np.intp)] = True
    return GoalSequence(table[chord_of_row], sustain=np.fromiter(map("1".__eq__, sustain), bool, len(sustain)), dt=dt)


def _raise_at_first_bad_line(text: str) -> None:
    """Raise the error of the first line ``goal_from_text`` cannot accept."""
    lines = text.split("\n")
    bad = next(n for n, line in enumerate(lines) if not _GOAL_LINE.fullmatch(line))
    goal_from_text("\n".join(lines[:bad]))  # an error on an earlier line comes first
    raise ValueError(
        f"line {bad + 1}: expected '<step>\\t<sustain 0|1>\\t<key>,<key>,...', a '#' comment or a blank line"
    )
