"""Seeded synthetic MIDI corpora for the benchmark, with a standalone SMF writer.

The writer shares no code with the package's parser, so every run crosses a
real encode/decode boundary.  Generators use ``random.Random`` seeded from a
string, so the same seed always gives the same bytes on any platform.

Two song families:

* ``grid_song``: two hands, fixed tempo (125 bpm, 480 ticks per beat, so one
  tick is 1 ms), onsets and offsets on the 40 ms raw grid that the default
  stretch (1.25) maps onto the 50 ms control step.  Each hand holds one chord
  of 1-4 keys at a time, so no step holds more than 8 keys and ten-finger
  strict annotation never fails.
* ``legato_song``: overlapping legato chords with onsets off the grid, tempo
  changes, chords of up to 7 keys per hand, three off-keyboard pitches, two
  dangling note-ons and a stray note-off.  Overlaps merge consecutive chords into
  single steps, so a share of steps exceeds eight keys (the four-finger hand
  size), which only best-effort mode can annotate.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

DIVISION = 480
GRID_US_PER_BEAT = 480_000  # 125 bpm: 1 tick = 1 ms, a sixteenth = 3 control steps
SIXTEENTH = DIVISION // 4
LOWEST_KEY_PITCH = 21
HIGHEST_KEY_PITCH = 108


# ---------------------------------------------------------------------------
# SMF writer
# ---------------------------------------------------------------------------


def vlq(value: int) -> bytes:
    """MIDI variable-length quantity."""
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def set_tempo(us_per_beat: int) -> bytes:
    return bytes((0xFF, 0x51, 0x03)) + us_per_beat.to_bytes(3, "big")


def track_chunk(events) -> bytes:
    """``events``: (absolute_tick, order, payload); sorted stably, end-of-track appended."""
    body = bytearray()
    last = 0
    for tick, _order, payload in sorted(events, key=lambda e: (e[0], e[1])):
        body += vlq(tick - last) + payload
        last = tick
    body += vlq(0) + bytes((0xFF, 0x2F, 0x00))
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def smf_bytes(tracks) -> bytes:
    """Format-1 file from per-track event lists."""
    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(tracks), DIVISION)
    return header + b"".join(track_chunk(t) for t in tracks)


def note_events(channel: int, pitch: int, on: int, off, velocity: int) -> list:
    """Note-on (and note-off unless ``off`` is None); offs sort before ons at a tick."""
    events = [(on, 1, bytes((0x90 | channel, pitch, velocity)))]
    if off is not None:
        events.append((off, 0, bytes((0x80 | channel, pitch, 0))))
    return events


# ---------------------------------------------------------------------------
# Song generators
# ---------------------------------------------------------------------------


@dataclass
class Song:
    """Generated file plus the exact counts the generator put into it."""

    name: str
    data: bytes
    notes: int = 0
    off_keyboard_notes: int = 0
    dangling_note_ons: int = 0
    stray_note_offs: int = 0
    tempo_changes: int = 0


def _chord(rng: random.Random, center: int, size: int, lo: int, hi: int) -> list:
    """``size`` distinct pitches within a ninth around ``center``, clamped to [lo, hi]."""
    pool = [p for p in range(center - 7, center + 8) if lo <= p <= hi]
    return sorted(rng.sample(pool, min(size, len(pool))))


def _plan(key: str, end: int, lengths, sizes, weights, rest: float) -> list:
    """Events ``(ticks, chord size)`` filling ``end`` ticks; size 0 is a rest.

    Drawn from a generator seeded by ``key`` alone, so every corpus seed gets
    the same multiset of durations and chord sizes: the same notes, the same
    amount of work.  Seeds differ in the order, the pitches and the timing.
    """
    rng = random.Random(key)
    plan, tick = [], 0
    while tick < end:
        length = min(rng.choice(lengths), end - tick)
        size = 0 if rng.random() < rest else rng.choices(sizes, weights=weights)[0]
        plan.append((length, size))
        tick += length
    return plan


def grid_song(rng: random.Random, name: str, seconds: float) -> Song:
    """Two-hand song on the control grid; at most 4 + 4 keys down at once."""
    end = int(seconds * 1000 / SIXTEENTH) * SIXTEENTH  # 1 tick = 1 ms
    tracks = [[(0, 0, set_tempo(GRID_US_PER_BEAT))]]
    song = Song(name=name, data=b"")
    lengths = tuple(n * SIXTEENTH for n in (1, 2, 2, 3, 4, 4, 6, 8))
    hands = (
        (0, 60, 96, (50, 25, 15, 10), (60, 84)),  # right: channel, lo, hi, size weights, center range
        (1, 28, 59, (45, 30, 15, 10), (38, 52)),  # left
    )
    for channel, lo, hi, weights, (c_lo, c_hi) in hands:
        plan = _plan(f"grid:{end}:{channel}", end, lengths, (1, 2, 3, 4), weights, rest=0.12)
        rng.shuffle(plan)
        events = []
        center = rng.randint(c_lo, c_hi)
        tick = 0
        for length, size in plan:
            center = max(c_lo, min(c_hi, center + rng.randint(-3, 3)))
            velocity = rng.randint(40, 100)
            for pitch in _chord(rng, center, size, lo, hi):
                events += note_events(channel, pitch, tick, tick + length, velocity)
                song.notes += 1
            tick += length
        if channel == 0:
            # sustain pedal on half of the bars, lifted just before the bar line
            for bar in range(0, end, 4 * DIVISION):
                if rng.random() < 0.5:
                    events.append((bar, 2, bytes((0xB0, 64, 100))))
                    events.append((min(bar + 4 * DIVISION - SIXTEENTH, end), 2, bytes((0xB0, 64, 0))))
        tracks.append(events)
    song.data = smf_bytes(tracks)
    return song


def _tempo_map(seconds: float) -> tuple:
    """``(conductor events, end tick)``: a new tempo every 2-6 bars, cut to last ``seconds``."""
    rng = random.Random(f"tempo:{seconds}")
    conductor, tick, elapsed = [], 0, 0.0
    while True:
        us = rng.randint(400_000, 700_000)
        conductor.append((tick, 0, set_tempo(us)))
        span = rng.randint(2, 6) * 4 * DIVISION
        span_seconds = span * us / (DIVISION * 1e6)
        if elapsed + span_seconds >= seconds:
            return conductor, tick + round((seconds - elapsed) * DIVISION * 1e6 / us)
        elapsed += span_seconds
        tick += span


def legato_song(rng: random.Random, name: str, seconds: float) -> Song:
    """Legato song off the grid with tempo changes and a few defective events."""
    conductor, end = _tempo_map(seconds)
    song = Song(name=name, data=b"", tempo_changes=len(conductor) - 1)
    tracks = [conductor]
    weights = (46, 26, 13, 8, 4, 3)
    hands = ((0, 55, 100, (62, 86)), (1, 24, 64, (34, 56)))  # channel, lo, hi, center range
    for channel, lo, hi, (c_lo, c_hi) in hands:
        lengths = (90, 120, 180, 240, 240, 360, 480)
        plan = _plan(f"legato:{end}:{channel}", end, lengths, (1, 2, 3, 4, 5, 7), weights, rest=0.0)
        rng.shuffle(plan)
        events = []
        center = rng.randint(c_lo, c_hi)
        tick = 0
        for length, size in plan:
            center = max(c_lo, min(c_hi, center + rng.randint(-4, 4)))
            for pitch in _chord(rng, center, size, lo, hi):
                on = tick + rng.randint(0, 25)  # rolled, humanized onsets
                overlap = rng.randint(10, 80)  # legato: hold past the next onset
                off = min(on + length + overlap, end + 200)
                events += note_events(channel, pitch, on, off, rng.randint(30, 110))
                song.notes += 1
            tick += length
        tracks.append(events)
    rh = tracks[1]
    # legato pedalling: change the pedal slightly after most bar lines
    for bar in range(0, end, 4 * DIVISION):
        if rng.random() < 0.6:
            down = bar + rng.randint(10, 60)
            rh.append((down, 2, bytes((0xB0, 64, rng.randint(64, 127)))))
            rh.append((min(down + 4 * DIVISION - rng.randint(60, 200), end), 2, bytes((0xB0, 64, 0))))
    # three off-keyboard notes (outside MIDI 21..108), dropped by discretization
    for _ in range(3):
        pitch = rng.choice((rng.randint(12, LOWEST_KEY_PITCH - 1), rng.randint(HIGHEST_KEY_PITCH + 1, 120)))
        on = rng.randrange(DIVISION, end - DIVISION)
        rh += note_events(0, pitch, on, on + rng.randint(60, 400), 70)
        song.notes += 1
        song.off_keyboard_notes += 1
    # two dangling note-ons on a spare channel, and a note-off that closes nothing
    for _ in range(2):
        on = rng.randrange(DIVISION, end - DIVISION)
        rh += note_events(5, rng.randint(60, 72), on, None, 64)
        song.dangling_note_ons += 1
    rh.append((rng.randrange(DIVISION, end), 0, bytes((0x86, rng.randint(60, 72), 0))))
    song.stray_note_offs += 1
    song.data = smf_bytes(tracks)
    return song


def generate(kind: str, seed: int, lengths) -> list:
    """One song per entry of ``lengths`` (seconds of score time), named s00, s01, ..."""
    make = {"grid": grid_song, "legato": legato_song}[kind]
    rng = random.Random(f"otpiano-perfbench:{kind}:{seed}")
    return [make(rng, f"s{i:02d}", seconds) for i, seconds in enumerate(lengths)]
