"""Shared test helpers: a minimal standalone MIDI byte writer, goal rows and byte mutations.

The writer is deliberately independent of the package's parser so golden
files exercise a real encode/decode boundary.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import strategies as st


def vlq(value: int) -> bytes:
    """Encode a variable-length quantity."""
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def note_on(channel: int, pitch: int, velocity: int = 80) -> bytes:
    return bytes((0x90 | channel, pitch, velocity))


def note_off(channel: int, pitch: int, velocity: int = 0) -> bytes:
    return bytes((0x80 | channel, pitch, velocity))


def control_change(channel: int, controller: int, value: int) -> bytes:
    return bytes((0xB0 | channel, controller, value))


def set_tempo(us_per_beat: int) -> bytes:
    return bytes((0xFF, 0x51, 0x03)) + us_per_beat.to_bytes(3, "big")


END_OF_TRACK = bytes((0xFF, 0x2F, 0x00))


def track_chunk(events) -> bytes:
    """events: iterable of (delta_ticks, event_bytes); end-of-track appended."""
    body = b"".join(vlq(delta) + payload for delta, payload in events)
    body += vlq(0) + END_OF_TRACK
    return b"MTrk" + struct.pack(">I", len(body)) + body


def midi_bytes(tracks, division: int = 480, fmt: int = 1) -> bytes:
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, len(tracks), division)
    return header + b"".join(track_chunk(t) for t in tracks)


def simple_song(notes, division: int = 480, us_per_beat: int = 500000, pedal=()) -> bytes:
    """Single-track file from absolute-tick note tuples.

    ``notes``: (pitch, on_tick, off_tick[, velocity[, channel]]);
    ``pedal``: (tick, cc64_value).
    """
    timeline = [(0, set_tempo(us_per_beat))]
    events = []
    for spec in notes:
        pitch, on_tick, off_tick = spec[:3]
        velocity = spec[3] if len(spec) > 3 else 80
        channel = spec[4] if len(spec) > 4 else 0
        events.append((on_tick, 0, note_on(channel, pitch, velocity)))
        events.append((off_tick, 1, note_off(channel, pitch)))
    for tick, value in pedal:
        events.append((tick, 0, control_change(0, 64, value)))
    events.sort(key=lambda e: (e[0], e[1]))
    last = 0
    for tick, _order, payload in events:
        timeline.append((tick - last, payload))
        last = tick
    return midi_bytes([timeline], division=division)


@pytest.fixture
def middle_c_file() -> bytes:
    # one quarter note at 120 bpm: pitch 60, 0.0 .. 0.5 s
    return simple_song([(60, 0, 480)])


def key_rows(active_sets) -> np.ndarray:
    """(T, 88) bool goal keys whose row t is set at the keys of ``active_sets[t]``."""
    rows = np.zeros((len(active_sets), 88), dtype=bool)
    for t, keys in enumerate(active_sets):
        rows[t, list(keys)] = True
    return rows


def mutated_bytes(data: bytes):
    """Hypothesis strategy: ``data`` with up to eight bytes overwritten, inserted or deleted, maybe cut short."""
    edit = st.tuples(st.sampled_from("sid"), st.integers(0, 2 * len(data)), st.integers(0, 255))

    def apply(edits, keep):
        out = bytearray(data)
        for op, pos, value in edits:
            pos %= len(out) + 1
            if op == "i":
                out.insert(pos, value)
            elif pos < len(out) and op == "s":
                out[pos] = value
            elif pos < len(out):
                del out[pos]
        return bytes(out[:keep])

    return st.builds(apply, st.lists(edit, max_size=8), st.none() | st.integers(0, len(data)))


def episode_with_raw_meta(meta: bytes) -> bytes:
    """A one-step ``.rp1t`` container, valid up to its metadata block, which holds ``meta`` verbatim."""
    from otpiano.store import EpisodeRecord, episode_bytes

    data = episode_bytes(EpisodeRecord(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1)))
    return data[: -len(b"{}") - 4] + struct.pack("<I", len(meta)) + meta


def golden_songs() -> dict:
    """Three small seeded songs for the golden-output test: name -> SMF bytes.

    ``melody`` is a pedalled right-hand line on and off the grid, ``chords``
    alternates two-hand chords of up to five keys (so boundary steps merge
    up to ten keys: strict ten fingers still fit, four fingers must drop),
    and ``legato`` overlaps two voices on odd ticks with velocity changes.
    Every song spans several 64-step episodes.
    """
    rng = np.random.default_rng(2024)
    songs = {}

    notes, pedal, tick = [], [], 0
    for i in range(48):
        length = int(rng.choice([120, 240, 360, 200]))
        notes.append((int(rng.integers(60, 84)), tick, tick + length, int(rng.integers(40, 110))))
        if i % 8 == 0:
            pedal.append((tick, 100))
        elif i % 8 == 5:
            pedal.append((tick + 30, 0))
        tick += length
    songs["melody"] = simple_song(notes, pedal=pedal)

    notes, tick = [], 0
    for i in range(24):
        length = int(rng.choice([240, 480, 720]))
        for low in (True, False):
            size = int(rng.integers(1, 4)) if low else int(rng.integers(1, 3))
            base = int(rng.integers(28, 48)) if low else int(rng.integers(55, 80))
            for pitch in sorted({base + int(x) for x in rng.choice(12, size=size, replace=False)}):
                notes.append((pitch, tick, tick + length, 80, 1 if low else 0))
        tick += length
    songs["chords"] = simple_song(notes, pedal=[(0, 127), (tick // 2, 0)])

    notes = []
    for voice, (lo, hi) in enumerate(((36, 55), (62, 90))):
        tick = 37 * voice
        for _ in range(30):
            length = int(rng.integers(150, 500))
            notes.append((int(rng.integers(lo, hi)), tick, tick + length + 61, int(rng.integers(30, 120)), voice))
            tick += length
    songs["legato"] = simple_song(notes, us_per_beat=600000)
    return songs
