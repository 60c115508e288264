from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ROLLOUT_SONGS,
    control_change,
    golden_songs,
    huge_grid_song,
    key_rows,
    midi_bytes,
    mutated_bytes,
    note_off,
    note_on,
    set_tempo,
    simple_song,
)
import goal_text_reference as reference
import midi_reference
import pig_reference
from numpy_reference import key_onsets
from otpiano import midi
from otpiano.keyboard import KeyState, OutOfRangeError
from otpiano.midi import (
    MAX_STEPS,
    DimensionMismatchError,
    EmptySongError,
    _GOAL_LINE,
    GoalSequence,
    MalformedMidiError,
    MidiSong,
    NoteEvent,
    assemble_observation,
    discretize,
    goal_from_text,
    goal_to_text,
    goal_vector,
    observation_layout,
    parse_midi,
)

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_single_note_at_120_bpm(middle_c_file):
    song = parse_midi(middle_c_file)
    assert len(song.notes) == 1
    note = song.notes[0]
    assert note.pitch == 60
    assert note.onset == pytest.approx(0.0)
    assert note.offset == pytest.approx(0.5)
    assert note.velocity == 80
    assert song.problems == ()


def test_empty_track():
    song = parse_midi(midi_bytes([[]]))
    assert song.notes == ()
    assert song.pedal == ()


def test_overlapping_identical_pitches_fifo():
    # two overlapping middle Cs: ons at ticks 0 and 240, offs at 480 and 720
    data = simple_song([(60, 0, 480), (60, 240, 720)])
    song = parse_midi(data)
    assert len(song.notes) == 2
    first, second = song.notes
    # FIFO: the first note-off closes the first note-on
    assert (first.onset, first.offset) == (pytest.approx(0.0), pytest.approx(0.5))
    assert (second.onset, second.offset) == (pytest.approx(0.25), pytest.approx(0.75))


def test_tempo_change_mid_track():
    # 120 bpm for the first beat, 60 bpm afterwards
    track = [
        (0, set_tempo(500000)),
        (0, note_on(0, 60)),
        (480, set_tempo(1000000)),
        (480, note_off(0, 60)),
    ]
    song = parse_midi(midi_bytes([track]))
    assert song.notes[0].offset == pytest.approx(0.5 + 1.0)


def test_note_on_velocity_zero_is_off():
    track = [(0, note_on(0, 60, 80)), (480, note_on(0, 60, 0))]
    song = parse_midi(midi_bytes([track]))
    assert len(song.notes) == 1
    assert song.notes[0].offset == pytest.approx(0.5)


def test_running_status():
    # second event reuses the note-on status byte
    track = [
        (0, note_on(0, 60)),
        (0, bytes((64, 80))),  # running status: note-on pitch 64
        (480, note_off(0, 60)),
        (0, note_off(0, 64)),
    ]
    song = parse_midi(midi_bytes([track]))
    assert sorted(n.pitch for n in song.notes) == [60, 64]


def test_unmatched_note_off_reported():
    track = [(0, note_off(0, 72)), (0, note_on(0, 60)), (480, note_off(0, 60))]
    song = parse_midi(midi_bytes([track]))
    assert len(song.notes) == 1
    assert any("note-off without note-on" in p for p in song.problems)


def test_dangling_note_on_reported():
    track = [(0, note_on(0, 60))]
    song = parse_midi(midi_bytes([track]))
    assert song.notes == ()
    assert any("note-on without note-off" in p for p in song.problems)


@pytest.mark.parametrize("pitch", [20, 109])
def test_off_keyboard_note_is_kept_and_reported(pitch):
    # one note just outside A0..C8 between two keyboard notes, on the second track
    track = [(0, note_on(0, 60)), (480, note_off(0, 60)), (0, note_on(0, pitch)), (480, note_off(0, pitch)),
             (0, note_on(0, 64)), (480, note_off(0, 64))]
    song = parse_midi(midi_bytes([[(0, set_tempo(500000))], track]))
    assert [n.pitch for n in song.notes] == [60, pitch, 64]
    assert song.problems == (f"track 1: note outside the 88-key range left out (pitch {pitch}, tick 480)",)


def test_sustain_pedal_events_collected():
    data = simple_song([(60, 0, 480)], pedal=[(0, 100), (480, 0)])
    song = parse_midi(data)
    assert [(p.value) for p in song.pedal] == [100, 0]
    assert song.pedal[1].time == pytest.approx(0.5)


def test_multi_track_format_1():
    tracks = [
        [(0, set_tempo(500000))],
        [(0, note_on(0, 60)), (480, note_off(0, 60))],
        [(240, note_on(1, 72)), (480, note_off(1, 72))],
    ]
    song = parse_midi(midi_bytes(tracks))
    assert [(n.pitch, n.channel) for n in song.notes] == [(60, 0), (72, 1)]
    assert song.notes[1].onset == pytest.approx(0.25)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"RIFFxxxx",
        b"MThd" + b"\x00" * 10,  # header too short for declared fields
        midi_bytes([[]], fmt=2),
        midi_bytes([[]])[:-2],  # truncated chunk
    ],
)
def test_malformed_midi(data):
    with pytest.raises(MalformedMidiError):
        parse_midi(data)


# two tracks with a tempo change, running status, pedal, program change and sysex
_FUZZ_SEED = midi_bytes(
    [
        [(0, set_tempo(500000)), (960, set_tempo(400000))],
        [
            (0, note_on(0, 60)),
            (0, bytes((64, 70))),
            (120, control_change(0, 64, 100)),
            (0, bytes((0xC0, 5))),
            (240, note_off(0, 60)),
            (0, bytes((0xF0, 2, 1, 0xF7))),
            (240, note_off(0, 64)),
        ],
    ]
)


def _midi_outcome(parse, data):
    """The parsed song, or the message of the MalformedMidiError raised; any other error propagates."""
    try:
        return parse(data)
    except MalformedMidiError as exc:
        return str(exc)


def _parse_like_the_reference(data):
    assert _midi_outcome(parse_midi, data) == _midi_outcome(midi_reference.parse_midi, data)


@given(st.binary(max_size=200) | st.binary(max_size=200).map(_FUZZ_SEED[:22].__add__))
def test_parse_midi_raises_only_malformed_on_arbitrary_bytes(data):
    _parse_like_the_reference(data)


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(_FUZZ_SEED))
def test_parse_midi_raises_only_malformed_on_mutated_files(data):
    _parse_like_the_reference(data)


# the benchmark's song families and the golden songs
_CORPUS_SONGS = [*(data for data, _, _ in ROLLOUT_SONGS.values()), *golden_songs().values()]


@pytest.mark.parametrize("data", _CORPUS_SONGS, ids=[*ROLLOUT_SONGS, *golden_songs()])
def test_parse_midi_matches_the_reference_on_corpus_songs(data):
    song = parse_midi(data)
    assert song.notes and song == midi_reference.parse_midi(data)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_CORPUS_SONGS).flatmap(mutated_bytes))
def test_parse_midi_matches_the_reference_on_mutated_corpus_songs(data):
    _parse_like_the_reference(data)


def test_problems_keep_note_off_order_then_open_note_ons():
    # on track 1: two stray note-offs around a zero-length and an off-keyboard note;
    # the note-ons left open follow by (channel, pitch), not in the order they opened
    track = [
        (0, note_on(1, 50)),
        (0, note_off(0, 72)),
        (0, note_on(0, 60)),
        (0, note_off(0, 60)),
        (240, note_on(0, 64)),
        (0, note_on(0, 110)),
        (240, note_off(0, 110)),
        (0, note_off(0, 73)),
    ]
    song = parse_midi(midi_bytes([[(0, set_tempo(500000))], track]))
    assert song == MidiSong(
        notes=(NoteEvent(110, 0.25, 0.5, 80, 0),),
        pedal=(),
        problems=(
            "track 1: note-off without note-on (pitch 72, tick 0)",
            "track 1: zero-length note skipped (pitch 60, tick 0)",
            "track 1: note outside the 88-key range left out (pitch 110, tick 240)",
            "track 1: note-off without note-on (pitch 73, tick 480)",
            "track 1: note-on without note-off (pitch 64, tick 240)",
            "track 1: note-on without note-off (pitch 50, tick 0)",
        ),
    )


def _one_track(body: bytes) -> bytes:
    return b"MThd" + bytes((0, 0, 0, 6, 0, 0, 0, 1, 1, 0xE0)) + b"MTrk" + len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize(
    "body, message",
    [
        (bytes((0, 0xFF, 0x01, 5)) + b"abcd", "unexpected end of track data"),
        (bytes((0, 0xF0, 3, 1)), "unexpected end of track data"),
        (bytes((0, 0xFF, 0x51, 4, 7, 0xA1, 0x20)), "unexpected end of track data"),
        (bytes((0, 0xFF, 0x51, 2, 7, 0xA1)), "set-tempo event with bad length"),
        (bytes((0, 0x90, 60)), "unexpected end of track data"),
        (bytes((0, 0xC0)), "unexpected end of track data"),
        (bytes((0x81, 0x80)), "unexpected end of track data"),
        (bytes((0x81, 0x80, 0x80, 0x80, 0)), "variable-length quantity longer than 4 bytes"),
        (bytes((0, 60, 80)), "track 0: data byte 0x3c without running status"),
        (bytes((0, 0xF2, 1, 2)), "track 0: bad status byte 0xf2"),
    ],
    ids=["meta-payload", "sysex-payload", "tempo-payload", "tempo-length", "note-data", "program-data",
         "delta", "long-delta", "running-status", "system-common"],
)
def test_malformed_track_names_its_fault(body, message):
    with pytest.raises(MalformedMidiError, match=f"^{message}$"):
        parse_midi(_one_track(body))


@pytest.mark.parametrize(
    "event, message",
    [
        (bytes((0x90, 0xC8, 0x50)), "track 1: data byte 0xc8 above 0x7f"),
        (bytes((0x90, 0x3C, 0xC8)), "track 1: data byte 0xc8 above 0x7f"),
        (bytes((0x80, 0xBC, 0x00)), "track 1: data byte 0xbc above 0x7f"),
        (bytes((0xB1, 0x40, 0xFF)), "track 1: data byte 0xff above 0x7f"),
        (bytes((0xC0, 0x80)), "track 1: data byte 0x80 above 0x7f"),
    ],
    ids=["note-on-pitch", "note-on-velocity", "note-off-pitch", "controller-value", "program-change"],
)
def test_data_byte_above_0x7f_is_malformed(event, message):
    # SMF data bytes are below 0x80; a note of pitch 200 or velocity 200 never reaches the song
    data = midi_bytes([[(0, note_on(0, 60)), (480, note_off(0, 60))], [(0, note_on(0, 62)), (240, event)]])
    for parse in (parse_midi, midi_reference.parse_midi):
        with pytest.raises(MalformedMidiError, match=f"^{message}$"):
            parse(data)


def test_unknown_chunks_skipped():
    extra = b"XFIH" + (4).to_bytes(4, "big") + b"abcd"
    data = midi_bytes([[(0, note_on(0, 60)), (480, note_off(0, 60))]])
    song = parse_midi(data[:14] + extra + data[14:])
    assert len(song.notes) == 1


def test_smpte_division():
    # 25 fps, 40 ticks per frame: 1 ms per tick, tempo events ignored
    division = ((256 - 25) << 8) | 40
    data = midi_bytes([[(0, note_on(0, 60)), (1000, note_off(0, 60))]], division=division)
    song = parse_midi(data)
    assert song.notes[0].offset == pytest.approx(1.0)


def _reference_seconds(tick, tempos, division):
    """Independent tick->seconds walk over a sorted tempo list."""
    sec, cur_tick, cur_us = 0.0, 0, 500000
    for t_tick, us in tempos:
        if t_tick >= tick:
            break
        sec += (t_tick - cur_tick) * cur_us / (division * 1e6)
        cur_tick, cur_us = t_tick, us
    return sec + (tick - cur_tick) * cur_us / (division * 1e6)


def test_random_songs_match_reference_tempo_math():
    import numpy as np

    from conftest import set_tempo as tempo_event

    rng = np.random.default_rng(42)
    division = 480
    for _ in range(25):
        tempos = sorted(
            (int(rng.integers(0, 4000)), int(rng.integers(120000, 1500000)))
            for _ in range(rng.integers(0, 5))
        )
        notes = []
        cursor = {}
        for _ in range(rng.integers(1, 30)):
            pitch = int(rng.integers(21, 109))
            channel = int(rng.integers(0, 3))
            start = cursor.get((pitch, channel), 0) + int(rng.integers(0, 300))
            duration = int(rng.integers(1, 600))
            notes.append((pitch, start, start + duration, int(rng.integers(1, 128)), channel))
            cursor[(pitch, channel)] = start + duration  # no same-pitch overlap
        tempo_track = [(0, tempo_event(500000))]
        last = 0
        for t_tick, us in tempos:
            tempo_track.append((t_tick - last, tempo_event(us)))
            last = t_tick
        note_events = []
        for pitch, on, off, vel, ch in notes:
            note_events.append((on, 0, note_on(ch, pitch, vel)))
            note_events.append((off, 1, note_off(ch, pitch)))
        note_events.sort(key=lambda e: (e[0], e[1]))
        track = []
        last = 0
        for tick, _order, payload in note_events:
            track.append((tick - last, payload))
            last = tick
        song = parse_midi(midi_bytes([tempo_track, track], division=division))
        assert len(song.notes) == len(notes)
        assert song.problems == ()
        expected = sorted(
            (
                _reference_seconds(on, tempos, division),
                pitch,
                ch,
                _reference_seconds(off, tempos, division),
                vel,
            )
            for pitch, on, off, vel, ch in notes
        )
        got = [(n.onset, n.pitch, n.channel, n.offset, n.velocity) for n in song.notes]
        for g, e in zip(got, expected):
            assert g[1:3] == e[1:3]
            assert g[0] == pytest.approx(e[0], abs=1e-12)
            assert g[3] == pytest.approx(e[3], abs=1e-12)
            assert g[4] == e[4]


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def _note(pitch, onset, offset, velocity=80, channel=0):
    return NoteEvent(pitch=pitch, onset=onset, offset=offset, velocity=velocity, channel=channel)


def test_note_event_matches_the_dataclass_reference():
    note, ref = NoteEvent(60, 0.25, 0.5, 80, 1), pig_reference.NoteEvent(60, 0.25, 0.5, 80, 1)
    assert (repr(note), hash(note), dataclasses.astuple(note)) == (repr(ref), hash(ref), dataclasses.astuple(ref))
    assert note == _note(60, 0.25, 0.5, 80, 1) and note != _note(61, 0.25, 0.5, 80, 1)
    for name in ("pitch", "onset", "offset", "velocity", "channel"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(note, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(note, name)
    with pytest.raises(ValueError, match="must exceed"):
        dataclasses.replace(note, offset=0.25)  # replace builds through the checking constructor


@pytest.mark.parametrize("onset,offset", [(0.5, 0.5), (0.5, 0.25), (0.0, -0.0), (1.0, -math.inf)])
def test_note_event_rejects_an_offset_not_after_the_onset_like_the_reference(onset, offset):
    with pytest.raises(ValueError) as err:
        NoteEvent(60, onset, offset, 80, 0)
    with pytest.raises(ValueError) as ref_err:
        pig_reference.NoteEvent(60, onset, offset, 80, 0)
    assert str(err.value) == str(ref_err.value) == f"offset {offset} must exceed onset {onset}"


@pytest.mark.parametrize("onset,offset", [(0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)])
def test_note_event_rejects_a_nan_time(onset, offset):
    with pytest.raises(ValueError) as err:
        NoteEvent(60, onset, offset, 80, 0)
    assert str(err.value) == f"offset {offset} must exceed onset {onset}"


def _active(seq, t):
    return set(np.flatnonzero(seq.keys[t]).tolist())


def test_interval_intersection_rule():
    seq = discretize([_note(60, 0.0, 0.1)], dt=0.05, stretch=1.0, trim_silence=False)
    assert len(seq) == 2
    assert _active(seq, 0) == {39}
    assert _active(seq, 1) == {39}


def test_stretch_shifts_first_step():
    seq = discretize([_note(60, 1.0, 1.2)], dt=0.05, stretch=1.25, trim_silence=False)
    first_active = int(np.flatnonzero(seq.keys.any(axis=1))[0])
    assert first_active == 25  # 1.0 * 1.25 / 0.05


def test_trim_silence_moves_first_onset_to_zero():
    seq = discretize([_note(60, 3.0, 3.1)], dt=0.05, stretch=1.0, trim_silence=True)
    assert _active(seq, 0) == {39}
    assert len(seq) == 2


def test_empty_inputs():
    assert len(discretize([], trim_silence=False)) == 0
    with pytest.raises(EmptySongError):
        discretize([], trim_silence=True)


def test_out_of_range_pitches_dropped():
    seq = discretize([_note(10, 0.0, 0.1), _note(60, 0.0, 0.1)], stretch=1.0, trim_silence=False)
    assert _active(seq, 0) == {39}


def test_trim_ignores_unplayable_notes():
    # the early sub-keyboard note must not define the time origin
    notes = [_note(10, 0.0, 0.1), _note(60, 2.0, 2.1)]
    seq = discretize(notes, dt=0.05, stretch=1.0, trim_silence=True)
    assert _active(seq, 0) == {39}
    assert len(seq) == 2
    with pytest.raises(EmptySongError):
        discretize([_note(10, 0.0, 0.1)], trim_silence=True)


def test_sustain_sampled_at_step_start():
    from otpiano.midi import PedalEvent

    pedal = [PedalEvent(time=0.0, value=100), PedalEvent(time=0.10, value=0)]
    seq = discretize([_note(60, 0.0, 0.2)], dt=0.05, stretch=1.0, trim_silence=False, pedal=pedal)
    assert seq.sustain.tolist() == [1, 1, 0, 0]


def test_stretch_scales_step_indices():
    # onsets on exact decimals: stretching by 2 doubles every span boundary
    notes = [_note(60, 0.2, 0.4), _note(64, 0.6, 1.0)]
    base = discretize(notes, dt=0.05, stretch=1.0, trim_silence=False)
    doubled = discretize(notes, dt=0.05, stretch=2.0, trim_silence=False)
    for t in range(len(base)):
        for key in _active(base, t):
            assert key in _active(doubled, 2 * t)
            assert key in _active(doubled, 2 * t + 1)
    assert len(doubled) == 2 * len(base)


def test_discretize_refuses_a_grid_past_max_steps_before_allocating_it(monkeypatch):
    data = huge_grid_song()
    assert len(data) == 43
    notes = parse_midi(data).notes
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 2**20, f"np.zeros{shape!r} called"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            discretize(notes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    message = str(refused.value)
    for part in ("note 60 ", "step 27487370 ", "stretch 1.25", "dt 0.05", f"limit of {MAX_STEPS} steps"):
        assert part in message


def test_discretize_allows_max_steps_exactly(monkeypatch):
    monkeypatch.setattr(midi, "MAX_STEPS", 4)
    assert len(discretize([_note(60, 0.0, 0.2)], dt=0.05, stretch=1.0, trim_silence=False)) == 4
    with pytest.raises(ValueError, match="ends at step 5 .* past the limit of 4 steps"):
        discretize([_note(60, 0.0, 0.25)], dt=0.05, stretch=1.0, trim_silence=False)
    # a step count past ten digits is given to ten significant ones
    with pytest.raises(ValueError, match=r"ends at step 1\.2e\+301 at stretch 1e\+300"):
        discretize([_note(60, 0.5, 0.6)], stretch=1e300, trim_silence=False)


def test_discretize_fills_from_step_0_a_note_that_starts_far_before_it():
    # the note's first step, -2.5e31, fits no integer: it is clamped to 0 as a float
    seq = discretize([_note(60, -1e30, 1.0)], trim_silence=False)
    assert len(seq) == 25 and [_active(seq, t) for t in range(25)] == [{39}] * 25
    assert seq.note_starts == ()


def test_key_onsets_counts_activations_once():
    seq = discretize([_note(60, 0.0, 0.2), _note(60, 0.3, 0.4)], dt=0.05, stretch=1.0, trim_silence=False)
    assert key_onsets(seq) == [(0, 39), (6, 39)]


# ---------------------------------------------------------------------------
# goal and observation vectors
# ---------------------------------------------------------------------------


def _single_key_sequence(key=39, step=5, length=12):
    active_sets = [set()] * length
    active_sets[step] = {key}
    return GoalSequence(key_rows(active_sets), dt=0.05)


def test_goal_vector_length_and_layout():
    seq = _single_key_sequence()
    vec = goal_vector(seq, 5, 11)
    assert vec.shape == (979,)
    assert vec[39] == 1.0
    assert vec.sum() == 1.0  # nothing else set


def test_goal_vector_empty_sequence_is_zero():
    seq = GoalSequence(key_rows([]), dt=0.05)
    vec = goal_vector(seq, 0, 11)
    assert vec.shape == (979,)
    assert not vec.any()


def test_goal_vector_beyond_end_zero_padded():
    seq = _single_key_sequence(step=5, length=6)
    vec = goal_vector(seq, 5, 11)
    assert vec[39] == 1.0
    assert vec[89:].sum() == 0.0


def test_goal_vector_includes_sustain_bits():
    vec = goal_vector(GoalSequence(key_rows([set()]), sustain=[1], dt=0.05), 0, 2)
    assert vec[88] == 1.0
    assert vec.sum() == 1.0


def test_observation_layout_block_sizes():
    layout = observation_layout(11)
    sizes = {name: stop - start for name, (start, stop) in layout.items()}
    assert sizes == {
        "goal_keys": 968,
        "goal_sustain": 11,
        "key_joints": 88,
        "sustain_state": 1,
        "fingertips": 30,
        "hand_state": 46,
    }
    assert layout["fingertips"] == (1068, 1098)


def test_assemble_observation_dimensions():
    vec = goal_vector(GoalSequence(key_rows([]), dt=0.05), 0, 11)
    obs = assemble_observation(vec, KeyState(), np.zeros((10, 3)), np.zeros(46))
    assert obs.shape == (1144,)
    assert not obs.any()


def test_assemble_observation_block_placement():
    seq = _single_key_sequence(step=0, length=1)
    vec = goal_vector(seq, 0, 11)
    tips = np.zeros((10, 3))
    tips[0] = (0.5, 0.25, 0.125)
    depths = [0.0] * 88
    depths[3] = 1.0
    obs = assemble_observation(vec, KeyState(depths=tuple(depths), sustain=1.0), tips, np.ones(46))
    layout = observation_layout(11)
    assert obs[39] == 1.0  # goal key bit, block 0
    start, _ = layout["key_joints"]
    assert obs[start + 3] == 1.0
    start, _ = layout["sustain_state"]
    assert obs[start] == 1.0
    start, _ = layout["fingertips"]
    assert tuple(obs[start : start + 3]) == (0.5, 0.25, 0.125)
    start, stop = layout["hand_state"]
    assert obs[start:stop].sum() == 46.0
    assert stop == 1144


def test_assemble_observation_rejects_bad_shapes():
    vec = goal_vector(GoalSequence(key_rows([]), dt=0.05), 0, 11)
    with pytest.raises(DimensionMismatchError):
        assemble_observation(vec, KeyState(), np.zeros((8, 3)), np.zeros(46))
    with pytest.raises(DimensionMismatchError):
        assemble_observation(vec, KeyState(), np.zeros((10, 3)), np.zeros(45))
    with pytest.raises(DimensionMismatchError):
        assemble_observation(np.zeros(10), KeyState(), np.zeros((10, 3)), np.zeros(46))


# ---------------------------------------------------------------------------
# goal text format
# ---------------------------------------------------------------------------


def test_goal_text_round_trip():
    seq = discretize(
        [_note(60, 0.0, 0.3), _note(64, 0.1, 0.2), _note(21, 0.25, 0.5)],
        dt=0.05,
        stretch=1.0,
        trim_silence=False,
        pedal=[],
    )
    text = goal_to_text(seq)
    back = goal_from_text(text)
    assert back.dt == seq.dt
    assert np.array_equal(back.keys, seq.keys) and np.array_equal(back.sustain, seq.sustain)


def test_goal_text_round_trip_with_silent_steps():
    # silent steps serialize with an empty keys field (trailing tab)
    seq = discretize([_note(60, 0.0, 0.1), _note(64, 0.4, 0.5)], dt=0.05, stretch=1.0, trim_silence=False)
    assert not seq.keys.any(axis=1).all()
    back = goal_from_text(goal_to_text(seq))
    assert np.array_equal(back.keys, seq.keys) and np.array_equal(back.sustain, seq.sustain)


@pytest.mark.parametrize(
    "text, error",
    [
        ("0\t0\t95\n", OutOfRangeError),
        ("0\t0\t39,-5\n", OutOfRangeError),
        ("0\t7\t39\n", ValueError),
        ("# dtype: float\n0\t0\t39\n", ValueError),
        ("# dt = 0\n0\t0\t39\n", ValueError),
        ("# dt = nan\n", ValueError),
        ("0\t0\t39\n2\t0\t39\n", ValueError),
    ],
    ids=["key-95", "key-minus-5", "sustain-7", "dtype-comment", "dt-zero", "dt-nan", "step-gap"],
)
def test_goal_from_text_rejects_bad_lines(text, error):
    with pytest.raises(error):
        goal_from_text(text)


@pytest.mark.parametrize(
    "text, error, line",
    [
        ("0\t0\t39\n# dt = 0\n1\t0\tx\n", ValueError, 2),
        ("0\t0\t39\n1\t0\t95\n2\t0\tx\n", OutOfRangeError, 2),
        ("# song\n0\t0\t39\n5\t0\t95\n", ValueError, 3),
        ("0\t0\t39\n\n1\t0\t40 \n", ValueError, 3),
        ("0\t0\t39\r\n1\t1\t40,-5\r\n", OutOfRangeError, 2),
        ("# dt = x\n", ValueError, 1),
        ("0\t0\t95\n5\t0\t39\n# dt = 0\n", OutOfRangeError, 1),
    ],
    ids=["dt-before-syntax", "key-before-syntax", "index-before-key", "trailing-space", "crlf-key", "dt-text", "key-first"],
)
def test_goal_from_text_names_the_first_bad_line(text, error, line):
    with pytest.raises(error, match=f"^line {line}:") as info:
        goal_from_text(text)
    assert type(info.value) is error


def test_goal_from_text_takes_comments_anywhere_and_the_last_dt():
    text = "# dt = 0.1\n0\t1\t39,40\n\n  ## note: dtype below is a comment\n1\t0\t\n#dt=0.025\r\n# dtype\n2\t0\t0,87\n"
    with pytest.raises(ValueError, match="^line 7:"):
        goal_from_text(text)
    seq = goal_from_text(text.replace("# dtype\n", "# d type\n"))
    assert seq.dt == 0.025 and seq.sustain.tolist() == [1, 0, 0]
    assert np.argwhere(seq.keys).tolist() == [[0, 39], [0, 40], [2, 0], [2, 87]]


# forms int() reads that the goal grammar rejects; the old line loop accepted each
@pytest.mark.parametrize(
    "text",
    [
        "0\t0\t 39\n",
        "0\t0\t39 \n",
        "0\t0\t+39\n",
        "0\t0\t39,,40\n",
        "0\t0\t39,\n",
        "0\t0\t,39\n",
        "0\t00\t39\n",
        "-0\t0\t39\n",
        " 0\t0\t39\n",
        "0\t0\t3_9\n",
        "0\t0\t\u0663\u0669\n",
        "0\t0\t39\r1\t0\t40\n",
        "0\t0\t39\x0b1\t0\t40\n",
    ],
)
def test_goal_from_text_rejects_lenient_integer_forms(text):
    reference.goal_from_text(text)
    with pytest.raises(ValueError, match="^line 1:"):
        goal_from_text(text)


_SEQUENCE_ROWS = st.lists(st.tuples(st.sets(st.integers(0, 87), max_size=10), st.sampled_from([0, 1])), max_size=20)


@given(_SEQUENCE_ROWS, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example([({0, 87}, 1), (set(), 0), ({39}, 0)], 0.05)
@example([], 5e-324)
def test_goal_text_round_trip_matches_reference(rows, dt):
    seq = GoalSequence(key_rows([keys for keys, _ in rows]), sustain=[level for _, level in rows], dt=dt)
    text = goal_to_text(seq)
    for parse in (goal_from_text, reference.goal_from_text):
        back = parse(text)
        assert back.dt == seq.dt
        assert np.array_equal(back.keys, seq.keys) and np.array_equal(back.sustain, seq.sustain)


# near-valid goal lines: headers with and without a value, steps with odd fields
_GOAL_HEADER = st.tuples(
    st.sampled_from(["#", "# ", "#dt", "# dt", "# dtype:"]), st.sampled_from(["", "=", " = 0.05", " = x", " = nan", " = -1"])
).map("".join)
_GOAL_STEP = st.lists(
    st.sampled_from(["", "0", "1", "7", "-1", "x", "39", "87,88", "-5", "95", "0,39", " 1", "+1", "00", "1,,2"]),
    min_size=1,
    max_size=4,
).map("\t".join)
_GOAL_TEXT = st.lists(_GOAL_HEADER | _GOAL_STEP, max_size=6).map("\n".join)


def _outcome(parse, text):
    """The parsed arrays and dt, or the class of the error raised."""
    try:
        seq = parse(text)
    except ValueError as exc:
        return type(exc)
    return seq.keys.tobytes(), seq.keys.shape, seq.sustain.tobytes(), seq.dt


def _newly_rejected(text) -> bool:
    """Whether a line the old loop read as a step (three tab fields) falls outside the goal grammar.

    Every line matches ``_GOAL_LINE``; one outside the grammar matches only its last group.
    """
    lines = [line.rstrip("\r") for line in text.splitlines()]
    return any(
        line.count("\t") == 2 and not line.lstrip().startswith("#") and _GOAL_LINE.fullmatch(line)[5] is not None
        for line in lines
    )


@given(_GOAL_TEXT | st.text())
def test_goal_line_pattern_matches_every_line_once(text):
    assert len(_GOAL_LINE.findall(text)) == text.count("\n") + 1


@given(_GOAL_TEXT)
@settings(max_examples=500)
def test_goal_from_text_matches_reference(text):
    new = _outcome(goal_from_text, text)
    if _newly_rejected(text):
        assert isinstance(new, type) and issubclass(new, ValueError)
    else:
        assert new == _outcome(reference.goal_from_text, text)


@given(_GOAL_TEXT | st.text())
def test_goal_from_text_raises_only_value_errors(text):
    try:
        seq = goal_from_text(text)
    except ValueError:
        return
    assert seq.keys.shape == (len(seq), 88)
    assert set(seq.sustain.tolist()) <= {0, 1}


def test_goal_sequence_validates_arrays():
    with pytest.raises(DimensionMismatchError):
        GoalSequence(np.zeros((3, 87), dtype=bool))
    with pytest.raises(DimensionMismatchError):
        GoalSequence(np.zeros((3, 88), dtype=bool), sustain=[0, 1])
    with pytest.raises(ValueError):
        GoalSequence(np.zeros((2, 88), dtype=bool), sustain=[0, 2])
    seq = GoalSequence(key_rows([{39}, set()]), sustain=[1, 0], dt=0.05)
    assert not seq.keys.flags.writeable and not seq.sustain.flags.writeable


@pytest.mark.parametrize("shape", [(5, 0), (0, 5), (0, 0), (0, 88, 1)])
def test_goal_sequence_refuses_an_empty_grid_of_the_wrong_shape(shape):
    with pytest.raises(DimensionMismatchError):
        GoalSequence(np.zeros(shape, dtype=bool))
    assert GoalSequence(np.zeros(0, dtype=bool)).keys.shape == (0, 88)  # only a 1-D empty input is the 0-step grid


def _reference_discretize(notes, dt, stretch, trim_silence, pedal=()):
    """The per-note, per-step fill that the difference-array discretize replaced, on the reference step rule."""
    kept = midi_reference.keyboard_notes(notes)
    shift = midi_reference.trim_shift(kept, stretch) if trim_silence else 0.0
    spans = []
    for note in kept:
        first, end = midi_reference.note_step_span(note, dt, stretch, shift)
        spans.append((note.pitch - 21, max(first, 0), end))
    length = max([0] + [end for _, _, end in spans])
    active = [set() for _ in range(length)]
    for key, first, end in spans:
        for t in range(first, min(end, length)):
            active[t].add(key)
    events = sorted(((p.time * stretch - shift, p.value) for p in pedal), key=lambda pair: pair[0])
    sustain, idx, value = [], 0, 0
    for t in range(length):
        while idx < len(events) and events[idx][0] <= t * dt + 1e-9 * dt:
            value = events[idx][1]
            idx += 1
        sustain.append(1 if value >= 64 else 0)
    return active, sustain


@pytest.mark.parametrize("trim_silence", [True, False])
def test_discretize_matches_per_step_reference(trim_silence):
    from otpiano.midi import PedalEvent

    rng = np.random.default_rng(12)
    for _ in range(20):
        onsets = rng.uniform(0.0, 6.0, size=40).round(int(rng.integers(1, 4)))
        notes = [
            _note(int(rng.integers(21, 109)), float(on), float(on + rng.uniform(0.01, 1.0)))
            for on in onsets
        ]
        notes += [_note(62, -0.6, -0.2), _note(64, -0.3, 0.12)]  # before the grid without trimming
        times = rng.uniform(0.0, 7.0, size=8).round(2)
        pedal = [PedalEvent(time=float(t), value=int(v)) for t, v in zip(times, rng.integers(0, 128, size=8))]
        seq = discretize(notes, dt=0.05, stretch=1.25, trim_silence=trim_silence, pedal=pedal)
        active, sustain = _reference_discretize(notes, 0.05, 1.25, trim_silence, pedal)
        assert [_active(seq, t) for t in range(len(seq))] == active
        assert seq.sustain.tolist() == sustain


@st.composite
def _step_mapping_cases(draw):
    """Notes, dt, stretch and trim for the note-to-step rule.

    Times fall on step boundaries, within or just past the 1e-9-step tolerance
    of one, or anywhere, negative ones included; pitches may be off the
    keyboard; some notes come twice, as an equal copy or as a twin with the
    same onset, pitch and channel, so the sort's stability shows.
    """
    dt = draw(st.sampled_from([0.05, 0.03, 0.1]))
    stretch = draw(st.sampled_from([1.0, 1.25, 0.8]))
    nudges = st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9, 0.5])
    boundary = st.builds(lambda k, nudge: (k + nudge) * dt / stretch, st.integers(-10, 40), nudges)
    time = boundary | st.floats(-1.0, 3.0)
    notes = []
    for _ in range(draw(st.integers(1, 10))):
        pitch = draw(st.integers(21, 108) | st.integers(0, 127))
        onset, offset = draw(time), draw(time)
        if not offset > onset:
            offset = onset + draw(st.sampled_from([1e-12, 1e-3]) | st.floats(1e-12, 1.0))
        notes.append(_note(pitch, onset, offset, 80, draw(st.integers(0, 1))))
    for note in draw(st.lists(st.sampled_from(notes), max_size=3)):
        twin = draw(st.booleans())
        notes.append(_note(note.pitch, note.onset, note.offset + twin, 80 - twin, note.channel))
    return draw(st.permutations(notes)), dt, stretch, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_step_mapping_cases())
def test_note_starts_follow_the_reference_rule(case):
    notes, dt, stretch, trim_silence = case
    try:
        expected = midi_reference.note_starts(notes, dt, stretch, trim_silence)
    except EmptySongError:
        with pytest.raises(EmptySongError):
            discretize(notes, dt=dt, stretch=stretch, trim_silence=trim_silence)
        return
    seq = discretize(notes, dt=dt, stretch=stretch, trim_silence=trim_silence)
    assert [(first, id(note)) for first, note in seq.note_starts] == [(first, id(note)) for first, note in expected]
    assert all(type(first) is int for first, _ in seq.note_starts)
    active, _ = _reference_discretize(notes, dt, stretch, trim_silence)
    assert [_active(seq, t) for t in range(len(seq))] == active
