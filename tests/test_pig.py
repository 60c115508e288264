from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pig_reference
from conftest import mutated_bytes
from otpiano.pig import (
    MalformedPigLineError,
    PigRecord,
    load_pig,
    midi_to_spelled,
    parse_pig,
    spelled_to_midi,
    write_pig,
)

GOLDEN = """//Version: PianoFingering_v170101
0\t0.0\t0.5\tC4\t80\t80\t0\t1
1\t0.5\t1.0\tF#4\t72\t64\t0\t2
2\t0.5\t1.5\tBb2\t60\t0\t1\t-5
3\t1.0\t1.25\tE5\t90\t0\t0\t1_2
4\t1.5\t2.0\tA0\t50\t0\t1\t-1_-2
"""


def test_parse_example_line():
    records = parse_pig("0\t0.0\t0.5\tC4\t80\t80\t0\t1\n")
    (rec,) = records
    assert rec.pitch == 60
    assert rec.channel == 0  # right hand
    assert rec.primary_finger == 1  # right thumb
    assert rec.substitution is None


def test_header_lines_skipped():
    assert len(parse_pig(GOLDEN)) == 5


def test_round_trip_is_idempotent():
    once = parse_pig(GOLDEN)
    twice = parse_pig(write_pig(once))
    assert twice == once
    assert write_pig(twice) == write_pig(once)


def test_substitution_preserved_verbatim():
    records = parse_pig(GOLDEN)
    assert records[3].finger == "1_2"
    assert records[3].substitution == 2
    assert records[4].finger == "-1_-2"
    assert "1_2" in write_pig(records)


def test_malformed_line_reports_number():
    bad = "0\t0.0\t0.5\tC4\t80\t80\t0\t1\n0\t0.0\t0.5\tC4\t80\n"
    with pytest.raises(MalformedPigLineError) as err:
        parse_pig(bad)
    assert err.value.lineno == 2
    with pytest.raises(MalformedPigLineError):
        parse_pig("0\t0.0\t0.5\tH4\t80\t80\t0\t1\n")  # bad pitch letter
    with pytest.raises(MalformedPigLineError):
        parse_pig("0\t0.0\t0.5\tC4\t80\t80\t0\t9\n")  # bad finger digit


def test_record_validation():
    with pytest.raises(ValueError):
        PigRecord(0, 1.0, 0.5, "C4", 80, 80, 0, "1")  # offset before onset
    with pytest.raises(ValueError):
        PigRecord(0, 0.0, 0.5, "C4", 80, 80, 0, "6")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [1, 2], ids=["onset", "offset"])
def test_non_finite_times_rejected(field, value):
    fields = "0\t0.0\t0.5\tC4\t80\t80\t0\t1".split("\t")
    fields[field] = value
    with pytest.raises(MalformedPigLineError, match="finite") as err:
        parse_pig(GOLDEN + "\t".join(fields) + "\n")
    assert err.value.lineno == 7


@pytest.mark.parametrize("field", [0, 1, 2, 4, 5, 6], ids=["id", "onset", "offset", "on-vel", "off-vel", "channel"])
def test_digit_group_underscores_rejected(field):
    # int() and float() read "0_80" as 80; PIG numbers are plain decimals
    fields = "0\t0.0\t0.5\tC4\t80\t80\t0\t1_2".split("\t")
    fields[field] = "0_" + fields[field]
    with pytest.raises(MalformedPigLineError, match="underscore") as err:
        parse_pig(GOLDEN + "\t".join(fields) + "\n")
    assert err.value.lineno == 7


@pytest.mark.parametrize("channel", ["2", "7", "-1"])
def test_channel_other_than_the_two_hands_rejected(channel):
    with pytest.raises(MalformedPigLineError, match="channel") as err:
        parse_pig(GOLDEN + f"5\t0.0\t0.5\tC4\t80\t80\t{channel}\t1\n")
    assert err.value.lineno == 7


@pytest.mark.parametrize("pitch", ["C9999", "Cb-1", "G#9"])
def test_spelled_pitch_outside_midi_rejected(pitch):
    with pytest.raises(MalformedPigLineError, match="outside MIDI") as err:
        parse_pig(GOLDEN + f"5\t0.0\t0.5\t{pitch}\t80\t80\t0\t1\n")
    assert err.value.lineno == 7
    assert parse_pig(f"0\t0.0\t0.5\tC-1\t80\t80\t0\t1\n0\t0.0\t0.5\tG9\t80\t80\t1\t-1\n")  # MIDI 0 and 127


@pytest.mark.parametrize(
    "line", ["0\t0.0\t0.5\tH4\t80\t80\t0\t1", "0\t0.0\t0.5\tC4\t80\t80\t0\t1_9"], ids=["pitch", "finger"]
)
def test_bad_token_error_repeats(line):
    # the token caches keep only tokens that passed, so a second error reads like the first
    messages = []
    for _ in range(2):
        with pytest.raises(MalformedPigLineError) as err:
            parse_pig(line + "\n")
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "bad" in messages[0]


def test_spelling_cache_is_bounded():
    # file tokens are untrusted and ``-?\d+`` octaves are unbounded
    for octave in range(3000):
        assert spelled_to_midi(f"C{octave}") == 12 * (octave + 1)
    info = spelled_to_midi.cache_info()
    assert info.currsize <= info.maxsize < 3000


@pytest.mark.parametrize(
    "name,midi",
    [("C4", 60), ("A0", 21), ("C8", 108), ("Bb3", 58), ("F#4", 66), ("B#3", 60), ("Cb4", 59), ("C-1", 0)],
)
def test_spelled_pitch_table(name, midi):
    assert spelled_to_midi(name) == midi


def test_spelling_round_trip_on_keyboard():
    for pitch in range(21, 109):
        assert spelled_to_midi(midi_to_spelled(pitch)) == pitch


def test_float_fields_round_trip_exactly():
    rec = PigRecord(0, 0.1 + 0.2, 1.0 / 3.0, "C4", 80, 0, 0, "1")
    (back,) = parse_pig(write_pig([rec]))
    assert back.onset == rec.onset
    assert back.offset == rec.offset


def _parse_or_malformed(text):
    """Parse like the dataclass reference does (see below), raising nothing but MalformedPigLineError."""
    outcome = _assert_parses_like_reference(text)
    assert isinstance(outcome, list) or outcome[0] is MalformedPigLineError


@given(st.text() | st.binary().map(lambda data: data.decode("utf-8", "replace")))
def test_parse_pig_raises_only_malformed_lines_on_arbitrary_text(text):
    _parse_or_malformed(text)


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(GOLDEN.encode()))
def test_parse_pig_raises_only_malformed_lines_on_mutated_files(data):
    _parse_or_malformed(data.decode("utf-8", "replace"))


def test_load_pig_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.pig.txt"
    path.write_bytes(b"\xef\xbb\xbf" + GOLDEN.encode())
    assert load_pig(path) == parse_pig(GOLDEN)
    # only a leading mark is skipped: one after it is part of the first line's text
    path.write_bytes(b"\xef\xbb\xbf" * 2 + GOLDEN.encode())
    with pytest.raises(MalformedPigLineError) as err:
        load_pig(path)
    assert err.value.lineno == 1


# ---------------------------------------------------------------------------
# the record constructor and the parse loop against the dataclass reference
# ---------------------------------------------------------------------------

_GOOD = (3, 0.5, 1.0, "C4", 80, 0, 0, "1")
_NAMES = [f.name for f in dataclasses.fields(PigRecord)]


def _outcome(build, *args, **kwargs):
    """Records as (class name, fields, repr, hash), comparable across the two classes; an error as (type, message, line)."""
    try:
        result = build(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)
    records = result if isinstance(result, list) else [result]
    return [(type(r).__name__, dataclasses.astuple(r), repr(r), hash(r)) for r in records]


def _assert_parses_like_reference(text):
    ours = _outcome(parse_pig, text)
    assert ours == _outcome(pig_reference.parse_pig, text)
    if isinstance(ours, list):
        assert all(type(rec) is PigRecord for rec in parse_pig(text))
    return ours


def test_record_matches_the_dataclass_reference():
    rec = PigRecord(*_GOOD)
    ref = pig_reference.PigRecord(*_GOOD)
    assert (repr(rec), hash(rec), dataclasses.astuple(rec)) == (repr(ref), hash(ref), dataclasses.astuple(ref))
    assert rec == PigRecord(**dict(zip(_NAMES, _GOOD))) and hash(rec) == hash(PigRecord(*_GOOD))
    assert rec != PigRecord(4, *_GOOD[1:]) and rec != ref  # dataclass equality needs the same class
    assert (rec.pitch, rec.primary_finger, rec.substitution) == (60, 1, None)
    assert dataclasses.replace(rec, channel=1).channel == 1
    with pytest.raises(ValueError, match="channel"):
        dataclasses.replace(rec, channel=2)  # replace builds through the checking constructor


def test_record_is_immutable():
    rec = PigRecord(*_GOOD)
    for name in _NAMES:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.extra = 1
    assert rec == PigRecord(*_GOOD)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("onset", math.nan, "finite"),
        ("onset", -math.inf, "finite"),
        ("offset", math.nan, "finite"),
        ("offset", math.inf, "finite"),
        ("offset", 0.25, "offset before onset"),
        ("channel", 2, "channel must be"),
        ("channel", -1, "channel must be"),
        ("finger", "6", "bad finger label"),
        ("finger", "1_2_3", "bad finger label"),
        ("finger", "", "bad finger label"),
        ("spelled_pitch", "H4", "bad spelled pitch"),
        ("spelled_pitch", "C9999", "outside MIDI"),
        ("spelled_pitch", "Cb-1", "outside MIDI"),
    ],
)
def test_record_rejects_each_bad_field_like_the_reference(field, value, message):
    args = dict(zip(_NAMES, _GOOD), **{field: value})
    with pytest.raises(ValueError, match=message) as err:
        PigRecord(**args)
    with pytest.raises(ValueError) as ref_err:
        pig_reference.PigRecord(**args)
    assert (type(err.value), str(err.value)) == (type(ref_err.value), str(ref_err.value))


_FLOATS = [0.0, -0.0, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(
        st.sampled_from([0, 7]),
        st.sampled_from(_FLOATS),
        st.sampled_from(_FLOATS),
        st.sampled_from(["C4", "Bb3", "G9", "C-1", "H4", "C9999", "Cb-1"]),
        st.sampled_from([80, 0]),
        st.sampled_from([0, 64]),
        st.sampled_from([0, 1, 2, -1]),
        st.sampled_from(["1", "-5", "1_2", "6", "1_2_3", ""]),
    )
)
def test_record_constructor_matches_the_reference(args):
    # several fields may be bad at once, so the order of the checks shows too
    expected = _outcome(pig_reference.PigRecord, *args)
    assert _outcome(PigRecord, *args) == expected
    assert _outcome(PigRecord, **dict(zip(_NAMES, args))) == expected


def _pig_line():
    ids = ["0", "12", "-3", "+4", " 5", "1.5", "x"]
    times = ["0.0", "0.5", "1.0", "2", "1e0", "-0.0", "nan", "inf", "-inf", "x", "0_5"]
    pitches = ["C4", "Bb3", "F#4", "G9", "C-1", "H4", "C9999", "Cb-1", "c4", ""]
    velocities = ["80", "0", "-1", "x", "1_0"]
    channels = ["0", "1", "2", "-1", " 1", "x"]
    fingers = ["1", "-5", "1_2", "-1_-2", "6", "1_2_3", "0", "", "x"]
    fields = [ids, times, times, pitches, velocities, velocities, channels, fingers]
    return st.tuples(*map(st.sampled_from, fields)).map("\t".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(_pig_line() | st.sampled_from(["", "//header", "  ", "0\t1"]), max_size=6).map("\n".join))
def test_parse_pig_matches_the_reference_on_near_valid_lines(text):
    _parse_or_malformed(text)
