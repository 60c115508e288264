from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_bytes
from otpiano.pig import (
    MalformedPigLineError,
    PigRecord,
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
    try:
        parse_pig(text)
    except MalformedPigLineError:
        pass


@given(st.text() | st.binary().map(lambda data: data.decode("utf-8", "replace")))
def test_parse_pig_raises_only_malformed_lines_on_arbitrary_text(text):
    _parse_or_malformed(text)


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(GOLDEN.encode()))
def test_parse_pig_raises_only_malformed_lines_on_mutated_files(data):
    _parse_or_malformed(data.decode("utf-8", "replace"))
