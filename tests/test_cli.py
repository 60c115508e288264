from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import eval_reference
from conftest import episode_with_raw_meta, golden_songs, midi_bytes, note_off, note_on, set_tempo, simple_song
from otpiano import annotate, cli, store
from otpiano.cli import main
from otpiano.metrics import f1_rows
from otpiano.midi import observation_layout
from otpiano.pig import load_pig, save_pig
from otpiano.store import EpisodeRecord, corpus_pieces, csv_cell, iter_episodes, load_episode, reward_rows
from otpiano.store import rewards_csv, save_episode, song_key_counts


@pytest.fixture
def song_dir(tmp_path):
    """Two small songs: a slow two-note line and a later chord."""
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    # 480 ticks = 0.5 s at 120 bpm; stretched by 1.25 on annotation
    (midi_dir / "line.mid").write_bytes(
        simple_song([(60, 0, 960), (64, 960, 1920), (67, 1920, 2880)])
    )
    (midi_dir / "chord.mid").write_bytes(
        simple_song([(60, 480, 1440), (64, 480, 1440), (67, 480, 1440)], pedal=[(480, 100)])
    )
    return midi_dir


def _done_future(result) -> Future:
    future = Future()
    future.set_result(result)
    return future


def _annotate(song_dir, out_dir, *extra):
    return main(
        ["annotate", "--midi", str(song_dir), "--out", str(out_dir), "--episode-len", "32", *extra]
    )


def test_annotate_writes_all_outputs(song_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert _annotate(song_dir, out, "--pig-out") == 0
    captured = capsys.readouterr()
    assert "line\tsteps=" in captured.out
    assert "chord\tsteps=" in captured.out
    for stem in ("line", "chord"):
        assert (out / f"{stem}.goals.txt").exists()
        assert (out / f"{stem}.annotation.txt").exists()
        assert (out / f"{stem}.rewards.csv").exists()
        assert (out / f"{stem}.pig.txt").exists()
        assert (out / f"{stem}.ep000.rp1t").exists()
    # config snapshot is embedded in text outputs
    assert "hand.span_max" in (out / "line.annotation.txt").read_text()
    assert "# geometry.white_key_width" in (out / "line.goals.txt").read_text()


def test_annotate_episode_containers_are_canonical(song_dir, tmp_path):
    out = tmp_path / "out"
    assert _annotate(song_dir, out) == 0
    rec = load_episode(sorted(out.glob("line.ep*.rp1t"))[0])
    assert rec.obs_dim == 1144
    assert rec.act_dim == 39
    assert rec.length == 32
    assert rec.meta["song"] == "line"
    assert 0.0 <= rec.meta["f1"] <= 1.0
    assert rec.meta["embodiment"] == "ten-finger"


def test_lookahead_flag_changes_observation_width(song_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert _annotate(song_dir, out, "--lookahead", "4") == 0
    rec = load_episode(sorted(out.glob("line.ep*.rp1t"))[0])
    assert rec.obs_dim == 5 * 89 + 165  # non-canonical, but self-describing
    assert not rec.is_canonical
    # eval infers the goal window from the stored width
    assert main(["eval", "--episodes", str(out)]) == 0
    assert "OVERALL\t" in capsys.readouterr().out


def test_parallel_run_is_content_identical(song_dir, tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert _annotate(song_dir, serial) == 0
    assert _annotate(song_dir, parallel, "--jobs", "2") == 0
    for path in sorted(serial.iterdir()):
        assert (parallel / path.name).read_bytes() == path.read_bytes()


def test_parallel_run_starts_the_largest_file_first_and_prints_as_one_job(song_dir, tmp_path, capsys, monkeypatch):
    # a long song whose name sorts between the two short ones
    long_notes = [(60 + i % 12, 240 * i, 240 * i + 480) for i in range(40)]
    (song_dir / "dance.mid").write_bytes(simple_song(long_notes))
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert _annotate(song_dir, serial, "--pig-out") == 0
    printed = capsys.readouterr()
    assert _annotate(song_dir, parallel, "--pig-out", "--jobs", "2") == 0
    assert capsys.readouterr() == printed
    assert sorted(p.name for p in parallel.iterdir()) == sorted(p.name for p in serial.iterdir())
    for path in serial.iterdir():
        assert (parallel / path.name).read_bytes() == path.read_bytes()

    submitted = []

    class RecordingPool:  # runs each song in this process, so no worker starts
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, path, *args):
            submitted.append(Path(path).stem)
            return _done_future(fn(path, *args))

    monkeypatch.setattr(annotate, "ProcessPoolExecutor", RecordingPool)
    assert _annotate(song_dir, tmp_path / "recorded", "--jobs", "2") == 0
    sizes = {p.stem: p.stat().st_size for p in song_dir.iterdir()}
    assert submitted[0] == "dance"
    assert [sizes[stem] for stem in submitted] == sorted(sizes.values(), reverse=True)


def test_annotate_starts_no_more_workers_than_songs(song_dir, tmp_path, monkeypatch):
    # a stand-in pool that records its size and maps in this process, so no worker starts
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return _done_future(fn(*args))

    monkeypatch.setattr(annotate, "ProcessPoolExecutor", RecordingPool)
    assert _annotate(song_dir, tmp_path / "out", "--jobs", "64") == 0
    assert sizes == [2]


def test_annotate_strict_failure_lists_song(tmp_path, capsys):
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    pitches = [48 + i for i in range(11)]  # 11-note cluster
    (midi_dir / "cluster.mid").write_bytes(simple_song([(p, 0, 480) for p in pitches]))
    out = tmp_path / "out"
    assert _annotate(midi_dir, out) == 1
    err = capsys.readouterr().err
    assert "cluster" in err and "Infeasible" in err
    assert _annotate(midi_dir, out, "--best-effort") == 0


@pytest.mark.parametrize("extra", [(), ("--pig-out",)], ids=["plain", "pig-out"])
def test_annotate_reports_off_keyboard_notes_per_song(tmp_path, capsys, extra):
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    # pitch 12 lies below A0 and 120 above C8: each song leaves its note out and says so, in strict mode too
    (midi_dir / "high.mid").write_bytes(simple_song([(64, 0, 480), (120, 480, 960)]))
    (midi_dir / "low.mid").write_bytes(simple_song([(60, 0, 480), (12, 480, 960)]))
    out = tmp_path / "out"
    assert _annotate(midi_dir, out, *extra) == 0
    err = capsys.readouterr().err
    for pitch in (12, 120):
        assert f"  note: track 0: note outside the 88-key range left out (pitch {pitch}, tick 480)\n" in err
    if extra:
        assert [(record.pitch, record.onset) for record in load_pig(out / "low.pig.txt")] == [(60, 0.0)]


def _fail_one_song(monkeypatch, where):
    """Make ``chord`` (the only song with a three-key step) fail in annotate_song, or ``line`` at its third container."""
    if where == "annotate_song":
        annotate_song = annotate.annotate_song

        def failing(goals, *args, **kwargs):
            if goals.keys.sum(axis=1).max() >= 3:
                raise RuntimeError("injected failure")
            return annotate_song(goals, *args, **kwargs)

        monkeypatch.setattr(annotate, "annotate_song", failing)
        return "chord"
    save_episode = annotate.save_episode

    def failing(record, path):
        if path.name == "line.ep002.rp1t":
            raise OSError("injected failure")
        return save_episode(record, path)

    monkeypatch.setattr(annotate, "save_episode", failing)
    return "line"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("where", ["annotate_song", "save_episode"])
def test_annotate_failure_is_isolated_and_cleaned_up(song_dir, tmp_path, capsys, monkeypatch, where, jobs):
    # 16-step episodes: line writes goals, annotation, rewards and two containers before the third fails
    clean = tmp_path / "clean"
    assert _annotate(song_dir, clean, "--pig-out", "--episode-len", "16") == 0
    bad = _fail_one_song(monkeypatch, where)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _annotate(song_dir, out, "--pig-out", "--episode-len", "16", "--jobs", jobs) == 1
    captured = capsys.readouterr()
    assert f"FAIL {bad}: " in captured.err and "injected failure" in captured.err
    assert "1 of 2 songs failed" in captured.err
    assert not list(out.glob(f"{bad}.*"))
    good = sorted(path.name for path in clean.iterdir() if not path.name.startswith(f"{bad}."))
    assert sorted(path.name for path in out.iterdir()) == good
    for name in good:
        assert (out / name).read_bytes() == (clean / name).read_bytes()


@pytest.mark.parametrize("first", [("--episode-len", "8"), ("--pig-out",)], ids=["episode-len", "pig-out"])
def test_annotate_rerun_replaces_a_songs_files(song_dir, tmp_path, first):
    # the first run writes files the second does not: more containers, or a PIG file
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert _annotate(song_dir, fresh) == 0
    assert _annotate(song_dir, out, *first) == 0
    assert _annotate(song_dir, out) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(path.name for path in fresh.iterdir())
    for path in fresh.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("where", ["annotate_song", "save_episode"])
def test_annotate_failing_rerun_leaves_none_of_the_songs_files(song_dir, tmp_path, capsys, monkeypatch, where):
    out = tmp_path / "out"
    assert _annotate(song_dir, out, "--pig-out", "--episode-len", "16") == 0
    bad = _fail_one_song(monkeypatch, where)
    assert _annotate(song_dir, out, "--episode-len", "16") == 1
    assert f"FAIL {bad}: " in capsys.readouterr().err
    assert not list(out.glob(f"{bad}.*"))


def _assert_same_files(out, clean, except_songs=()):
    """``out`` holds exactly ``clean``'s files, byte for byte, bar those of ``except_songs``."""
    names = sorted(path.name for path in clean.iterdir() if path.name.split(".")[0] not in except_songs)
    assert sorted(path.name for path in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (clean / name).read_bytes()


def test_annotate_survives_a_killed_worker(song_dir, tmp_path, capsys, monkeypatch):
    long_notes = [(60 + i % 12, 240 * i, 240 * i + 480) for i in range(40)]
    (song_dir / "dance.mid").write_bytes(simple_song(long_notes))
    clean = tmp_path / "clean"
    assert _annotate(song_dir, clean, "--pig-out", "--episode-len", "16") == 0
    parent, save_episode = os.getpid(), annotate.save_episode

    def killing(record, path):
        if path.name.startswith("chord.") and os.getpid() != parent:
            os._exit(137)  # as a SIGKILL or an out-of-memory kill would end the worker
        return save_episode(record, path)

    monkeypatch.setattr(annotate, "save_episode", killing)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _annotate(song_dir, out, "--pig-out", "--episode-len", "16", "--jobs", "2") == 1
    err = capsys.readouterr().err
    failed = [line[len("FAIL ") :].split(":")[0] for line in err.splitlines() if line.startswith("FAIL ")]
    assert "FAIL chord: BrokenProcessPool: " in err
    # only the songs in flight beside the dead worker fail with it; a new pool runs the rest
    assert "chord" in failed and len(failed) <= 2
    assert f"{len(failed)} of 3 songs failed" in err
    _assert_same_files(out, clean, except_songs=failed)


def test_annotate_removes_a_stale_staging_directory(song_dir, tmp_path):
    clean, out = tmp_path / "clean", tmp_path / "out"
    assert _annotate(song_dir, clean) == 0
    staging = out / ".line.partial"
    (staging / "nested").mkdir(parents=True)
    (staging / "line.ep007.rp1t").write_bytes(b"junk")
    (staging / "nested" / "junk.txt").write_text("junk")
    assert _annotate(song_dir, out) == 0
    _assert_same_files(out, clean)


def test_annotate_failure_while_moving_files_into_place_leaves_none(song_dir, tmp_path, capsys, monkeypatch):
    clean, out = tmp_path / "clean", tmp_path / "out"
    assert _annotate(song_dir, clean) == 0
    replace, moved = os.replace, []

    def failing(source, target):  # line's third file fails, after two are in place
        if Path(target).name.startswith("line."):
            if len(moved) == 2:
                raise OSError("injected failure")
            moved.append(target)
        return replace(source, target)

    monkeypatch.setattr(os, "replace", failing)
    assert _annotate(song_dir, out) == 1
    assert "FAIL line: OSError: injected failure" in capsys.readouterr().err
    _assert_same_files(out, clean, except_songs=["line"])


def test_annotate_rerun_leaves_a_dotted_stems_files_alone(song_dir, tmp_path):
    # the files of song "line.epic" start with "line.", yet belong to another song than line's
    (song_dir / "line.epic.mid").write_bytes((song_dir / "chord.mid").read_bytes())
    out = tmp_path / "out"
    assert _annotate(song_dir, out, "--pig-out") == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    for name in ("line.mid", "line.epic.mid"):
        assert _annotate(song_dir / name, out, "--pig-out") == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_annotate_four_finger_embodiment(song_dir, tmp_path):
    out = tmp_path / "out"
    assert _annotate(song_dir, out, "--embodiment", "four-finger") == 0
    text = (out / "chord.annotation.txt").read_text()
    assert "# embodiment = four-finger" in text
    assert "5" not in [cell.split(":")[1][-1] for line in text.splitlines()
                       if line and not line.startswith("#")
                       for cell in line.split("\t")[2].split(";") if cell]


def test_annotate_rejects_missing_inputs(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["annotate", "--midi", str(empty), "--out", str(tmp_path / "o")]) == 2


_BAD_CONFIGS = [
    ("--geometry", "white_key_width = abc"),
    ("--geometry", "origin = 0.1 0.2"),
    ("--reward-config", "threshold = abc"),
    ("--reward-config", "threshold = nan"),
    ("--reward-config", "tolerance_bounds = 0.1"),
    ("--reward-config", "alpha_collision = yes"),
    ("--embodiment", "disabled = 7"),
    ("--embodiment", "disabled = 0"),
    ("--embodiment", "disabled = 2.5"),
    ("--embodiment", "disabled = true"),
    ("--embodiment", "disabled = 1 2 3 4 5"),
    ("--embodiment", "name = 7"),
    ("--embodiment", "name = true"),
]


@pytest.mark.parametrize("flag,text", _BAD_CONFIGS, ids=[text for _, text in _BAD_CONFIGS])
def test_annotate_rejects_bad_config_values(song_dir, tmp_path, capsys, flag, text):
    config = tmp_path / "bad.cfg"
    config.write_text(text + "\n")
    out = tmp_path / "out"
    assert _annotate(song_dir, out, flag, str(config)) == 2
    assert "bad configuration" in capsys.readouterr().err
    assert not out.exists()


_BAD_DEBUG_CONFIGS = [(flag, text) for flag, text in _BAD_CONFIGS if flag != "--reward-config"]


@pytest.mark.parametrize("flag,text", _BAD_DEBUG_CONFIGS, ids=[text for _, text in _BAD_DEBUG_CONFIGS])
def test_debug_assign_rejects_bad_config_values(tmp_path, capsys, flag, text):
    config = tmp_path / "bad.cfg"
    config.write_text(text + "\n")
    assert main(["debug-assign", "--pitches", "60,64,67", flag, str(config)]) == 2
    assert "bad inputs" in capsys.readouterr().err


def test_annotate_rejects_missing_midi_path(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["annotate", "--midi", str(tmp_path / "missing.mid"), "--out", str(out)]) == 2
    assert "missing.mid" in capsys.readouterr().err
    assert not out.exists()


def test_annotate_rejects_output_path_that_is_a_file(song_dir, tmp_path, capsys):
    out = tmp_path / "out.txt"
    out.write_text("keep me")
    assert _annotate(song_dir, out) == 2
    assert "out.txt" in capsys.readouterr().err
    assert out.read_text() == "keep me"


def test_annotate_rejects_songs_sharing_a_stem(song_dir, tmp_path, capsys):
    (song_dir / "line.MIDI").write_bytes((song_dir / "chord.mid").read_bytes())
    out = tmp_path / "out"
    assert _annotate(song_dir, out, "--jobs", "2") == 2
    err = capsys.readouterr().err
    assert "line.MIDI" in err and "line.mid" in err and "chord" not in err
    assert not out.exists()


def test_annotate_skips_directories_named_like_songs(song_dir, tmp_path, capsys):
    # neither a song of its own nor a stem clash with line.mid
    (song_dir / "sub.mid").mkdir()
    (song_dir / "line.MIDI").mkdir()
    out = tmp_path / "out"
    assert _annotate(song_dir, out) == 0
    assert "FAIL" not in capsys.readouterr().err
    assert {path.name.split(".")[0] for path in out.iterdir()} == {"line", "chord"}


def test_annotate_one_midi_file(song_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["annotate", "--midi", str(song_dir / "line.mid"), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("line\tsteps=")
    assert {path.name.split(".")[0] for path in out.iterdir()} == {"line"}


def test_annotate_notes_midi_problems_and_succeeds(tmp_path, capsys):
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    # pitch 60 is never released
    events = [(0, set_tempo(500000)), (0, note_on(0, 60)), (480, note_on(0, 64)), (480, note_off(0, 64))]
    (midi_dir / "hanging.mid").write_bytes(midi_bytes([events]))
    assert _annotate(midi_dir, tmp_path / "out") == 0
    captured = capsys.readouterr()
    assert "hanging\tsteps=" in captured.out
    assert "  note: track 0: note-on without note-off (pitch 60, tick 0)\n" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["stats", "--in", "{tmp}/early.pig"], "not a directory"),
        (["eval", "--pig-ours", "{tmp}/early.pig", "--pig-human", "{tmp}/late.pig"], "agreement undefined"),
        (["debug-assign", "--pitches", ","], "need at least one pitch"),
    ],
    ids=["stats-in-file", "pig-without-match", "no-pitch"],
)
def test_unusable_inputs_exit_2(tmp_path, capsys, argv, message):
    # the only notes of the two PIG files lie 2 s apart, so no note matches
    (tmp_path / "early.pig").write_text("0\t0.0\t0.5\tC4\t80\t80\t0\t1\n")
    (tmp_path / "late.pig").write_text("0\t2.0\t2.5\tC4\t80\t80\t0\t1\n")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and not captured.out


@pytest.mark.parametrize(
    "argv",
    [["eval", "--episodes", "{out}", "--csv"], ["eval", "--episodes", "{out}", "--rewards-csv"], ["stats", "--in", "{out}", "--csv"]],
    ids=["eval-csv", "eval-rewards-csv", "stats-csv"],
)
def test_unwritable_report_exits_2(song_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert _annotate(song_dir, out) == 0
    capsys.readouterr()
    target = tmp_path / "missing" / "report.csv"
    assert main([*(arg.format(out=out) for arg in argv), str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--episodes", "{out}", "--csv", "{tmp}/ok.csv", "--rewards-csv", "{tmp}/missing/r.csv"],
        ["eval", "--episodes", "{out}", "--csv", "{tmp}/ok.csv", "--rewards-csv", "{tmp}"],
        ["stats", "--in", "{out}", "--csv", "{tmp}/missing/h.csv"],
        ["eval", "--episodes", "{out}", "--csv", "{tmp}/ok.csv", "--rewards-csv", "{tmp}/../{tmp.name}/ok.csv"],
    ],
    ids=["eval-missing-dir", "eval-is-dir", "stats-missing-dir", "eval-one-file"],
)
def test_report_paths_are_checked_before_any_output(song_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert _annotate(song_dir, out) == 0
    capsys.readouterr()
    assert main([arg.format(out=out, tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write ") and not captured.out
    assert not (tmp_path / "ok.csv").exists()


def test_eval_episodes(song_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(song_dir, out)
    csv_path = tmp_path / "eval.csv"
    assert main(["eval", "--episodes", str(out), "--csv", str(csv_path)]) == 0
    captured = capsys.readouterr().out
    assert "song\tprecision\trecall\tf1" in captured
    assert "line\t" in captured
    assert "OVERALL\t" in captured
    raw = csv_path.read_text().strip().splitlines()
    assert raw[0].startswith("# press_threshold")
    lines = [l for l in raw if not l.startswith("#")]
    assert lines[0] == "song,precision,recall,f1"
    assert len(lines) == 4  # two songs plus the corpus-level row
    assert lines[-1].startswith("OVERALL,")


@pytest.mark.parametrize("threshold", ["0.5", "1e-3", "1"])
def test_eval_counts_equal_the_joined_traces(tmp_path, threshold):
    # four-finger best-effort drops keys, so precision and recall differ from 1 and from song to song
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    for name, data in golden_songs().items():
        (midi_dir / f"{name}.mid").write_bytes(data)
    out, csv_path = tmp_path / "out", tmp_path / "eval.csv"
    assert _annotate(midi_dir, out, "--embodiment", "four-finger", "--best-effort", "--episode-len", "24") == 0
    assert main(["eval", "--episodes", str(out), "--press-threshold", threshold, "--csv", str(csv_path)]) == 0
    expected = eval_reference.eval_rows(out, float(threshold))
    lines = [f"{csv_cell(s)},{p!r},{r!r},{v!r}" for s, p, r, v in expected]
    assert csv_path.read_text().splitlines()[3:] == lines
    assert len({line.split(",", 1)[1] for line in lines}) > 2
    # the library rows, without the command line
    assert f1_rows(song_key_counts(out, float(threshold))) == expected


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_eval_rejects_press_threshold_outside_unit_interval(song_dir, tmp_path, capsys, threshold):
    out = tmp_path / "out"
    assert _annotate(song_dir, out) == 0
    capsys.readouterr()
    assert main(["eval", "--episodes", str(out), "--press-threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert "press-threshold" in captured.err and not captured.out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.05"])
def test_eval_rejects_onset_tolerance_outside_range(capsys, monkeypatch, tolerance):
    monkeypatch.setattr(cli, "load_pig", lambda path: pytest.fail("a PIG file was read before the check"))
    assert main(["eval", "--pig-ours", "a.pig", "--pig-human", "b.pig", "--onset-tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("onset-tolerance must be finite and >= 0") and not captured.out


def test_eval_rewards_csv(song_dir, tmp_path):
    out = tmp_path / "out"
    _annotate(song_dir, out)
    rewards_path = tmp_path / "rewards.csv"
    assert main(["eval", "--episodes", str(out), "--rewards-csv", str(rewards_path)]) == 0
    lines = [l for l in rewards_path.read_text().strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "song,chunk,step,reward,f1"
    assert len(lines) > 32  # one row per step per episode
    # the streamed file holds the bytes of the whole export written at once
    rows = [line for rec in iter_episodes(out) for line in reward_rows(rec)]
    assert rewards_path.read_text() == "# press_threshold = 0.5\n# importer = native\n" + rewards_csv(rows)
    assert sorted(os.listdir(tmp_path)) == ["midi", "out", "rewards.csv"]


@pytest.mark.parametrize("case", ["corrupt-last-container", "no-containers"])
def test_eval_rewards_csv_failure_leaves_no_file(song_dir, tmp_path, capsys, case):
    out, reports = tmp_path / "out", tmp_path / "reports"
    reports.mkdir()
    if case == "no-containers":
        out.mkdir()
    else:
        assert _annotate(song_dir, out) == 0
        last = sorted(out.glob("*.rp1t"))[-1]
        data = bytearray(last.read_bytes())
        data[30] ^= 0xFF  # a payload byte, after the lines of the earlier containers went out
        last.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["eval", "--episodes", str(out), "--rewards-csv", str(reports / "rewards.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("no episode files" if case == "no-containers" else "cannot read episodes")
    assert not captured.out
    assert os.listdir(reports) == []


def test_eval_rewards_csv_write_failure_leaves_no_file(song_dir, tmp_path, capsys, monkeypatch):
    out, reports = tmp_path / "out", tmp_path / "reports"
    reports.mkdir()
    assert _annotate(song_dir, out) == 0
    assert len(list(out.glob("*.rp1t"))) > 1
    replacing, written = cli.replacing, []

    class FullDisk:  # takes the header and the first container's lines, then fails
        def __init__(self, fh):
            self.write = fh.write
            self.fh = fh

        def writelines(self, lines):
            if written:
                raise OSError(28, "No space left on device")
            written.append(1)
            self.fh.writelines(lines)

    @contextlib.contextmanager
    def failing(path, **kwargs):
        with replacing(path, **kwargs) as fh:
            yield FullDisk(fh)

    monkeypatch.setattr(cli, "replacing", failing)
    target = reports / "rewards.csv"
    capsys.readouterr()
    assert main(["eval", "--episodes", str(out), "--rewards-csv", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write {target}: ") and "No space left" in captured.err
    assert not captured.out and written
    assert os.listdir(reports) == []


def test_eval_refuses_a_song_named_overall(song_dir, tmp_path, capsys):
    (song_dir / "OVERALL.mid").write_bytes((song_dir / "line.mid").read_bytes())
    out, reports = tmp_path / "out", tmp_path / "reports"
    reports.mkdir()
    assert _annotate(song_dir, out) == 0
    capsys.readouterr()
    argv = ["eval", "--episodes", str(out), "--csv", str(reports / "eval.csv"), "--rewards-csv", str(reports / "r.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "a song named OVERALL would read as the total row" in captured.err and not captured.out
    assert os.listdir(reports) == []


def test_annotate_rejects_bad_flags(song_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["annotate", "--midi", str(song_dir), "--out", str(out), "--dt", "0"]) == 2
    assert main(["annotate", "--midi", str(song_dir), "--out", str(out), "--lookahead", "-1"]) == 2
    for flag in ("--dt", "--stretch"):
        for value in ("nan", "inf"):
            assert main(["annotate", "--midi", str(song_dir), "--out", str(out), flag, value]) == 2
    assert not out.exists()


def test_rest_offset_override_is_recorded(song_dir, tmp_path):
    headers, configs = [], []
    for name, text in (("plain", ""), ("moved", "rest_offset.L1 = 0.01 0 0\n")):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        out = tmp_path / name
        assert _annotate(song_dir, out, "--embodiment", str(config)) == 0
        headers.append([line for line in (out / "line.annotation.txt").read_text().splitlines() if line.startswith("#")])
        configs.append(load_episode(out / "line.ep000.rp1t").meta["config"])
    assert [line for line in headers[1] if line not in headers[0]] == ["# hand.rest_offset.L1 = (0.01, 0.0, 0.0)"]
    assert configs[1] == {**configs[0], "hand.rest_offset.L1": "(0.01, 0.0, 0.0)"}


def test_eval_pig_agreement(song_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(song_dir, out, "--pig-out")
    pig = out / "line.pig.txt"
    assert main(["eval", "--pig-ours", str(pig), "--pig-human", str(pig)]) == 0
    assert "agreement=1.000000" in capsys.readouterr().out
    # a zero tolerance still matches equal onsets
    assert main(["eval", "--pig-ours", str(pig), "--pig-human", str(pig), "--onset-tolerance", "0"]) == 0
    assert "agreement=1.000000\tmatched=3\tunmatched_ours=0" in capsys.readouterr().out


def test_eval_pig_agreement_reads_a_file_with_a_byte_order_mark(song_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(song_dir, out, "--pig-out")
    pig = out / "line.pig.txt"
    bom = tmp_path / "bom.pig.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + pig.read_bytes())
    capsys.readouterr()
    assert main(["eval", "--pig-ours", str(pig), "--pig-human", str(bom)]) == 0
    assert "agreement=1.000000\tmatched=3\tunmatched_ours=0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra",
    [
        ["--episodes", "{out}", "--pig-ours", "{pig}", "--pig-human", "{pig}"],
        ["--episodes", "{out}", "--pig-ours", "{pig}"],
        ["--episodes", "{out}", "--pig-human", "{pig}"],
        ["--pig-ours", "{pig}", "--pig-human", "{pig}", "--csv", "{tmp}/scores.csv"],
        ["--pig-ours", "{pig}", "--pig-human", "{pig}", "--rewards-csv", "{tmp}/rewards.csv"],
    ],
    ids=["episodes-and-both-pig", "episodes-and-pig-ours", "episodes-and-pig-human", "pig-and-csv", "pig-and-rewards-csv"],
)
def test_eval_refuses_the_other_modes_flags_before_reading(song_dir, tmp_path, capsys, monkeypatch, extra):
    out = tmp_path / "out"
    _annotate(song_dir, out, "--pig-out")
    capsys.readouterr()

    def unread(*args, **kwargs):
        raise AssertionError("input read")

    monkeypatch.setattr(store, "iter_episodes", unread)
    monkeypatch.setattr(cli, "load_pig", unread)
    argv = [arg.format(out=out, pig=out / "line.pig.txt", tmp=tmp_path) for arg in extra]
    assert main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert not captured.out and ("not both" in captured.err or "need --episodes" in captured.err)
    assert not list(tmp_path.glob("*.csv"))


def _eval_flags(parser) -> list:
    """The option strings of the parser's ``eval`` flags, ``--help`` aside."""
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return [action.option_strings[0] for action in sub.choices["eval"]._actions if action.dest != "help"]


def _shifted_pig_copy(pig, path, shift, every=1):
    """``pig`` with every ``every``-th note moved later by ``shift`` seconds, saved at ``path``."""
    records = load_pig(pig)
    moved = [
        dataclasses.replace(rec, onset=rec.onset + shift, offset=rec.offset + shift) if n % every == 0 else rec
        for n, rec in enumerate(records)
    ]
    save_pig(moved, path)
    return path


def test_every_eval_flag_changes_the_output_or_exits_2(song_dir, tmp_path, capsys):
    out, reports = tmp_path / "out", tmp_path / "reports"
    reports.mkdir()
    assert _annotate(song_dir, out, "--pig-out") == 0
    # key joints at depth 0.6 in one container, so the press threshold decides which keys count as pressed
    path = out / "line.ep000.rp1t"
    rec = load_episode(path)
    start, stop = observation_layout()["key_joints"]
    observations = np.array(rec.observations)
    observations[:, start:stop] *= 0.6
    save_episode(EpisodeRecord(observations, np.array(rec.actions), np.array(rec.rewards), meta=rec.meta), path)
    # one of the three notes 0.1 s late: the default tolerance misses it, a wider one matches it
    human = _shifted_pig_copy(out / "line.pig.txt", tmp_path / "human.pig.txt", 0.1, every=2)
    values = {
        "--episodes": out, "--press-threshold": "0.9", "--csv": reports / "scores.csv",
        "--rewards-csv": reports / "rewards.csv", "--pig-ours": out / "line.pig.txt", "--pig-human": human,
        "--onset-tolerance": "0.2",
    }
    # a flag added to eval must be given a value here, and so falls under this test
    assert sorted(_eval_flags(cli.build_parser())) == sorted(values)

    def run(flags):
        for report in reports.iterdir():
            report.unlink()
        code = main(["eval", *(str(arg) for flag in flags for arg in (flag, values[flag]))])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, {report.name: report.read_text() for report in reports.iterdir()}

    capsys.readouterr()
    for base in (["--episodes"], ["--pig-ours", "--pig-human"]):
        expected = run(base)
        assert expected[0] == 0 and expected[1]
        for flag in values:
            toggled = [f for f in base if f != flag] if flag in base else [*base, flag]
            code, stdout, stderr, written = run(toggled)
            if code == 2:
                assert not stdout and not written, (base, flag)
            else:
                assert code == 0 and (code, stdout, stderr, written) != expected, (base, flag)


def test_main_keeps_one_parser_per_process(song_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert _annotate(song_dir, out, "--pig-out") == 0
    pig = out / "line.pig.txt"
    # every note 0.02 s late: matched at the 0.05 s default, unmatched at a zero tolerance
    late = _shifted_pig_copy(pig, tmp_path / "late.pig.txt", 0.02)
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    agree = ["eval", "--pig-ours", str(pig), "--pig-human", str(late)]
    capsys.readouterr()
    assert main([*agree, "--onset-tolerance", "0"]) == 2  # nothing matched: agreement undefined
    assert capsys.readouterr().err.startswith("agreement undefined")
    assert main(agree) == 0
    assert "agreement=1.000000\tmatched=3\tunmatched_ours=0" in capsys.readouterr().out
    with pytest.raises(SystemExit) as usage:
        main([*agree, "--no-such-flag"])
    assert usage.value.code == 2
    assert main(["eval", "--episodes", str(out), "--onset-tolerance", "0.2"]) == 2
    assert main(agree) == 0
    assert "matched=3" in capsys.readouterr().out
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    assert capsys.readouterr().out.startswith("otpiano ")
    assert len(builds) == 1
    # the kept parser parses as a new one does
    for argv in (agree, ["eval", "--episodes", str(out)], ["stats", "--in", str(out)], ["annotate", "--midi", "m", "--out", "o"]):
        assert cli._PARSER.parse_args(argv) == build().parse_args(argv)


def test_eval_exit_codes(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", "--episodes", str(empty)]) == 2
    assert main(["eval", "--episodes", str(tmp_path / "missing")]) == 2
    assert main(["eval"]) == 2
    assert main(["eval", "--pig-ours", "nope.txt", "--pig-human", "nope.txt"]) == 2


def test_stats_reports_and_csv(song_dir, tmp_path, capsys):
    out = tmp_path / "out"
    _annotate(song_dir, out)
    csv_path = tmp_path / "hist.csv"
    assert main(["stats", "--in", str(out), "--f1-meta", "--csv", str(csv_path)]) == 0
    captured = capsys.readouterr().out
    assert "white fraction:" in captured
    assert "fraction f1 >= 0.75" in captured
    lines = [l for l in csv_path.read_text().strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "key,midi_pitch,color,count"
    assert len(lines) == 89


@pytest.mark.parametrize("command", ["eval", "stats"])
def test_non_object_episode_metadata_exits_2(tmp_path, capsys, command):
    (tmp_path / "bad.ep000.rp1t").write_bytes(episode_with_raw_meta(b"[1, 2]"))
    flag = "--episodes" if command == "eval" else "--in"
    assert main([command, flag, str(tmp_path)]) == 2
    assert "metadata must be a JSON object" in capsys.readouterr().err


def _rewrite_meta(path, **changes):
    rec = load_episode(path)
    save_episode(EpisodeRecord(rec.observations, rec.actions, rec.rewards, meta={**rec.meta, **changes}), path)


@pytest.mark.parametrize(
    "value",
    [None, [0.5], {"f1": 0.5}, True, float("nan"), float("inf"), -float("inf"), "nan", "inf", 7.5, -3.0, 10**400],
    ids=["null", "list", "object", "bool", "nan", "inf", "-inf", "nan-text", "inf-text", "above-1", "below-0", "huge-int"],
)
def test_stats_non_numeric_f1_metadata_exits_2(song_dir, tmp_path, capsys, value):
    out = tmp_path / "out"
    assert _annotate(song_dir, out) == 0
    _rewrite_meta(sorted(out.glob("*.rp1t"))[0], f1=value)
    capsys.readouterr()
    assert main(["stats", "--in", str(out), "--f1-meta"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read inputs")


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_stats_accepts_f1_metadata_at_the_range_ends(song_dir, tmp_path, capsys, value):
    out = tmp_path / "out"
    assert _annotate(song_dir, out) == 0
    for path in out.glob("*.rp1t"):
        _rewrite_meta(path, f1=value)
    capsys.readouterr()
    assert main(["stats", "--in", str(out), "--f1-meta"]) == 0
    captured = capsys.readouterr().out
    assert f"fraction f1 >= 0.5: {value:.6f}" in captured
    assert f"fraction f1 >= 0.75: {value:.6f}" in captured


@pytest.mark.parametrize(
    "argv,width,goals",
    [
        (["eval", "--episodes"], 5, False),
        (["stats", "--f1-meta", "--in"], 5, False),
        (["eval", "--episodes"], 100, False),
        (["stats", "--f1-meta", "--in"], 100, False),
        (["stats", "--f1-meta", "--in"], 100, True),
    ],
    ids=["eval", "stats", "eval-width-100", "stats-width-100", "stats-width-100-beside-goals"],
)
def test_bad_observation_width_exits_2(tmp_path, capsys, argv, width, goals):
    # a well-formed container whose observations fit no observation layout; 100 columns hold 88 goal keys.
    # Beside the song's goal file, stats reads the container only for its F1 metadata, and must still check it
    record = EpisodeRecord(np.zeros((3, width)), np.zeros((3, 1)), np.zeros(3), meta={"song": "narrow", "f1": 0.5})
    save_episode(record, tmp_path / "narrow.ep000.rp1t")
    if goals:
        (tmp_path / "narrow.goals.txt").write_text("# dt = 0.05\n0\t0\t39\n")
    assert main([*argv, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot read")
    assert f"obs_dim {width} does not match the observation layout" in captured.err


def test_eval_csv_exports_quote_song_names(tmp_path):
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    names = ["Op. 10, No. 3", 'say "hi"', "plain"]
    for name in names:
        (midi_dir / f"{name}.mid").write_bytes(simple_song([(60, 0, 960), (64, 960, 1920)]))
    out = tmp_path / "out"
    assert _annotate(midi_dir, out) == 0
    # metadata cells are quoted too
    _rewrite_meta(sorted(out.glob("plain.*.rp1t"))[0], chunk="a,b", f1=[0.5, 0.25])
    csv_path, rewards_path = tmp_path / "eval.csv", tmp_path / "rewards.csv"
    argv = ["eval", "--episodes", str(out), "--csv", str(csv_path), "--rewards-csv", str(rewards_path)]
    assert main(argv) == 0
    for path, width, expected in ((csv_path, 4, {*names, "OVERALL"}), (rewards_path, 5, set(names))):
        text = path.read_text()
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        rows = list(csv.reader(lines))
        assert all(len(row) == width for row in rows)
        assert {row[0] for row in rows[1:]} == expected
    assert ["a,b", "[0.5, 0.25]"] in [[row[1], row[4]] for row in rows]
    assert "\nplain," in rewards_path.read_text()  # names without special characters stay unquoted


def test_stats_exit_code_on_empty(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["stats", "--in", str(empty)]) == 2


@pytest.mark.parametrize("count_mode", ["onsets", "steps"])
def test_stats_counts_a_song_once_without_its_goal_file(tmp_path, capsys, count_mode):
    midi = tmp_path / "midi"
    midi.mkdir()
    (midi / "legato.mid").write_bytes(golden_songs()["legato"])
    full = tmp_path / "full"
    assert main(["annotate", "--midi", str(midi), "--out", str(full), "--episode-len", "64"]) == 0
    # only the containers, named so that file order is the reverse of chunk order
    episodes = sorted(full.glob("*.rp1t"))
    assert len(episodes) > 2
    only = tmp_path / "only"
    only.mkdir()
    for n, path in enumerate(reversed(episodes)):
        (only / f"part{n:03d}.rp1t").write_bytes(path.read_bytes())
    outputs = []
    for directory in (full, only):
        csv_path = tmp_path / f"{directory.name}.csv"
        capsys.readouterr()
        argv = ["stats", "--in", str(directory), "--f1-meta", "--count-mode", count_mode, "--csv", str(csv_path)]
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, csv_path.read_text()))
    assert "pieces: 1\n" in outputs[0][0]
    assert outputs[1] == outputs[0]
    # the library pieces, without the command line: the goal file's, and the containers joined
    (goals,), full_f1 = corpus_pieces(full, f1_meta=True)
    (joined,), only_f1 = corpus_pieces(only, f1_meta=True)
    assert np.array_equal(joined.keys, goals.keys)
    assert sorted(only_f1) == sorted(full_f1) and len(full_f1) == len(episodes)
    assert corpus_pieces(only)[1] == []


def test_debug_assign(capsys):
    assert main(["debug-assign", "--pitches", "60,64,67"]) == 0
    out = capsys.readouterr().out
    assert "total cost:" in out
    assert out.count("*") == 3


def test_debug_assign_best_effort(capsys):
    pitches = ",".join(str(48 + i) for i in range(11))
    assert main(["debug-assign", "--pitches", pitches]) == 1
    assert "keys but only" in capsys.readouterr().err
    assert main(["debug-assign", "--pitches", pitches, "--best-effort"]) == 0
    assert "dropped keys:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "body",
    ["0\t0\t95\n", "0\t0\t39,-5\n", "0\t7\t39\n", "# dtype: float\n0\t0\t39\n"],
    ids=["key-95", "key-minus-5", "sustain-7", "dtype-comment"],
)
def test_stats_rejects_bad_goal_files(tmp_path, capsys, body):
    (tmp_path / "bad.goals.txt").write_text(body)
    assert main(["stats", "--in", str(tmp_path)]) == 2
    assert "cannot read inputs" in capsys.readouterr().err


def test_importer_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(["stats", "--in", str(tmp_path), "--importer", "native"])
    with pytest.raises(SystemExit):
        main(["eval", "--episodes", str(tmp_path), "--importer", "native"])
