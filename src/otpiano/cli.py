"""Batch command-line frontend: annotate songs, evaluate rollouts, corpus stats.

Subcommands write files and text/CSV reports for downstream programs; there
is no interactive mode.  ``annotate`` replaces each song's files in ``--out``
as a set and prints the song's MIDI problems, off-keyboard notes included, as
``note:`` lines; ``eval`` and ``stats`` check their report paths before they
read any input.  Exit codes: 0 success, 1 failed songs (each reported,
leaving no files) or an infeasible debug-assign chord, 2 an unusable input or output path.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .annotate import (
    DEFAULT_EPISODE_LEN,
    annotate_song,
    annotation_to_pig,
    build_episode_record,
    chunk_episodes,
    score_annotation,
    write_annotation_text,
)
from .assign import InfeasibleError, build_cost_matrix, format_debug_table, solve_assignment
from .config import load_config
from .hand import HandConfig, init_hands
from .keyboard import KeyboardGeometry, is_black, key_for_pitch, pitch_for_key
from .metrics import DEFAULT_PRESS_THRESHOLD, F1_THRESHOLDS, dataset_stats, f1, fingering_agreement, precision_recall
from .midi import (
    DEFAULT_DT,
    DEFAULT_LOOKAHEAD,
    DEFAULT_STRETCH,
    GoalSequence,
    discretize,
    goal_from_text,
    goal_to_text,
    load_midi,
)
from .pig import load_pig, save_pig
from .reward import RewardParams
from .store import EPISODE_SUFFIX, csv_cell, iter_episodes, reward_rows, rewards_csv, save_episode, score_csv

_MIDI_SUFFIXES = (".mid", ".midi")
_SONG_SUFFIXES = (".goals.txt", ".annotation.txt", ".rewards.csv", ".pig.txt")  # besides .epNNN containers


class UsageError(Exception):
    """An unusable input or output path: ``main`` prints the message and exits 2."""


def _check_report_paths(*paths) -> None:
    """Refuse, before any input is read, a report path that cannot be a file in an existing directory."""
    for path in map(Path, filter(None, paths)):
        if path.is_dir():
            raise UsageError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise UsageError(f"cannot write {path}: {path.parent} is not a directory")


def _write_report(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _load_settings(cls, path):
    """``cls`` read from a config file, or its defaults without one."""
    if path is None:
        return cls()
    return cls.from_mapping(load_config(path))


def _load_embodiment(spec: str) -> HandConfig:
    if spec in ("default", "ten-finger"):
        return HandConfig.default()
    if spec == "four-finger":
        return HandConfig.four_finger()
    if not Path(spec).exists():
        raise FileNotFoundError(f"embodiment {spec!r} is neither a builtin name nor a config file")
    return _load_settings(HandConfig, spec)


def _midi_paths(root: Path) -> list:
    if root.is_dir():
        return sorted(p for p in root.iterdir() if p.suffix.lower() in _MIDI_SUFFIXES and p.is_file())
    return [root]


def _file_size(path: str) -> int:
    """Bytes in the file, or 0 if it cannot be read (its song then fails on its own)."""
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _snapshot_comments(snapshot: dict) -> list:
    return [f"{key} = {snapshot[key]}" for key in sorted(snapshot)]


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------


def _process_song(task: dict) -> dict:
    """Annotate one MIDI file and write all outputs; returns a summary dict.

    The files an earlier run wrote for the song's stem are deleted first, so
    afterwards the song's files in the output directory are exactly this
    run's.  Any failure becomes an ``error`` entry and removes the files the
    song had already started to write.  ``problems`` lists the song's
    ``MidiSong.problems``, off-keyboard notes included.
    """
    path = Path(task["path"])
    out_dir = Path(task["out"])
    geom = task["geom"]
    hands = task["hands"]
    params = task["params"]
    stem = path.stem
    written = []

    def output(suffix: str) -> Path:
        written.append(out_dir / f"{stem}{suffix}")
        return written[-1]

    try:
        # a re-run replaces the song's files as a set: delete what an earlier run wrote, found by name
        for suffix in _SONG_SUFFIXES:
            (out_dir / f"{stem}{suffix}").unlink(missing_ok=True)
        index = 0
        while (stale := out_dir / f"{stem}.ep{index:03d}{EPISODE_SUFFIX}").exists():
            stale.unlink()
            index += 1
        song = load_midi(path)
        goals = discretize(
            song.notes,
            dt=task["dt"],
            stretch=task["stretch"],
            trim_silence=task["trim_silence"],
            pedal=song.pedal,
        )
        annotation = annotate_song(goals, hands, geom, params, best_effort=task["best_effort"])
        snapshot = {
            **annotation.snapshot,
            "midi.stretch": task["stretch"],
            "midi.trim_silence": task["trim_silence"],
            "run.lookahead": task["lookahead"],
            "run.episode_len": task["episode_len"],
            "run.best_effort": task["best_effort"],
        }
        comments = _snapshot_comments(snapshot)
        output(".goals.txt").write_text("".join(f"# {c}\n" for c in comments) + goal_to_text(goals), encoding="utf-8")
        output(".annotation.txt").write_text(write_annotation_text(annotation, snapshot), encoding="utf-8")
        scores = score_annotation(goals, annotation, params)
        output(".rewards.csv").write_text("".join(f"# {c}\n" for c in comments) + score_csv(scores), encoding="utf-8")
        if task["pig_out"]:
            records = annotation_to_pig(annotation, song.notes, stretch=task["stretch"], trim_silence=task["trim_silence"])
            save_pig(records, output(".pig.txt"), header_comments=comments)
        episodes = chunk_episodes(goals, annotation, task["episode_len"])
        for episode in episodes:
            record = build_episode_record(
                episode, goals, annotation, scores.total, params, stem, snapshot, task["lookahead"]
            )
            save_episode(record, output(f".ep{episode.index:03d}{EPISODE_SUFFIX}"))
    except Exception as exc:
        for written_path in written:
            with contextlib.suppress(OSError):
                written_path.unlink()
        return {"song": stem, "error": f"{type(exc).__name__}: {exc}"}
    return {
        "song": stem,
        "steps": len(goals),
        "mean_d_ot": annotation.mean_distance,
        "dropped_steps": annotation.dropped_step_count,
        "episodes": len(episodes),
        "problems": list(song.problems),
    }


def cmd_annotate(args) -> int:
    midi = Path(args.midi)
    if not midi.exists():
        raise UsageError(f"no such MIDI file or directory: {midi}")
    paths = _midi_paths(midi)
    if not paths:
        raise UsageError(f"no MIDI files under {args.midi}")
    stems = Counter(p.stem for p in paths)
    clashes = [p.name for p in paths if stems[p.stem] > 1]
    if clashes:
        raise UsageError(f"songs would write over each other's outputs: {', '.join(clashes)}")
    finite = 0 < args.dt < math.inf and 0 < args.stretch < math.inf
    if not finite or args.episode_len <= 0 or args.lookahead < 0 or args.jobs < 1:
        raise UsageError("dt, stretch and episode-len must be positive and finite; lookahead >= 0; jobs >= 1")
    try:
        geom = _load_settings(KeyboardGeometry, args.geometry)
        hands = _load_embodiment(args.embodiment)
        params = _load_settings(RewardParams, args.reward_config)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}") from exc
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out_dir}: {exc}") from exc
    tasks = [
        {
            "path": str(p),
            "out": str(out_dir),
            "geom": geom,
            "hands": hands,
            "params": params,
            "dt": args.dt,
            "stretch": args.stretch,
            "trim_silence": not args.no_trim_silence,
            "best_effort": args.best_effort,
            "episode_len": args.episode_len,
            "lookahead": args.lookahead,
            "pig_out": args.pig_out,
        }
        for p in paths
    ]
    if args.jobs > 1 and len(tasks) > 1:
        # largest file first, so that no worker starts the longest song after the others are done
        tasks.sort(key=lambda task: _file_size(task["path"]), reverse=True)
        # under fork every worker starts at the first submit: start no more than there are songs
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            results = list(pool.map(_process_song, tasks))
    else:
        results = [_process_song(t) for t in tasks]

    failures = []
    for res in sorted(results, key=lambda r: r["song"]):
        if "error" in res:
            failures.append(res)
            print(f"FAIL {res['song']}: {res['error']}", file=sys.stderr)
            continue
        print(
            f"{res['song']}\tsteps={res['steps']}\tmean_d_ot={res['mean_d_ot']:.6f}"
            f"\tdropped_steps={res['dropped_steps']}\tepisodes={res['episodes']}"
        )
        for problem in res["problems"]:
            print(f"  note: {problem}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(results)} songs failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    if args.episodes is None and not (args.pig_ours and args.pig_human):
        raise UsageError("eval needs --episodes or both --pig-ours and --pig-human")

    if args.episodes is not None:
        if not 0.0 < args.press_threshold <= 1.0:  # key depths lie in [0, 1]; nan fails this too
            raise UsageError(f"press-threshold must lie in (0, 1], got {args.press_threshold}")
        _check_report_paths(args.csv, args.rewards_csv)
        directory = Path(args.episodes)
        if not directory.is_dir():
            raise UsageError(f"not a directory: {directory}")
        # read each container once and keep only its key rows and reward lines
        by_song: dict = {}
        reward_lines = []
        try:
            for rec in iter_episodes(directory):
                keys = (rec.pressed_key_steps(args.press_threshold), rec.active_key_steps())
                by_song.setdefault(str(rec.meta.get("song", "?")), []).append(keys)
                if args.rewards_csv:
                    reward_lines += reward_rows(rec)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read episodes: {exc}") from exc
        if not by_song:
            raise UsageError(f"no episode files under {directory}")
        rows, traces = [], []
        for song in sorted(by_song):
            traces.append(tuple(np.concatenate(part) for part in zip(*by_song[song])))
            rows.append((song, *precision_recall(*traces[-1])))
        rows.append(("OVERALL", *precision_recall(*(np.concatenate(part) for part in zip(*traces)))))
        rows = [(song, precision, recall, f1(precision, recall)) for song, precision, recall in rows]
        print("song\tprecision\trecall\tf1")
        for song, precision, recall, score in rows:
            print(f"{song}\t{precision:.6f}\t{recall:.6f}\t{score:.6f}")
        # a fixed importer line keeps the header that existing result files carry
        eval_snapshot = f"# press_threshold = {args.press_threshold}\n# importer = native\n"
        if args.csv:
            lines = ["song,precision,recall,f1"]
            lines += [f"{csv_cell(s)},{p!r},{r!r},{v!r}" for s, p, r, v in rows]
            _write_report(args.csv, eval_snapshot + "\n".join(lines) + "\n")
        if args.rewards_csv:
            _write_report(args.rewards_csv, eval_snapshot + rewards_csv(reward_lines))
        return 0

    if not 0.0 <= args.onset_tolerance < math.inf:  # nan fails this too
        raise UsageError(f"onset-tolerance must be finite and >= 0, got {args.onset_tolerance}")
    try:
        ours = load_pig(args.pig_ours)
        reference = load_pig(args.pig_human)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read PIG file: {exc}") from exc
    try:
        result = fingering_agreement(ours, reference, onset_tolerance=args.onset_tolerance)
    except ValueError as exc:
        raise UsageError(f"agreement undefined: {exc}") from exc
    print(
        f"agreement={result.agreement:.6f}\tmatched={result.matched}"
        f"\tunmatched_ours={result.unmatched_ours}\tunmatched_human={result.unmatched_reference}"
    )
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def cmd_stats(args) -> int:
    _check_report_paths(args.csv)
    directory = Path(args.input)
    if not directory.is_dir():
        raise UsageError(f"not a directory: {directory}")
    sources = []
    f1_scores = []
    chunks = {}  # song without a goal file -> (chunk, goal keys) of each of its episodes
    try:
        goal_songs = set()
        for path in sorted(directory.glob("*.goals.txt")):
            sources.append(goal_from_text(path.read_text(encoding="utf-8")))
            goal_songs.add(path.name[: -len(".goals.txt")])
        for rec in iter_episodes(directory):
            # goal files already cover this song; episodes only add F1 metadata
            song = str(rec.meta.get("song", ""))
            if song not in goal_songs:
                chunks.setdefault(song, []).append(rec.chunk_goal_keys())
            if args.f1_meta and "f1" in rec.meta:
                f1_value = rec.meta["f1"]
                score = float(f1_value) if isinstance(f1_value, str) else f1_value
                # type(), not isinstance: a JSON true is no score; nan fails the range too
                if type(score) not in (int, float) or not 0 <= score <= 1:
                    raise ValueError(f"f1 metadata must be a number in [0, 1], got {f1_value!r}")
                f1_scores.append(float(score))
        # a song is one piece: its episodes joined in chunk order, so a key
        # held across a chunk boundary is one onset
        for song in sorted(chunks):
            parts = sorted(chunks[song], key=lambda part: part[0])
            sources.append(GoalSequence(np.concatenate([keys for _, keys in parts])))
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read inputs: {exc}") from exc
    if not sources:
        raise UsageError(f"no goal or episode files under {directory}")
    stats = dataset_stats(sources, f1_scores=f1_scores or None, count_mode=args.count_mode)

    print(f"pieces: {len(stats.active_key_counts)}")
    print(f"key presses counted ({stats.count_mode}): {stats.total_onsets}")
    print(f"white fraction: {stats.white_fraction:.6f}")
    if stats.active_key_counts:
        counts = stats.active_key_counts
        print(f"active keys per piece: min={min(counts)} mean={sum(counts) / len(counts):.1f} max={max(counts)}")
    for threshold in F1_THRESHOLDS:
        print(f"fraction f1 >= {threshold}: {stats.fraction_f1_above(threshold):.6f}")
    if args.csv:
        lines = [f"# count_mode = {stats.count_mode}", "key,midi_pitch,color,count"]
        for key, count in enumerate(stats.key_histogram):
            color = "black" if is_black(key) else "white"
            lines.append(f"{key},{pitch_for_key(key)},{color},{count}")
        _write_report(args.csv, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# debug-assign
# ---------------------------------------------------------------------------


def cmd_debug_assign(args) -> int:
    try:
        pitches = [int(p) for p in args.pitches.split(",") if p]
        keys = {key_for_pitch(p) for p in pitches}
        geom = _load_settings(KeyboardGeometry, args.geometry)
        hands = _load_embodiment(args.embodiment)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad inputs: {exc}") from exc
    if not keys:
        raise UsageError("need at least one pitch")
    state = init_hands(hands, geom)
    matrix = build_cost_matrix(state.fingertips, state.fingers, keys, geom)
    try:
        solution = solve_assignment(matrix, best_effort=args.best_effort)
    except InfeasibleError as exc:
        print(f"infeasible chord: {exc} (use --best-effort to drop keys)", file=sys.stderr)
        return 1
    print(format_debug_table(matrix, solution))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_FORMAT_NOTES = """\
output formats:
  <song>.annotation.txt   one line per step: step<TAB>ot_distance<TAB>key:finger;...
                          (finger labels L1..L5 / R1..R5, ':-' marks a dropped key);
                          '#' header lines carry the full config snapshot
  <song>.goals.txt        one line per step: step<TAB>sustain<TAB>key,key,...
  <song>.rewards.csv      columns: step,ot,press,sustain,collision,energy,total
  <song>.epNNN.rp1t       binary episode container (observations/actions/rewards + JSON meta)
  <song>.pig.txt          PIG v1 fingering records (tab-separated, '//' headers)
  eval --csv              columns: song,precision,recall,f1 (last row OVERALL)
  eval --rewards-csv      columns: song,chunk,step,reward,f1
  stats --csv             columns: key,midi_pitch,color,count
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otpiano",
        description="Annotate piano fingering by optimal transport and manage rollout datasets.",
        epilog=_FORMAT_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"otpiano {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="annotate MIDI songs and write episode containers")
    p.add_argument("--midi", required=True, help="MIDI file or directory of files")
    p.add_argument("--embodiment", default="ten-finger", help="builtin name (ten-finger, four-finger) or config path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--geometry", default=None, help="keyboard geometry config path")
    p.add_argument("--reward-config", default=None, help="reward parameter config path")
    p.add_argument("--stretch", type=float, default=DEFAULT_STRETCH, help="time stretch factor")
    p.add_argument("--dt", type=float, default=DEFAULT_DT, help="control timestep in seconds")
    p.add_argument("--lookahead", type=int, default=DEFAULT_LOOKAHEAD, help="future goal steps in observations")
    p.add_argument("--episode-len", type=int, default=DEFAULT_EPISODE_LEN, help="steps per episode chunk")
    p.add_argument("--best-effort", action="store_true", help="drop excess chord keys instead of failing")
    p.add_argument("--pig-out", action="store_true", help="also write PIG fingering files")
    p.add_argument("--no-trim-silence", action="store_true", help="keep leading silence")
    p.add_argument("--jobs", type=int, default=1, help="parallel song workers")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("eval", help="score rollouts (F1) or compare fingering files")
    p.add_argument("--episodes", default=None, help="directory of episode containers")
    p.add_argument("--press-threshold", type=float, default=DEFAULT_PRESS_THRESHOLD, help="key depth counted as pressed")
    p.add_argument("--pig-ours", default=None, help="our PIG fingering file")
    p.add_argument("--pig-human", default=None, help="reference PIG fingering file")
    p.add_argument("--onset-tolerance", type=float, default=0.05, help="note matching tolerance in seconds (finite, >= 0)")
    p.add_argument("--csv", default=None, help="write per-piece results as CSV")
    p.add_argument("--rewards-csv", default=None, help="write per-step rewards with F1 metadata as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="corpus statistics over goal files and episodes")
    p.add_argument("--in", dest="input", required=True, help="directory of *.goals.txt / episode files")
    p.add_argument("--f1-meta", action="store_true", help="collect F1 scores from episode metadata")
    p.add_argument("--count-mode", choices=("onsets", "steps"), default="onsets", help="histogram counting rule")
    p.add_argument("--csv", default=None, help="write the key histogram as CSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("debug-assign", help="print the cost matrix and solution for a chord")
    p.add_argument("--pitches", required=True, help="comma-separated MIDI pitches")
    p.add_argument("--embodiment", default="ten-finger")
    p.add_argument("--geometry", default=None)
    p.add_argument("--best-effort", action="store_true")
    p.set_defaults(func=cmd_debug_assign)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
