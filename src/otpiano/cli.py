"""Batch command-line frontend: annotate songs, evaluate rollouts, corpus stats.

Subcommands write files and text/CSV reports; this module checks arguments
and prints.  ``annotate`` runs ``annotate.run_song`` per song, in-process or
in ``--jobs`` workers (a dead worker fails only the songs in flight), and
prints each song's MIDI problems as ``note:`` lines.  ``eval`` and ``stats``
check their report paths, and ``eval`` refuses one mode's flags in the
other, before they read any input.  ``main`` builds its parser once per
process.  Exit codes: 0 success,
1 failed songs (each reported, leaving no files) or an infeasible debug-assign
chord, 2 an unusable input or output path.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__
from .annotate import DEFAULT_EPISODE_LEN, SongResult, SongSettings, remove_song_files, run_song
from .assign import InfeasibleError, build_cost_matrix, format_debug_table, solve_assignment
from .config import load_config
from .hand import HandConfig, init_hands
from .keyboard import KeyboardGeometry, is_black, key_for_pitch, pitch_for_key
from .metrics import DEFAULT_PRESS_THRESHOLD, F1_THRESHOLDS, dataset_stats, f1, fingering_agreement
from .metrics import counts_precision_recall, key_counts
from .midi import DEFAULT_DT, DEFAULT_LOOKAHEAD, DEFAULT_STRETCH, GoalSequence, goal_from_text
from .pig import load_pig
from .reward import RewardParams
from .store import csv_cell, iter_episodes, replacing, reward_rows, rewards_csv

_MIDI_SUFFIXES = (".mid", ".midi")


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


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------


def _run_pool(paths: list, settings: SongSettings, jobs: int):
    """Yield ``run_song`` of each path from worker processes, largest file first, at most ``jobs`` songs in flight.

    A dead worker fails every song in flight, whose files are then removed, and a new pool runs the rest.
    Songs that ran beside it are not retried: a song that always kills its worker would loop forever.
    """
    queue = deque(sorted(paths, key=_file_size, reverse=True))
    while queue:
        finished, broken = [], False
        # under fork every worker starts at the first submit: start no more than there are songs
        with ProcessPoolExecutor(max_workers=min(jobs, len(queue))) as pool:
            running = {}
            while not broken and (queue or running):
                try:
                    while queue and len(running) < jobs:
                        running[pool.submit(run_song, queue[0], settings)] = queue[0]
                        queue.popleft()
                except BrokenProcessPool:  # the pool broke between two songs: this one waits for the next pool
                    broken = True
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                finished += [(future, running.pop(future)) for future in done]
                broken = broken or any(isinstance(future.exception(), BrokenProcessPool) for future in done)
        # the pool has shut down: every future is done and no worker is left to write
        for future, path in finished + list(running.items()):
            try:
                yield future.result()
            except Exception as exc:
                with contextlib.suppress(OSError):
                    remove_song_files(settings.out, Path(path).stem)
                yield SongResult(Path(path).stem, error=f"{type(exc).__name__}: {exc}")


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
    settings = SongSettings(
        out_dir, geom, hands, params, dt=args.dt, stretch=args.stretch, trim_silence=not args.no_trim_silence,
        best_effort=args.best_effort, episode_len=args.episode_len, lookahead=args.lookahead, pig_out=args.pig_out,
    )
    if args.jobs > 1 and len(paths) > 1:
        results = list(_run_pool(paths, settings, args.jobs))
    else:
        results = [run_song(path, settings) for path in paths]

    failures = 0
    for res in sorted(results, key=lambda r: r.song):
        if res.error is not None:
            failures += 1
            print(f"FAIL {res.song}: {res.error}", file=sys.stderr)
            continue
        print(
            f"{res.song}\tsteps={res.steps}\tmean_d_ot={res.mean_d_ot:.6f}"
            f"\tdropped_steps={res.dropped_steps}\tepisodes={res.episodes}"
        )
        for problem in res.problems:
            print(f"  note: {problem}", file=sys.stderr)
    if failures:
        print(f"{failures} of {len(results)} songs failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _episode_counts(directory: Path, press_threshold: float, with_rewards: bool):
    """Yield ``(song, key counts, reward lines)`` for each container, read once; a bad one raises UsageError.

    The reward lines are ``reward_rows`` with ``with_rewards``, else empty.
    Errors the caller raises while it handles a record do not pass through here.
    """
    try:
        for rec in iter_episodes(directory):
            found = key_counts(rec.pressed_key_steps(press_threshold), rec.active_key_steps())
            yield str(rec.meta.get("song", "?")), found, reward_rows(rec) if with_rewards else ()
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read episodes: {exc}") from exc


def _check_eval_mode(args) -> None:
    """Refuse a mix of both modes' flags, or neither mode; then fill in the defaults of the mode given."""
    given = {}
    for flag, mode, _, _ in _EVAL_FLAGS:
        if getattr(args, _dest(flag)) is not None:
            given.setdefault(mode, []).append(flag)
    if len(given) > 1:
        mix = " with ".join(f"{', '.join(flags)} ({mode})" for mode, flags in given.items())
        raise UsageError(f"eval takes the flags of one mode, not both: {mix}")
    if args.episodes is None and not (args.pig_ours and args.pig_human):
        raise UsageError("eval needs --episodes or both --pig-ours and --pig-human")
    mode = _EPISODES if args.episodes is not None else _PIG
    for flag, flag_mode, default, _ in _EVAL_FLAGS:
        if flag_mode == mode and getattr(args, _dest(flag)) is None:
            setattr(args, _dest(flag), default)


def cmd_eval(args) -> int:
    _check_eval_mode(args)

    if args.episodes is not None:
        if not 0.0 < args.press_threshold <= 1.0:  # key depths lie in [0, 1]; nan fails this too
            raise UsageError(f"press-threshold must lie in (0, 1], got {args.press_threshold}")
        _check_report_paths(args.csv, args.rewards_csv)
        directory = Path(args.episodes)
        if not directory.is_dir():
            raise UsageError(f"not a directory: {directory}")
        # a fixed importer line keeps the header that existing result files carry
        eval_snapshot = f"# press_threshold = {args.press_threshold}\n# importer = native\n"
        counts: dict = {}  # song -> summed (hits, n_pressed, n_active) of its containers
        # reward lines go to a temporary file beside the report as each container is read
        report = replacing(args.rewards_csv, encoding="utf-8") if args.rewards_csv else contextlib.nullcontext()
        try:
            with report as rewards:
                if rewards:
                    rewards.write(eval_snapshot + rewards_csv(()))  # the header line
                for song, found, lines in _episode_counts(directory, args.press_threshold, bool(rewards)):
                    counts[song] = [a + b for a, b in zip(counts.get(song, (0, 0, 0)), found)]
                    if rewards:
                        rewards.writelines(f"{line}\n" for line in lines)
                if not counts:
                    raise UsageError(f"no episode files under {directory}")
        except OSError as exc:
            raise UsageError(f"cannot write {args.rewards_csv}: {exc}") from exc
        rows = [(song, *counts[song]) for song in sorted(counts)]
        rows.append(("OVERALL", *map(sum, zip(*counts.values()))))
        rows = [(song, *counts_precision_recall(*found)) for song, *found in rows]
        rows = [(song, precision, recall, f1(precision, recall)) for song, precision, recall in rows]
        print("song\tprecision\trecall\tf1")
        for song, precision, recall, score in rows:
            print(f"{song}\t{precision:.6f}\t{recall:.6f}\t{score:.6f}")
        if args.csv:
            lines = ["song,precision,recall,f1"]
            lines += [f"{csv_cell(s)},{p!r},{r!r},{v!r}" for s, p, r, v in rows]
            _write_report(args.csv, eval_snapshot + "\n".join(lines) + "\n")
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
            rec.lookahead_window()  # every container must fit the observation layout, as in eval
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


_EPISODES, _PIG = "episode scoring", "PIG agreement"

# Each eval flag with the one mode it belongs to and its default.  The parser
# declares every one with default None, so that _check_eval_mode sees which were
# given, refuses the other mode's, and only then fills in the defaults.
_EVAL_FLAGS = (
    ("--episodes", _EPISODES, None, {"help": "directory of episode containers"}),
    ("--press-threshold", _EPISODES, DEFAULT_PRESS_THRESHOLD, {"type": float, "help": "key depth counted as pressed"}),
    ("--csv", _EPISODES, None, {"help": "write per-piece results as CSV"}),
    ("--rewards-csv", _EPISODES, None, {"help": "write per-step rewards with F1 metadata as CSV"}),
    ("--pig-ours", _PIG, None, {"help": "our PIG fingering file"}),
    ("--pig-human", _PIG, None, {"help": "reference PIG fingering file"}),
    ("--onset-tolerance", _PIG, 0.05, {"type": float, "help": "note matching tolerance in seconds (finite, >= 0)"}),
)


def _dest(flag: str) -> str:
    """The ``Namespace`` attribute argparse stores ``flag`` under."""
    return flag[2:].replace("-", "_")


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
    groups = {mode: p.add_argument_group(mode) for mode in (_EPISODES, _PIG)}
    for flag, mode, _, options in _EVAL_FLAGS:
        groups[mode].add_argument(flag, default=None, **options)
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


_PARSER = None  # built on the first call of main, then kept for the life of the process


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
