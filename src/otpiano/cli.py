"""Batch command-line frontend: annotate songs, evaluate rollouts, corpus stats.

This module checks flags, loads configs, maps errors to exit codes and prints;
the work is library calls: ``annotate.run_songs`` (each song's MIDI problems
print as ``note:`` lines), ``store.song_key_counts`` and ``metrics.f1_rows``
for ``eval --episodes``, ``store.corpus_pieces`` for ``stats``.  ``eval`` and
``stats`` check their report paths, and ``eval`` refuses one mode's flags in
the other, before they read any input.  ``main`` builds its parser once per
process.  Exit codes: 0 success, 1 failed songs (each reported, leaving no
files) or an infeasible debug-assign chord, 2 an unusable input or output path.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .annotate import DEFAULT_EPISODE_LEN, SongSettings, run_songs
from .assign import InfeasibleError, build_cost_matrix, format_debug_table, solve_assignment
from .config import load_config
from .hand import HandConfig, init_hands
from .keyboard import KeyboardGeometry, is_black, key_for_pitch, pitch_for_key
from .metrics import DEFAULT_PRESS_THRESHOLD, F1_THRESHOLDS, dataset_stats, f1_rows, fingering_agreement
from .midi import DEFAULT_DT, DEFAULT_LOOKAHEAD, DEFAULT_STRETCH
from .pig import load_pig
from .reward import RewardParams
from .store import corpus_pieces, csv_cell, replacing, rewards_csv, song_key_counts

_MIDI_SUFFIXES = (".mid", ".midi")


class UsageError(Exception):
    """An unusable input or output path: ``main`` prints the message and exits 2."""


def _check_report_paths(*paths) -> None:
    """Refuse, before any input is read, report paths that are no files in existing directories, or name one file."""
    paths = [Path(path) for path in paths if path]
    for path in paths:
        if path.is_dir():
            raise UsageError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise UsageError(f"cannot write {path}: {path.parent} is not a directory")
    if len({path.resolve() for path in paths}) < len(paths):
        raise UsageError(f"cannot write {' and '.join(map(str, paths))}: they are one file")


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


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------


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
    results = run_songs(paths, settings, args.jobs)

    failures = 0
    for res in results:
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

        def write_rewards(lines):  # a failed write must not read as a failed read of the episodes
            try:
                rewards.writelines(f"{line}\n" for line in lines)
            except OSError as exc:
                raise UsageError(f"cannot write {args.rewards_csv}: {exc}") from exc

        # reward lines go to a temporary file beside the report as each container is read
        report = replacing(args.rewards_csv, encoding="utf-8") if args.rewards_csv else contextlib.nullcontext()
        try:
            with report as rewards:
                if rewards:
                    rewards.write(eval_snapshot + rewards_csv(()))  # the header line
                try:
                    counts = song_key_counts(directory, args.press_threshold, write_rewards if rewards else None)
                except (OSError, ValueError) as exc:
                    raise UsageError(f"cannot read episodes: {exc}") from exc
                if not counts:
                    raise UsageError(f"no episode files under {directory}")
                rows = f1_rows(counts)  # in the block, so a refused song name leaves no rewards report
        except OSError as exc:
            raise UsageError(f"cannot write {args.rewards_csv}: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"cannot score episodes: {exc}") from exc
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
    try:
        pieces, f1_scores = corpus_pieces(directory, args.f1_meta)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read inputs: {exc}") from exc
    if not pieces:
        raise UsageError(f"no goal or episode files under {directory}")
    stats = dataset_stats(pieces, f1_scores=f1_scores or None, count_mode=args.count_mode)

    print(f"pieces: {len(stats.active_key_counts)}")
    print(f"key presses counted ({stats.count_mode}): {stats.total_onsets}")
    print(f"white fraction: {stats.white_fraction:.6f}")
    counts = stats.active_key_counts  # one per piece, and there is at least one
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
