"""End-to-end fingering annotation of a discretized song.

Rolls the hand surrogate through a goal sequence one control step at a
time: build the fingertip-to-key cost matrix from the current hand state,
solve the assignment, record the chosen fingers and their total moving
distance, then advance the hands toward the assigned press points and
record their new state.  Fingering therefore adapts to wherever the hands
actually are.  Dropped keys, the fingertip trace, collisions and reached
keys are read off those records after the rollout.  Songs are scored
once and chunked into fixed-length episodes afterwards; each episode's
trajectory record is sliced from the song's arrays.  ``run_song`` is the
batch pipeline of one MIDI file, from parsing to its written files;
``run_songs`` runs a batch of them, in this process or in worker processes.

The rollout runs on Python floats (``key_distances`` and
``HandMotion.step``), which match their numpy forms bit for bit.  A step
is a pure function of the active keys, the fingertips and the two hand
bases; when all three equal the previous step's, compared bitwise so that
-0.0 and 0.0 stay apart, the step is a fixed point and repeats the
previous step's outputs without a cost build, solve or hand step.  A
step whose every key already has a fingertip exactly on its press point,
with no other fingertip near one, takes its pairs from ``resting_pairs``
at distance 0.0 without a cost build or solve; only the hand step runs.
Its gap, ``resting_gap`` of the song's bound on every fingertip-to-point
distance, also screens the tie-break of every solve.  The loop that
writes a step's finger cells splits its pairs by hand for the hand step.
The hand step itself skips each hand that it left settled on the same
targets with its base still (see ``HandMotion.step``); when it skips
both, the step reuses the last state row without packing it again.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import struct
from array import array
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .assign import InfeasibleError, key_distances, resting_gap, resting_pairs, solve_cost_rows
from .hand import ALL_FINGERS, LEFT, HandConfig, HandMotion, bases_collide, init_hands
from .keyboard import KEY_COUNT, KeyboardGeometry, key_for_pitch, press_point_table
from .metrics import f1, precision_recall
from .midi import (
    ACTION_DIM,
    DEFAULT_LOOKAHEAD,
    HAND_STATE_DIM,
    GoalSequence,
    discretize,
    goal_to_text,
    goal_windows,
    load_midi,
    numbered_lines,
    observation_dim,
    require_positive,
    step_runs,
    write_observations,
)
from .pig import PigRecord, midi_to_spelled, save_pig
from .reward import DEFAULT_PARAMS, RewardBreakdown, RewardParams, score_steps
from .store import EpisodeRecord, episode_path, remove_episodes, save_episode, score_csv

DEFAULT_EPISODE_LEN = 550


class InfeasibleStepError(InfeasibleError):
    """A chord at some step exceeds the enabled finger count (strict mode)."""

    def __init__(self, step: int, chord_size: int, n_fingers: int):
        super().__init__(f"step {step}: chord of {chord_size} keys exceeds {n_fingers} fingers")
        self.step = step
        self.chord_size = chord_size
        self.n_fingers = n_fingers


NO_FINGER = -1  # ``FingeringAnnotation.finger`` cell of a key without a finger
DROPPED = -2  # cell of an active key that best-effort mode left out
_LABELS = {DROPPED: "-", **{slot: finger.label() for slot, finger in enumerate(ALL_FINGERS)}}
_SLOTS = {label: slot for slot, label in _LABELS.items()}
_CELLS = {slot: [f"{key}:{label}" for key in range(KEY_COUNT)] for slot, label in _LABELS.items()}


@dataclass(frozen=True, eq=False)
class FingeringAnnotation:
    """Per-step fingering of a whole song plus the config that produced it.

    Cell (t, key) of ``finger`` is the ``ALL_FINGERS`` slot placed on the key
    at step t, ``NO_FINGER`` or ``DROPPED``; ``distance[t]`` is the solved
    total moving cost before the hands move and ``collision[t]`` whether the
    hand bases ended step t closer than their minimum gap.  Row t of
    ``pressed`` marks the keys whose assigned fingertip ended step t within
    the press threshold.
    """

    finger: np.ndarray  # (T, 88) int8
    distance: np.ndarray  # (T,) float64
    collision: np.ndarray  # (T,) bool
    dt: float
    embodiment: str
    snapshot: dict = field(default_factory=dict)
    fingertip_trace: "np.ndarray | None" = None  # (T, 10, 3) slot layout
    pressed: "np.ndarray | None" = None  # (T, 88) bool

    def __len__(self) -> int:
        return len(self.finger)

    @property
    def mean_distance(self) -> float:
        """Mean moving distance over steps that had active keys."""
        keyed = (self.finger != NO_FINGER).any(axis=1)
        return float(np.mean(self.distance[keyed])) if keyed.any() else 0.0

    @property
    def dropped_step_count(self) -> int:
        return int((self.finger == DROPPED).any(axis=1).sum())

    def pairs(self, step: int) -> tuple:
        """(key, FingerId) for every fingered key of one step, by key."""
        return tuple((key, ALL_FINGERS[slot]) for key, slot in enumerate(self.finger[step].tolist()) if slot >= 0)


def annotate_song(
    goals: GoalSequence,
    hands: HandConfig,
    geom: KeyboardGeometry,
    params: RewardParams = DEFAULT_PARAMS,
    best_effort: bool = False,
) -> FingeringAnnotation:
    """Annotate every step of a goal sequence with an optimal placement.

    Strict mode raises InfeasibleStepError when a chord exceeds the enabled
    finger count; best-effort mode assigns the cheapest subset and records
    the dropped keys.  The whole rollout is deterministic.
    """
    state = init_hands(hands, geom)
    slot_index = [ALL_FINGERS.index(finger) for finger in state.fingers]  # ascending, so rows are in slot order
    layout = struct.Struct("".join("3d" if slot in slot_index else "24x" for slot in range(10)) + "2d")

    def state_of(tips: list, base: tuple) -> bytes:
        """Fingertips in the trace's slot layout (disabled slots zero), then the bases."""
        return layout.pack(*itertools.chain.from_iterable(tips), *base)

    motion = HandMotion(hands, geom, goals.dt, state)
    split = motion.hand_bounds[1][0]  # finger rows below it are the left hand's
    n_fingers = len(state.fingers)
    press_points = geom.press_points
    gap = resting_gap(motion.distance_bound())
    state_bytes = state_of(motion.tips, motion.base)
    T = len(goals)
    key_steps, key_list = np.nonzero(goals.keys)
    ends = np.cumsum(np.bincount(key_steps, minlength=T)).tolist()
    key_list = key_list.tolist()
    finger = array("b", [NO_FINGER]) * (T * KEY_COUNT)
    distance, states = array("d"), bytearray()
    previous, unmoved, start = None, False, 0
    for t, end in enumerate(ends):
        active = key_list[start:end]
        start = end
        row = t * KEY_COUNT
        if unmoved and active == previous:
            # same keys, fingertips and bases as step t - 1: repeat its outputs
            finger[row : row + KEY_COUNT] = finger[row - KEY_COUNT : row]
            distance.append(distance[-1])
            states += state_bytes
            continue
        previous = active
        if len(active) > n_fingers and not best_effort:
            raise InfeasibleStepError(t, len(active), n_fingers)
        points = [press_points[key] for key in active]
        solved, total = (resting_pairs(points, motion.tips, gap) if active else ()), 0.0
        if solved is None:
            solved, total, _ = solve_cost_rows(key_distances(points, motion.tips), best_effort, gap)
        hand_pairs = ([], [])
        for r, c in solved:
            finger[row + active[r]] = slot_index[c]
            hand_pairs[c >= split].append((c, points[r]))
        distance.append(total)
        unmoved = not motion.step(hand_pairs)  # no hand stepped: the state row repeats
        if not unmoved:
            next_bytes = state_of(motion.tips, motion.base)
            unmoved = next_bytes == state_bytes  # bitwise: -0.0 and 0.0 stay distinct
            state_bytes = next_bytes
        states += state_bytes

    # what the rollout implies, read off its cells and state rows: dropped keys, trace, reached keys
    finger = np.frombuffer(finger, dtype=np.int8).reshape(T, KEY_COUNT)
    finger[goals.keys & (finger == NO_FINGER)] = DROPPED  # active keys that best-effort mode left out
    states = np.frombuffer(states, dtype=np.float64).reshape(T, 32)  # ten fingertip points, then the two bases
    trace = states[:, :30].reshape(T, 10, 3)
    steps, keys = np.nonzero(finger >= 0)
    offset = trace[steps, finger[steps, keys]] - press_point_table(geom)[keys]
    pressed = np.zeros((T, KEY_COUNT), dtype=bool)
    pressed[steps, keys] = np.sqrt(np.sum(offset * offset, axis=1)) < params.threshold  # summed as key_distances
    arrays = dict(
        finger=finger,
        distance=np.frombuffer(distance, dtype=np.float64),
        collision=bases_collide(states[:, 30:].T, hands.min_base_gap),
        fingertip_trace=trace,
        pressed=pressed,
    )
    for values in arrays.values():
        values.flags.writeable = False
    snapshot = {"dt": goals.dt, **hands.snapshot(), **geom.snapshot(), **params.snapshot(), "run.best_effort": best_effort}
    return FingeringAnnotation(dt=goals.dt, embodiment=hands.name, snapshot=snapshot, **arrays)


# ---------------------------------------------------------------------------
# Episode chunking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    """Fixed-length window of a song; the tail is padded with silent steps."""

    index: int
    start_step: int
    length: int
    n_real: int

    @property
    def n_padded(self) -> int:
        return self.length - self.n_real

    def take(self, values: np.ndarray, fill=0) -> np.ndarray:
        """This episode's rows of a per-step song array, ``fill`` on the padded tail."""
        out = np.full((self.length, *values.shape[1:]), fill, dtype=values.dtype)
        out[: self.n_real] = values[self.start_step : self.start_step + self.n_real]
        return out


def chunk_episodes(goals: GoalSequence, annotation: FingeringAnnotation, episode_len: int = DEFAULT_EPISODE_LEN) -> list:
    """Split a song into consecutive equal-length episodes.

    The final window is padded with silent steps (see ``Episode.take``) so
    every episode has exactly ``episode_len`` steps; concatenating the real
    parts reproduces the song.
    """
    if episode_len <= 0:
        raise ValueError("episode_len must be > 0")
    if len(goals) != len(annotation):
        raise ValueError("goal sequence and annotation disagree on step count")
    total = len(goals)
    return [
        Episode(index=e, start_step=start, length=episode_len, n_real=min(episode_len, total - start))
        for e, start in enumerate(range(0, total, episode_len))
    ]


def build_episode_record(
    episode: Episode,
    goals: GoalSequence,
    annotation: FingeringAnnotation,
    rewards: np.ndarray,
    params: RewardParams,
    song: str,
    snapshot: dict,
    lookahead: int = DEFAULT_LOOKAHEAD,
) -> EpisodeRecord:
    """Synthesize a trajectory record from one annotated episode.

    Observations carry the real goal window (looking across episode
    boundaries, zero past the song end), idealized key depths from the
    reached keys, and the surrogate fingertip trace; the 46-dim hand state
    and 39-dim actions are opaque in this pipeline and stay zero.  Rewards
    are the episode's part of the song's per-step totals ``rewards`` (from
    ``score_annotation`` with ``params``), with a silent step's reward on
    the padded tail.  ``snapshot`` is the run's config, stored in the
    metadata.  With the default 10-step lookahead the record is canonical
    (1144-dim).
    """
    L = lookahead + 1
    T = episode.length
    pressed = episode.take(annotation.pressed)
    obs = np.zeros((T, observation_dim(L)), dtype=np.float32)
    goal_keys, goal_sustain = goal_windows(goals, episode.start_step, T, L)
    write_observations(
        obs,
        goal_keys,
        goal_sustain,
        pressed,
        episode.take(goals.sustain),
        episode.take(annotation.fingertip_trace),
        np.zeros((T, HAND_STATE_DIM)),
    )
    silent = np.zeros((1, KEY_COUNT), dtype=bool)
    padding = score_steps(silent, silent, np.zeros(1), np.zeros(1, dtype=bool), params).total[0]
    precision, recall = precision_recall(pressed, episode.take(goals.keys))
    meta = {
        "song": song,
        "chunk": episode.index,
        "n_real": episode.n_real,
        "f1": f1(precision, recall),
        "embodiment": annotation.embodiment,
        "config": {k: str(v) for k, v in sorted(snapshot.items())},
        "otpiano_version": __version__,
    }
    return EpisodeRecord(
        observations=obs,
        actions=np.zeros((T, ACTION_DIM), dtype=np.float32),
        rewards=episode.take(rewards, fill=padding),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# PIG export
# ---------------------------------------------------------------------------


def annotation_to_pig(goals: GoalSequence, annotation: FingeringAnnotation) -> list:
    """Label each note of ``goals.note_starts`` with the finger assigned at its first step.

    ``discretize`` records those notes and steps; goals read back with
    ``goal_from_text``, or built by hand, have none, and give no records.
    Right-hand fingers become positive digits on channel 0, left-hand
    fingers negative digits on channel 1.  A note without a start gets no
    record (a pitch off the keyboard, a note that covers no step or one that
    starts before step 0), and neither does one whose key has no finger at
    its first step, such as a key best-effort mode dropped.  Goals and an
    annotation of different step counts are refused.
    """
    if len(goals) != len(annotation):
        raise ValueError("goal sequence and annotation disagree on step count")
    records = []
    for first, note in goals.note_starts:
        slot = annotation.finger[first, key_for_pitch(note.pitch)]
        if slot < 0:
            continue
        finger = ALL_FINGERS[slot]
        digit = finger.digit if finger.hand != LEFT else -finger.digit
        records.append(
            PigRecord(
                note_id=len(records),
                onset=note.onset,
                offset=note.offset,
                spelled_pitch=midi_to_spelled(note.pitch),
                onset_velocity=note.velocity,
                offset_velocity=0,
                channel=1 if finger.hand == LEFT else 0,
                finger=str(digit),
            )
        )
    return records


# ---------------------------------------------------------------------------
# Scoring and text serialization
# ---------------------------------------------------------------------------


def score_annotation(goals: GoalSequence, annotation: FingeringAnnotation, params: RewardParams = DEFAULT_PARAMS) -> RewardBreakdown:
    """Per-step reward breakdown of a surrogate rollout: one (T,) array per term.

    Key depths are idealized from the reached keys (1 when the assigned
    fingertip arrived, 0 otherwise), sustain is scored at its target, and
    energy is zero: the surrogate has no pedal or torque model.
    """
    if len(goals) != len(annotation):
        raise ValueError("goal sequence and annotation disagree on step count")
    return score_steps(goals.keys, annotation.pressed, annotation.distance, annotation.collision, params)


ANNOTATION_HEADER = "# otpiano annotation v1"


def config_lines(snapshot: dict) -> list:
    """``key = value`` for each setting of a config snapshot, by key: the header of every text output."""
    return [f"{key} = {snapshot[key]}" for key in sorted(snapshot)]


def write_annotation_text(annotation: FingeringAnnotation, snapshot: dict) -> str:
    """One line per step: ``step<TAB>ot_distance<TAB>key:finger;...``.

    Fingered keys come first, then the keys best-effort mode dropped
    (``key:-``), each in key order; the header embeds the config
    ``snapshot``.  Each run of equal steps is formatted once.
    """
    lines = [ANNOTATION_HEADER, f"# embodiment = {annotation.embodiment}", *(f"# {c}" for c in config_lines(snapshot))]
    starts, run = step_runs(annotation.finger, annotation.distance)
    finger = annotation.finger[starts]
    steps, keys = np.nonzero(finger != NO_FINGER)
    slots = finger[steps, keys]
    # nonzero lists cells by step, then key: a stable sort moves each step's dropped keys last
    order = np.argsort(2 * steps + (slots == DROPPED), kind="stable")
    cells = [_CELLS[slot][key] for key, slot in zip(keys[order].tolist(), slots[order].tolist())]
    ends = np.cumsum(np.bincount(steps, minlength=len(starts))).tolist()
    bodies = []
    start = 0
    for distance, end in zip(annotation.distance[starts].tolist(), ends):
        bodies.append(f"{distance!r}\t{';'.join(cells[start:end])}")
        start = end
    return "\n".join(lines) + "\n" + numbered_lines(bodies, run, "\t")


def parse_annotation_text(text: str) -> tuple:
    """Parse the annotation text format into ``(distance, finger)`` arrays.

    The arrays are laid out as ``FingeringAnnotation.distance`` and
    ``.finger``; any malformed line, including a negative or non-finite
    distance, raises ValueError naming the line, counted from 1 with the
    header and blank lines.
    """
    distances, rows = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            # the pairs field is empty on silent steps, so keep trailing tabs
            step_field, dist_field, pairs_field = line.split("\t")
            if int(step_field) != len(rows):
                raise ValueError(f"step index {step_field} out of order")
            row = [NO_FINGER] * KEY_COUNT
            for cell in pairs_field.split(";") if pairs_field else []:
                key_str, label = cell.split(":")
                key = int(key_str)
                if not 0 <= key < KEY_COUNT or label not in _SLOTS or row[key] != NO_FINGER:
                    raise ValueError(f"bad or repeated annotation cell {cell!r}")
                row[key] = _SLOTS[label]
            distance = float(dist_field)
            if not (math.isfinite(distance) and distance >= 0.0):
                raise ValueError(f"bad annotation distance {dist_field!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        distances.append(distance)
        rows.append(row)
    return np.array(distances, dtype=np.float64), np.array(rows, dtype=np.int8).reshape(len(rows), KEY_COUNT)


# ---------------------------------------------------------------------------
# One song, from its MIDI file to its written outputs
# ---------------------------------------------------------------------------


_SONG_SUFFIXES = (".goals.txt", ".annotation.txt", ".rewards.csv", ".pig.txt")  # besides the containers


@dataclass(frozen=True)
class SongSettings:
    """The settings of a batch, shared by every song of it.

    The constructor refuses, with a ValueError naming the setting, a ``dt``
    or ``stretch`` that is not positive and finite, an ``episode_len`` below
    1 and a negative ``lookahead``; the configs check themselves.
    """

    out: Path
    geom: KeyboardGeometry
    hands: HandConfig
    params: RewardParams
    dt: float
    stretch: float
    trim_silence: bool
    best_effort: bool
    episode_len: int
    lookahead: int
    pig_out: bool

    def __post_init__(self) -> None:
        require_positive("dt", self.dt)
        require_positive("stretch", self.stretch)
        if self.episode_len <= 0:
            raise ValueError(f"episode_len must be > 0, got {self.episode_len!r}")
        if self.lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {self.lookahead!r}")


@dataclass(frozen=True)
class SongResult:
    """One song's summary, or the ``error`` that failed it."""

    song: str
    error: "str | None" = None
    steps: int = 0
    mean_d_ot: float = 0.0
    dropped_steps: int = 0
    episodes: int = 0
    problems: tuple = ()


def _remove_song_files(out: Path, stem: str) -> None:
    """Delete, found by name, every file a run wrote or started to write in ``out`` for song ``stem``."""
    shutil.rmtree(out / f".{stem}.partial", ignore_errors=True)
    for suffix in _SONG_SUFFIXES:
        (out / f"{stem}{suffix}").unlink(missing_ok=True)
    remove_episodes(out, stem)


def _failed_song(out: Path, stem: str, exc: Exception) -> SongResult:
    """The result of song ``stem`` failed by ``exc``, once its files are gone from ``out``."""
    with contextlib.suppress(OSError):
        _remove_song_files(out, stem)
    return SongResult(stem, error=f"{type(exc).__name__}: {exc}")


def run_song(path, settings: SongSettings) -> SongResult:
    """Annotate one MIDI file and replace its outputs in ``settings.out`` with this run's, as a set.

    The files are written into ``.<stem>.partial`` and moved into place after the last one.  A failure
    becomes the result's ``error`` and leaves none of the song's files.
    """
    out, stem = settings.out, Path(path).stem
    staging = out / f".{stem}.partial"
    try:
        _remove_song_files(out, stem)
        staging.mkdir()
        song = load_midi(path)
        stretch, trim_silence = settings.stretch, settings.trim_silence
        goals = discretize(song.notes, dt=settings.dt, stretch=stretch, trim_silence=trim_silence, pedal=song.pedal)
        annotation = annotate_song(goals, settings.hands, settings.geom, settings.params, settings.best_effort)
        snapshot = {**annotation.snapshot, "midi.stretch": stretch, "midi.trim_silence": trim_silence}
        snapshot.update({"run.lookahead": settings.lookahead, "run.episode_len": settings.episode_len})
        comments = config_lines(snapshot)
        header = "".join(f"# {c}\n" for c in comments)
        (staging / f"{stem}.goals.txt").write_text(header + goal_to_text(goals), encoding="utf-8")
        (staging / f"{stem}.annotation.txt").write_text(write_annotation_text(annotation, snapshot), encoding="utf-8")
        scores = score_annotation(goals, annotation, settings.params)
        (staging / f"{stem}.rewards.csv").write_text(header + score_csv(scores), encoding="utf-8")
        if settings.pig_out:
            records = annotation_to_pig(goals, annotation)
            save_pig(records, staging / f"{stem}.pig.txt", header_comments=comments)
        episodes = chunk_episodes(goals, annotation, settings.episode_len)
        for episode in episodes:
            # no name holds the record, so the last one is freed before the next is built
            save_episode(
                build_episode_record(
                    episode, goals, annotation, scores.total, settings.params, stem, snapshot, settings.lookahead
                ),
                episode_path(staging, stem, episode.index),
            )
        for written in sorted(staging.iterdir()):
            os.replace(written, out / written.name)
        staging.rmdir()
    except Exception as exc:
        return _failed_song(out, stem, exc)
    summary = dict(steps=len(goals), mean_d_ot=annotation.mean_distance, dropped_steps=annotation.dropped_step_count)
    return SongResult(stem, episodes=len(episodes), problems=tuple(song.problems), **summary)


def _file_size(path) -> int:
    """Bytes in the file, or 0 if it cannot be read (its song then fails on its own)."""
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def run_songs(paths: list, settings: SongSettings, jobs: int = 1) -> list:
    """``run_song`` of every path, one ``SongResult`` each, by song name; a failed song is a result with its ``error``.

    Before any song runs it raises ValueError for ``jobs`` < 1 and for two
    paths whose stems are equal when case is ignored, which would write over
    each other's outputs on a case-insensitive file system (the message
    names the clashing paths as given), and only then creates
    ``settings.out`` with its parents; an OSError from that propagates.
    With ``jobs`` > 1 and more than one path, worker processes run the
    songs, largest file first, at most ``jobs`` in flight; otherwise this
    process runs them one after another.  A dead worker fails every song in
    flight, whose files are then removed, and a new pool runs the rest.
    Songs that ran beside it are not retried: a song that always kills its
    worker would loop forever.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    stems = Counter(Path(path).stem.casefold() for path in paths)
    clashes = [str(path) for path in paths if stems[Path(path).stem.casefold()] > 1]
    if clashes:
        raise ValueError(f"songs would write over each other's outputs: {', '.join(clashes)}")
    settings.out.mkdir(parents=True, exist_ok=True)
    pooled = jobs > 1 and len(paths) > 1
    results = [] if pooled else [run_song(path, settings) for path in paths]
    queue = deque(sorted(paths, key=_file_size, reverse=True) if pooled else ())
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
                results.append(future.result())
            except Exception as exc:
                results.append(_failed_song(settings.out, Path(path).stem, exc))
    return sorted(results, key=lambda result: result.song)
