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
The hand step itself skips each hand that the step before left settled
on the same targets with its base still (see ``HandMotion.step``); when
it skips both, it hands back the same state objects, and the step reuses
the last state row without packing it again.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import struct
from array import array
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .assign import InfeasibleError, key_distances, resting_gap, resting_pairs, solve_cost_rows
from .hand import ALL_FINGERS, LEFT, HandConfig, HandMotion, bases_collide, init_hands
from .keyboard import KEY_COUNT, MAX_PITCH, MIN_PITCH, KeyboardGeometry, key_for_pitch, press_point_table
from .metrics import f1, precision_recall
from .midi import (
    ACTION_DIM,
    DEFAULT_LOOKAHEAD,
    DEFAULT_STRETCH,
    HAND_STATE_DIM,
    GoalSequence,
    discretize,
    goal_to_text,
    goal_windows,
    load_midi,
    note_step_span,
    numbered_lines,
    observation_dim,
    step_runs,
    trim_shift,
    write_observations,
)
from .pig import PigRecord, midi_to_spelled, save_pig
from .reward import DEFAULT_PARAMS, RewardBreakdown, RewardParams, score_steps
from .store import EPISODE_SUFFIX, EpisodeRecord, save_episode, score_csv

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

    motion = HandMotion(hands, geom, goals.dt)
    press_table = press_point_table(geom)
    press_points = press_table.tolist()
    tips, base = state.fingertips, state.base
    gap = resting_gap(motion.distance_bound(press_points, base))
    state_bytes = state_of(tips, base)
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
        if len(active) > len(state.fingers) and not best_effort:
            raise InfeasibleStepError(t, len(active), len(state.fingers))
        points = [press_points[key] for key in active]
        solved, total = (resting_pairs(points, tips, gap) if active else ()), 0.0
        if solved is None:
            solved, total, _ = solve_cost_rows(key_distances(points, tips), best_effort)
        for r, c in solved:
            finger[row + active[r]] = slot_index[c]
        stepped = motion.step(tips, base, [c for _, c in solved], [points[r] for r, _ in solved])
        distance.append(total)
        unmoved = stepped[0] is tips and stepped[1] is base  # no hand stepped: the state row repeats
        if not unmoved:
            tips, base = stepped
            next_bytes = state_of(tips, base)
            unmoved = next_bytes == state_bytes  # bitwise: -0.0 and 0.0 stay distinct
            state_bytes = next_bytes
        states += state_bytes

    # what the rollout implies, read off its cells and state rows: dropped keys, trace, reached keys
    finger = np.frombuffer(finger, dtype=np.int8).reshape(T, KEY_COUNT)
    finger[goals.keys & (finger == NO_FINGER)] = DROPPED  # active keys that best-effort mode left out
    states = np.frombuffer(states, dtype=np.float64).reshape(T, 32)  # ten fingertip points, then the two bases
    trace = states[:, :30].reshape(T, 10, 3)
    steps, keys = np.nonzero(finger >= 0)
    offset = trace[steps, finger[steps, keys]] - press_table[keys]
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
    snapshot = {"dt": goals.dt, **hands.snapshot(), **geom.snapshot(), **params.snapshot()}
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


def annotation_to_pig(
    annotation: FingeringAnnotation,
    notes,
    stretch: float = DEFAULT_STRETCH,
    trim_silence: bool = True,
) -> list:
    """Label each note onset with the finger assigned at its first step.

    The notes and the stretch/trim settings must match the discretization
    the annotation was produced from.  Right-hand fingers become positive
    digits on channel 0, left-hand fingers negative digits on channel 1.
    A note without a finger is skipped: a key best-effort mode dropped, a
    pitch off the keyboard, or a note that covers no step of the annotation.
    """
    notes = sorted(notes, key=lambda n: (n.onset, n.pitch, n.channel))
    # same playable-note shift as discretize, so step indices line up
    shift = trim_shift(notes, stretch) if (trim_silence and notes) else 0.0
    records = []
    note_id = 0
    for note in notes:
        first, _end = note_step_span(note, annotation.dt, stretch, shift)
        slot = NO_FINGER
        if 0 <= first < len(annotation) and MIN_PITCH <= note.pitch <= MAX_PITCH:
            slot = annotation.finger[first, key_for_pitch(note.pitch)]
        if slot < 0:
            continue
        finger = ALL_FINGERS[slot]
        digit = finger.digit if finger.hand != LEFT else -finger.digit
        records.append(
            PigRecord(
                note_id=note_id,
                onset=note.onset,
                offset=note.offset,
                spelled_pitch=midi_to_spelled(note.pitch),
                onset_velocity=note.velocity,
                offset_velocity=0,
                channel=1 if finger.hand == LEFT else 0,
                finger=str(digit),
            )
        )
        note_id += 1
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
    distance, raises ValueError.
    """
    distances, rows = [], []
    for line in text.splitlines():
        line = line.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
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
        distances.append(distance)
        rows.append(row)
    return np.array(distances, dtype=np.float64), np.array(rows, dtype=np.int8).reshape(len(rows), KEY_COUNT)


# ---------------------------------------------------------------------------
# One song, from its MIDI file to its written outputs
# ---------------------------------------------------------------------------


_SONG_SUFFIXES = (".goals.txt", ".annotation.txt", ".rewards.csv", ".pig.txt")  # besides the .epNNN containers


@dataclass(frozen=True)
class SongSettings:
    """The settings of a batch, shared by every song of it."""

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
    index = 0
    while (stale := out / f"{stem}.ep{index:03d}{EPISODE_SUFFIX}").exists():
        stale.unlink()
        index += 1


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
        for name in ("lookahead", "episode_len", "best_effort"):
            snapshot[f"run.{name}"] = getattr(settings, name)
        comments = config_lines(snapshot)
        header = "".join(f"# {c}\n" for c in comments)
        (staging / f"{stem}.goals.txt").write_text(header + goal_to_text(goals), encoding="utf-8")
        (staging / f"{stem}.annotation.txt").write_text(write_annotation_text(annotation, snapshot), encoding="utf-8")
        scores = score_annotation(goals, annotation, settings.params)
        (staging / f"{stem}.rewards.csv").write_text(header + score_csv(scores), encoding="utf-8")
        if settings.pig_out:
            records = annotation_to_pig(annotation, song.notes, stretch=stretch, trim_silence=trim_silence)
            save_pig(records, staging / f"{stem}.pig.txt", header_comments=comments)
        episodes = chunk_episodes(goals, annotation, settings.episode_len)
        for episode in episodes:
            # no name holds the record, so the last one is freed before the next is built
            save_episode(
                build_episode_record(
                    episode, goals, annotation, scores.total, settings.params, stem, snapshot, settings.lookahead
                ),
                staging / f"{stem}.ep{episode.index:03d}{EPISODE_SUFFIX}",
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

    With ``jobs`` > 1 and more than one path, worker processes run the
    songs, largest file first, at most ``jobs`` in flight; otherwise this
    process runs them one after another.  A dead worker fails every song in
    flight, whose files are then removed, and a new pool runs the rest.
    Songs that ran beside it are not retried: a song that always kills its
    worker would loop forever.
    """
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
