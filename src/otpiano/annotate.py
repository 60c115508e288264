"""End-to-end fingering annotation of a discretized song.

Rolls the hand surrogate through a goal sequence one control step at a
time: build the fingertip-to-key cost matrix from the current hand state,
solve the assignment, record the chosen pairs and their total moving
distance, then advance the hands toward the assigned press points.
Fingering therefore adapts to wherever the hands actually are, step by
step.  Songs are scored once and chunked into fixed-length episodes
afterwards; each episode's trajectory record is sliced from the song's
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .assign import InfeasibleError, key_distances, solve_cost_rows
from .hand import ALL_FINGERS, LEFT, RIGHT, FingerId, HandConfig, HandMotion, bases_collide, init_hands
from .keyboard import KEY_COUNT, KeyboardGeometry, key_for_pitch, press_point_table
from .metrics import f1, precision_recall
from .midi import (
    ACTION_DIM,
    DEFAULT_LOOKAHEAD,
    DEFAULT_STRETCH,
    HAND_STATE_DIM,
    GoalSequence,
    goal_windows,
    note_step_span,
    observation_dim,
    trim_shift,
    write_observations,
)
from .pig import PigRecord, midi_to_spelled
from .reward import DEFAULT_PARAMS, RewardBreakdown, RewardParams, ot_reward, total_reward
from .store import EpisodeRecord

DEFAULT_EPISODE_LEN = 550


class InfeasibleStepError(InfeasibleError):
    """A chord at some step exceeds the enabled finger count (strict mode)."""

    def __init__(self, step: int, chord_size: int, n_fingers: int):
        super().__init__(f"step {step}: chord of {chord_size} keys exceeds {n_fingers} fingers")
        self.step = step
        self.chord_size = chord_size
        self.n_fingers = n_fingers


class UnlabeledNoteError(ValueError):
    """A note has no finger label (dropped in best-effort mode)."""


@dataclass(frozen=True)
class StepAnnotation:
    """Solved placement for one step.

    ``pairs`` are (key, FingerId) with every active key labeled once;
    ``distance`` is the solved total moving cost before the hands move.
    """

    pairs: tuple = ()
    distance: float = 0.0
    ot: float = 1.0
    dropped_keys: tuple = ()
    collision: bool = False


@dataclass(frozen=True, eq=False)
class FingeringAnnotation:
    """Per-step fingering of a whole song plus the config that produced it.

    Row t of ``pressed`` marks the keys whose assigned fingertip ended step
    t within the press threshold.
    """

    steps: tuple
    dt: float
    embodiment: str
    snapshot: dict = field(default_factory=dict)
    fingertip_trace: "np.ndarray | None" = None  # (T, 10, 3) slot layout
    pressed: "np.ndarray | None" = None  # (T, 88) bool

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def mean_distance(self) -> float:
        """Mean moving distance over steps that had active keys."""
        dists = [s.distance for s in self.steps if s.pairs or s.dropped_keys]
        return float(np.mean(dists)) if dists else 0.0

    @property
    def dropped_step_count(self) -> int:
        return sum(1 for s in self.steps if s.dropped_keys)

    def finger_at(self, step: int, key: int) -> "FingerId | None":
        for k, finger in self.steps[step].pairs:
            if k == key:
                return finger
        return None


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
    fingers = state.fingers
    n_fingers = len(fingers)
    slot_index = [ALL_FINGERS.index(finger) for finger in fingers]
    motion = HandMotion(fingers, hands, geom, goals.dt)
    press_points = press_point_table(geom)
    tips = state.fingertips
    base = (state.base_x[LEFT], state.base_x[RIGHT])
    steps = []
    trace = np.zeros((len(goals), 10, 3), dtype=np.float64)
    pressed = np.zeros((len(goals), KEY_COUNT), dtype=bool)
    for t, row in enumerate(goals.keys):
        active = np.flatnonzero(row).tolist()
        if active:
            if len(active) > n_fingers and not best_effort:
                raise InfeasibleStepError(t, len(active), n_fingers)
            points = press_points[active]
            solved, distance, dropped_rows = solve_cost_rows(key_distances(points, tips).tolist(), best_effort)
            key_rows = [r for r, _ in solved]
            rows = [c for _, c in solved]
            keys = [active[r] for r in key_rows]
            targets = points[key_rows]
            tips, base = motion.step(tips, base, rows, targets)
            reach = tips[rows] - targets
            pressed[t, keys] = np.sqrt((reach**2).sum(axis=1)) < params.threshold
            pairs = tuple((key, fingers[c]) for key, c in zip(keys, rows))
            dropped = tuple(active[r] for r in dropped_rows)
        else:
            tips, base = motion.step(tips, base, [], None)
            pairs = ()
            distance = 0.0
            dropped = ()
        steps.append(
            StepAnnotation(
                pairs=pairs,
                distance=distance,
                ot=ot_reward(distance, params),
                dropped_keys=dropped,
                collision=bases_collide(base, hands.min_base_gap),
            )
        )
        trace[t, slot_index] = tips
    trace.flags.writeable = False
    pressed.flags.writeable = False
    snapshot = {"dt": goals.dt, **hands.snapshot(), **geom.snapshot(), **params.snapshot()}
    return FingeringAnnotation(
        steps=tuple(steps),
        dt=goals.dt,
        embodiment=hands.name,
        snapshot=snapshot,
        fingertip_trace=trace,
        pressed=pressed,
    )


# ---------------------------------------------------------------------------
# Episode chunking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    """Fixed-length window of a song; the tail is padded with empty steps."""

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

    The final window is padded with silent goals and empty annotation steps
    (see ``Episode.take``) so every episode has exactly ``episode_len``
    steps; concatenating the real parts reproduces the song.
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
    lookahead: int = DEFAULT_LOOKAHEAD,
    run_snapshot: "dict | None" = None,
) -> EpisodeRecord:
    """Synthesize a trajectory record from one annotated episode.

    Observations carry the real goal window (looking across episode
    boundaries, zero past the song end), idealized key depths from the
    reached keys, and the surrogate fingertip trace; the 46-dim hand state
    and 39-dim actions are opaque in this pipeline and stay zero.  Rewards
    are the episode's part of the song's per-step totals ``rewards`` (from
    ``score_annotation`` with ``params``), with a silent step's reward on
    the padded tail.  With the default 10-step lookahead the record is
    canonical (1144-dim).
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
    padding = _score_rows(silent, silent, np.ones(1), np.zeros(1, dtype=bool), params).total[0]
    precision, recall = precision_recall(pressed, episode.take(goals.keys))
    snapshot = run_snapshot if run_snapshot is not None else annotation.snapshot
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
    on_unlabeled: str = "error",
) -> list:
    """Label each note onset with the finger assigned at its first step.

    The notes and the stretch/trim settings must match the discretization
    the annotation was produced from.  Right-hand fingers become positive
    digits on channel 0, left-hand fingers negative digits on channel 1.
    A note without a label (dropped in best-effort mode, or off-keyboard)
    raises UnlabeledNoteError, or is skipped with ``on_unlabeled="skip"``.
    """
    if on_unlabeled not in ("error", "skip"):
        raise ValueError("on_unlabeled must be 'error' or 'skip'")
    notes = sorted(notes, key=lambda n: (n.onset, n.pitch, n.channel))
    # same playable-note shift as discretize, so step indices line up
    shift = trim_shift(notes, stretch) if (trim_silence and notes) else 0.0
    records = []
    note_id = 0
    for note in notes:
        finger = None
        try:
            key = key_for_pitch(note.pitch)
        except ValueError:
            key = None
        if key is not None:
            first, _end = note_step_span(note, annotation.dt, stretch, shift)
            if 0 <= first < len(annotation.steps):
                finger = annotation.finger_at(first, key)
        if finger is None:
            if on_unlabeled == "error":
                raise UnlabeledNoteError(f"note pitch {note.pitch} at {note.onset:.3f}s has no finger label")
            continue
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
    ot = np.array([s.ot for s in annotation.steps], dtype=np.float64)
    collided = np.array([s.collision for s in annotation.steps], dtype=bool)
    return _score_rows(goals.keys, annotation.pressed, ot, collided, params)


def _score_rows(active, pressed, ot, collided, params: RewardParams) -> RewardBreakdown:
    """``press_reward`` and friends over (T, 88) active/pressed rows at once."""
    # depth shaping per active key (depth 1 if pressed, else 0), one row per
    # step in ascending key order, zero-padded: cumsum adds sequentially, in
    # the order of press_reward's sum
    n_active = active.sum(axis=1)
    step = np.repeat(np.arange(len(ot)), n_active)
    rank = np.arange(len(step)) - np.repeat(np.cumsum(n_active) - n_active, n_active)
    depth = np.zeros((len(ot), n_active.max(initial=0) + 1))
    depth[step, rank] = np.where(pressed[active], params.shaping(0.0), params.shaping(1.0))
    np.cumsum(depth, axis=1, out=depth)
    depth_term = np.divide(depth[:, -1], n_active, out=np.ones(len(ot)), where=n_active > 0)
    false_press = (pressed & ~active).any(axis=1)
    press = 0.5 * depth_term + 0.5 * np.where(false_press, 0.0, 1.0)
    sustain = np.full(len(ot), params.shaping(0.0))
    collision = np.where(collided, 0.0, 1.0)
    return total_reward(ot, press, sustain, collision, np.zeros(len(ot)), params)


ANNOTATION_HEADER = "# otpiano annotation v1"


def write_annotation_text(annotation: FingeringAnnotation, extra_snapshot: "dict | None" = None) -> str:
    """One line per step: ``step<TAB>ot_distance<TAB>key:finger;...``.

    Pairs are sorted by key; the header embeds the config snapshot (plus
    any run-level entries in ``extra_snapshot``).  Dropped keys
    (best-effort) appear as ``key:-``.
    """
    snapshot = {**annotation.snapshot, **(extra_snapshot or {})}
    lines = [ANNOTATION_HEADER, f"# embodiment = {annotation.embodiment}"]
    for key in sorted(snapshot):
        lines.append(f"# {key} = {snapshot[key]}")
    for t, step in enumerate(annotation.steps):
        cells = [f"{key}:{finger.label()}" for key, finger in sorted(step.pairs)]
        cells.extend(f"{key}:-" for key in step.dropped_keys)
        lines.append(f"{t}\t{step.distance!r}\t{';'.join(cells)}")
    return "\n".join(lines) + "\n"


def parse_annotation_text(text: str) -> list:
    """Parse the annotation text format into (distance, pairs, dropped) rows."""
    rows = []
    for line in text.splitlines():
        line = line.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # the pairs field is empty on silent steps, so keep trailing tabs
        step_field, dist_field, pairs_field = line.split("\t")
        if int(step_field) != len(rows):
            raise ValueError(f"step index {step_field} out of order")
        pairs = []
        dropped = []
        for cell in pairs_field.split(";") if pairs_field else []:
            key_str, finger_str = cell.split(":")
            if finger_str == "-":
                dropped.append(int(key_str))
            else:
                pairs.append((int(key_str), FingerId.from_label(finger_str)))
        rows.append((float(dist_field), tuple(pairs), tuple(dropped)))
    return rows
