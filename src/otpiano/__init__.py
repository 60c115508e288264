"""Automatic piano fingering annotation via optimal transport.

Per control step, placing fingers on the required keys is solved as a
rectangular assignment problem over fingertip-to-key moving distances; a
kinematic bimanual hand surrogate supplies the fingertip state.  The
package also ships the surrounding dataset tooling: MIDI parsing and
discretization, goal/observation encoding, reward scoring, PIG fingering
I/O, episode chunking, a bit-exact trajectory container, F1 evaluation,
and corpus statistics.
"""

__version__ = "0.1.0"

from .annotate import (
    DEFAULT_EPISODE_LEN,
    Episode,
    FingeringAnnotation,
    InfeasibleStepError,
    annotate_song,
    annotation_to_pig,
    build_episode_record,
    chunk_episodes,
    score_annotation,
)
from .assign import (
    Assignment,
    CostMatrix,
    InfeasibleError,
    TooLargeError,
    brute_force_assignment,
    build_cost_matrix,
    solve_assignment,
)
from .hand import FingerId, HandConfig, HandState, bases_collide, init_hands, step_hand
from .keyboard import (
    KEY_COUNT,
    KeyboardGeometry,
    KeyState,
    OutOfRangeError,
    is_black,
    key_for_pitch,
    key_press_point,
    pitch_for_key,
)
from .metrics import (
    DatasetStats,
    NoOverlapError,
    dataset_stats,
    f1,
    fingering_agreement,
    precision_recall,
)
from .midi import (
    ACTION_DIM,
    OBSERVATION_DIM,
    DimensionMismatchError,
    EmptySongError,
    GoalSequence,
    MalformedMidiError,
    MidiSong,
    NoteEvent,
    assemble_observation,
    discretize,
    goal_vector,
    load_midi,
    observation_layout,
    parse_midi,
)
from .pig import MalformedPigLineError, PigRecord, parse_pig, write_pig
from .reward import (
    RewardBreakdown,
    RewardParams,
    ot_reward,
    score_steps,
    tolerance,
    total_reward,
)
from .store import EpisodeRecord, load_episode, read_episode, save_episode, write_episode
