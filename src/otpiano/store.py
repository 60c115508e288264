"""Bit-exact binary container for episode trajectories.

Layout: magic ``RP1T``, then version/T/obs_dim/act_dim as little-endian
u32, then observations, actions and rewards as contiguous little-endian
float32 arrays (row-major), a CRC32 over that payload, and finally a
length-prefixed UTF-8 JSON metadata block.  Identical records serialize
to identical bytes.  A record loaded from a file holds read-only views of
the file mapped into memory, taken once the CRC32 has checked the whole
payload: loading copies no payload into the heap.  ``save_episode`` never
writes into an existing file, so a record still mapped from the old bytes
keeps them.

The CRC32 is zlib's, computed by ``crc32``: libdeflate's ``libdeflate_crc32``
where the system has ``libdeflate.so.0`` (several times faster, the same
values), else ``zlib.crc32``.  The choice changes no byte and no check.
"""

from __future__ import annotations

import ctypes
import io
import json
import mmap
import os
import struct
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .keyboard import KEY_COUNT
from .metrics import key_counts
from .midi import (
    ACTION_DIM,
    GOAL_STEP_DIM,
    OBSERVATION_DIM,
    GoalSequence,
    goal_from_text,
    numbered_lines,
    observation_dim,
    observation_layout,
    row_bits,
    step_runs,
)

MAGIC = b"RP1T"
FORMAT_VERSION = 1
CANONICAL_T = 550
EPISODE_SUFFIX = ".rp1t"

_HEADER = struct.Struct("<4sIIII")
_CRC = struct.Struct("<I")
_META_LEN = struct.Struct("<I")
_OBS_EXTRA = observation_dim(0)  # observation size beyond the goal window


def _select_crc32():
    """``crc32(data, value=0)``: libdeflate's where the library loads, else ``zlib.crc32``.

    Both compute zlib's CRC-32 of any contiguous buffer, chained through
    ``value``.  The library is opened by its soname: ``ctypes.util.find_library``
    would start ``ldconfig`` at import.
    """
    try:
        native = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return zlib.crc32
    native.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    native.restype = ctypes.c_uint32

    def libdeflate_crc32(data, value=0):
        view = np.frombuffer(data, np.uint8)  # read-only mappings too; alive until the call returns
        return native(value, view.ctypes.data, view.nbytes)

    return libdeflate_crc32


crc32 = _select_crc32()


class InvalidRecordError(ValueError):
    """Record violates the container invariants."""


class BadMagicError(ValueError):
    """Source does not start with the container magic."""


class UnsupportedVersionError(ValueError):
    """Container version this reader does not understand."""


class TruncatedPayloadError(ValueError):
    """Source ends before the declared payload or metadata."""


class ChecksumMismatchError(ValueError):
    """Payload bytes do not match the stored CRC32."""


def _as_f32(name: str, values, shape_len: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != shape_len:
        raise InvalidRecordError(f"{name} must be {shape_len}D, got {arr.ndim}D")
    arr = np.ascontiguousarray(arr, dtype="<f4")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EpisodeRecord:
    """One fixed-length trajectory: observations, actions, rewards, metadata.

    Payload arrays are stored as float32 exactly as written.  Canonical
    records have T=550, obs_dim=1144, act_dim=39; other shapes are allowed
    but flagged via ``is_canonical``.
    """

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        obs = _as_f32("observations", self.observations, 2)
        act = _as_f32("actions", self.actions, 2)
        rew = _as_f32("rewards", self.rewards, 1)
        if obs.shape[0] == 0:
            raise InvalidRecordError("zero-length episode")
        if act.shape[0] != obs.shape[0] or rew.shape[0] != obs.shape[0]:
            raise InvalidRecordError(
                f"array lengths disagree: obs T={obs.shape[0]}, actions T={act.shape[0]}, rewards T={rew.shape[0]}"
            )
        if obs.shape[1] == 0 or act.shape[1] == 0:
            raise InvalidRecordError("observation and action dimensions must be >= 1")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "actions", act)
        object.__setattr__(self, "rewards", rew)

    @property
    def length(self) -> int:
        return self.observations.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.observations.shape[1]

    @property
    def act_dim(self) -> int:
        return self.actions.shape[1]

    @property
    def is_canonical(self) -> bool:
        return (self.length, self.obs_dim, self.act_dim) == (CANONICAL_T, OBSERVATION_DIM, ACTION_DIM)

    def lookahead_window(self) -> int:
        """The goal window length L that ``obs_dim`` implies; InvalidRecordError if none fits the layout."""
        window, rem = divmod(self.obs_dim - _OBS_EXTRA, GOAL_STEP_DIM)
        if rem != 0 or window < 1:
            raise InvalidRecordError(f"obs_dim {self.obs_dim} does not match the observation layout")
        return window

    def active_key_steps(self) -> np.ndarray:
        """(T, 88) bool goal keys decoded from the goal block (stats hook).

        A record whose ``obs_dim`` does not fit the observation layout
        raises InvalidRecordError, as ``pressed_key_steps`` does.
        """
        self.lookahead_window()
        return self.observations[:, :KEY_COUNT] > 0.5

    def chunk_goal_keys(self) -> tuple:
        """``(chunk, keys)``: the record's place in its song and the goal keys of its real steps.

        ``keys`` is ``active_key_steps()`` without the padded tail, as the
        ``chunk`` and ``n_real`` metadata give them; a record without them
        is chunk 0 with every step real.  Values that are not integers in
        range raise InvalidRecordError.
        """
        chunk = self.meta.get("chunk", 0)
        n_real = self.meta.get("n_real", self.length)
        for name, value in (("chunk", chunk), ("n_real", n_real)):
            if type(value) is not int or value < 0:
                raise InvalidRecordError(f"{name} must be an integer >= 0, got {value!r}")
        if n_real > self.length:
            raise InvalidRecordError(f"n_real {n_real} exceeds the episode length {self.length}")
        return chunk, self.active_key_steps()[:n_real]

    def pressed_key_steps(self, threshold: float = 0.5) -> np.ndarray:
        """(T, 88) bool pressed keys decoded from the key-joint block."""
        start, stop = observation_layout(self.lookahead_window())["key_joints"]
        return self.observations[:, start:stop] >= threshold


def write_episode(rec: EpisodeRecord, sink) -> int:
    """Serialize a record to a binary file object; returns bytes written.

    The arrays are written and checksummed in place, piece by piece: joining
    them first would copy a canonical record's 2.5 MB payload again.
    """
    arrays = (rec.observations, rec.actions, rec.rewards)
    crc = 0
    for arr in arrays:
        crc = crc32(arr, crc)
    meta_bytes = json.dumps(rec.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = (
        _HEADER.pack(MAGIC, FORMAT_VERSION, rec.length, rec.obs_dim, rec.act_dim),
        *arrays,
        _CRC.pack(crc & 0xFFFFFFFF),
        _META_LEN.pack(len(meta_bytes)),
        meta_bytes,
    )
    for part in parts:
        sink.write(part)
    return sum(memoryview(part).nbytes for part in parts)


def _parse_episode(data) -> EpisodeRecord:
    """The record held in ``data`` (bytes or a mapping), its arrays read-only views of ``data``.

    The CRC32 covers the whole payload before any array is built.
    """
    if len(data) < _HEADER.size:
        raise BadMagicError("source shorter than the container header")
    magic, version, T, obs_dim, act_dim = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"container version {version} not supported")
    if T == 0 or obs_dim == 0 or act_dim == 0:
        raise InvalidRecordError("header declares a zero dimension")
    payload_len = 4 * (T * obs_dim + T * act_dim + T)
    pos = _HEADER.size
    if len(data) < pos + payload_len + _CRC.size + _META_LEN.size:
        raise TruncatedPayloadError("payload or trailer missing")
    payload = memoryview(data)[pos : pos + payload_len]
    pos += payload_len
    (crc,) = _CRC.unpack_from(data, pos)
    pos += _CRC.size
    if crc32(payload) & 0xFFFFFFFF != crc:
        raise ChecksumMismatchError("payload CRC32 mismatch")
    (meta_len,) = _META_LEN.unpack_from(data, pos)
    pos += _META_LEN.size
    if len(data) < pos + meta_len:
        raise TruncatedPayloadError("metadata block truncated")
    try:
        meta = json.loads(data[pos : pos + meta_len].decode("utf-8"))
    except RecursionError:
        raise InvalidRecordError("metadata nested too deeply") from None
    if not isinstance(meta, dict):
        raise InvalidRecordError(f"metadata must be a JSON object, got {type(meta).__name__}")

    obs_bytes = 4 * T * obs_dim
    act_bytes = 4 * T * act_dim
    observations = np.frombuffer(payload[:obs_bytes], dtype="<f4").reshape(T, obs_dim)
    actions = np.frombuffer(payload[obs_bytes : obs_bytes + act_bytes], dtype="<f4").reshape(T, act_dim)
    rewards = np.frombuffer(payload[obs_bytes + act_bytes :], dtype="<f4")
    return EpisodeRecord(observations=observations, actions=actions, rewards=rewards, meta=meta)


def read_episode(source) -> EpisodeRecord:
    """Deserialize a record from a binary file object, verifying the CRC.

    The record's arrays are read-only views of the bytes read from
    ``source``.  Malformed bytes raise the ValueErrors ``load_episode``
    lists.
    """
    return _parse_episode(source.read())


@contextmanager
def replacing(path, encoding=None):
    """A new file that replaces ``path`` when the block succeeds: binary, or text in ``encoding``.

    The file is created under a sibling temporary name (``.<name>.<hex>.tmp``,
    never a container name) and moved over ``path`` with ``os.replace``; if
    the block or the move fails, it is removed and ``path`` is left as it
    was.  Nothing is written into ``path``'s own inode, so a record mapped
    from the old file keeps its bytes; a symlink at ``path`` is replaced,
    not written through.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temporary, "xb" if encoding is None else "x", encoding=encoding) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_episode(rec: EpisodeRecord, path) -> int:
    """Write a record to ``path`` through ``replacing``; returns bytes written.

    A record loaded from the file that was at ``path`` stays valid.
    """
    with replacing(path) as fh:
        return write_episode(rec, fh)


# the mapping holds no descriptor where Python can leave it out (3.13+)
_MAP_OPTIONS = {"trackfd": False} if sys.version_info >= (3, 13) else {}


def load_episode(path) -> EpisodeRecord:
    """Load the record at ``path``: its arrays are read-only views of the file, mapped read-only.

    The CRC32 covers the whole payload before any array is built, so
    loading copies no payload.  The mapping lives as long as the record's
    arrays do; before Python 3.13 it also holds an open descriptor.  Every
    malformed file raises a ValueError: one of this module's errors (a file
    too short for the header, an empty one included, raises BadMagicError),
    or a JSON or UTF-8 decoding error from the metadata block.  The file
    must not be truncated in place while a record of it is alive: reading
    the lost pages kills the process with SIGBUS.  ``save_episode``
    replaces files instead, so it is safe.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # mmap refuses empty files
            return _parse_episode(b"")
        return _parse_episode(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ, **_MAP_OPTIONS))


def iter_episodes(directory):
    """Yield the records of a directory's container files, sorted by name.

    Each container is loaded when the caller asks for it, so a caller that
    drops each record before taking the next keeps one mapping alive.  A
    container that fails to load raises at its own place in the order,
    after every record before it.
    """
    for path in sorted(Path(directory).glob(f"*{EPISODE_SUFFIX}")):
        yield load_episode(path)


def song_key_counts(directory, press_threshold: float, write_rewards=None) -> dict:
    """``song -> [hits, n_pressed, n_active]``: the ``key_counts`` of each song's containers, summed.

    The directory's containers are read once, in name order, and none is
    kept; a container without ``song`` metadata counts under ``"?"``.  With
    ``write_rewards``, each container's ``reward_rows`` lines are passed to
    it before the next container is loaded.  Errors of reading and of
    ``write_rewards`` alike pass through unchanged.
    """
    counts: dict = {}
    for rec in iter_episodes(directory):
        found = key_counts(rec.pressed_key_steps(press_threshold), rec.active_key_steps())
        song = str(rec.meta.get("song", "?"))
        counts[song] = [a + b for a, b in zip(counts.get(song, (0, 0, 0)), found)]
        if write_rewards is not None:
            write_rewards(reward_rows(rec))
    return counts


def corpus_pieces(directory, f1_meta: bool = False) -> tuple:
    """``(pieces, f1_scores)`` of a directory of ``*.goals.txt`` files and containers: what ``stats`` counts.

    A piece is a song: the goal sequence of its goal file, or else the goal
    keys of its containers joined in ``chunk`` order, each cut at
    ``n_real``, so that a key held across a chunk boundary is one onset.
    Goal files come first, by name, then the joined songs, by name.  Every
    container's layout is checked, a song's with a goal file too.  With
    ``f1_meta``, ``f1_scores`` holds the ``f1`` metadata of each container
    that has one, which must be a number or numeric text in [0, 1];
    without it, the list is empty and ``f1`` is not read.  Unreadable or
    malformed input raises OSError or ValueError.
    """
    pieces, f1_scores = [], []
    goal_songs = set()
    for path in sorted(Path(directory).glob("*.goals.txt")):
        pieces.append(goal_from_text(path.read_text(encoding="utf-8")))
        goal_songs.add(path.name[: -len(".goals.txt")])
    chunks = {}  # song without a goal file -> (chunk, goal keys) of each of its containers
    for rec in iter_episodes(directory):
        rec.lookahead_window()  # every container must fit the observation layout, as in eval
        # goal files already cover this song; its containers only add F1 metadata
        song = str(rec.meta.get("song", ""))
        if song not in goal_songs:
            chunks.setdefault(song, []).append(rec.chunk_goal_keys())
        if f1_meta and "f1" in rec.meta:
            f1_value = rec.meta["f1"]
            score = float(f1_value) if isinstance(f1_value, str) else f1_value
            # type(), not isinstance: a JSON true is no score; nan fails the range too
            if type(score) not in (int, float) or not 0 <= score <= 1:
                raise ValueError(f"f1 metadata must be a number in [0, 1], got {f1_value!r}")
            f1_scores.append(float(score))
    for song in sorted(chunks):
        parts = sorted(chunks[song], key=lambda part: part[0])
        pieces.append(GoalSequence(np.concatenate([keys for _, keys in parts])))
    return pieces, f1_scores


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, with quotes doubled, only when it holds a comma, quote or line break."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _distinct_cells(column: np.ndarray, format_values) -> list:
    """The text of every entry of a 1D array, formatting each distinct bit pattern once.

    ``format_values`` takes the array of the distinct entries and returns a
    list of one string for each.  Entries that differ in their bytes, such
    as -0.0 and 0.0 or two NaN payloads, are formatted apart.
    """
    _, first, inverse = np.unique(row_bits(column), return_index=True, return_inverse=True)
    return np.array(format_values(column[first]), dtype=object)[inverse].tolist()


def reward_rows(rec: EpisodeRecord) -> list:
    """One record's lines of the per-step reward export: song, chunk, step, reward, f1.

    Each distinct reward is formatted once, with the F1 cell after it.
    """
    song, chunk, f1_value = (csv_cell(str(rec.meta.get(name, ""))) for name in ("song", "chunk", "f1"))
    prefix = f"{song},{chunk},"
    # numpy scalars, not tolist(): the cells keep their np.float32(...) text
    tails = _distinct_cells(rec.rewards, lambda rewards: [f"{reward!r},{f1_value}" for reward in rewards])
    return [f"{prefix}{t},{tail}" for t, tail in enumerate(tails)]


def rewards_csv(rows) -> str:
    """Per-step reward export with piece identity and F1 metadata, from ``reward_rows`` lines."""
    return "\n".join(["song,chunk,step,reward,f1", *rows]) + "\n"


CSV_COLUMNS = ("step", "ot", "press", "sustain", "collision", "energy", "total")


def score_csv(breakdown) -> str:
    """Per-step reward-component export (columns: step, ot, press, ...).

    ``breakdown`` holds one step's floats or per-step arrays, as
    ``score_annotation`` returns them.  Each run of equal rows is joined
    once, from cells that each column formats once per distinct bit
    pattern.
    """
    table = np.column_stack(breakdown.as_row())
    starts, run = step_runs(table)
    columns = []
    for column in table[starts].T:
        columns.append(_distinct_cells(column, lambda values: [repr(value) for value in values.tolist()]))
    bodies = [",".join(cells) for cells in zip(*columns)]
    return ",".join(CSV_COLUMNS) + "\n" + numbered_lines(bodies, run, ",")


def episode_bytes(rec: EpisodeRecord) -> bytes:
    """Serialize to bytes in memory (for tests and hashing)."""
    buf = io.BytesIO()
    write_episode(rec, buf)
    return buf.getvalue()
