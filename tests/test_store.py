from __future__ import annotations

import ctypes
import io
import itertools
import json
import mmap
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import episode_with_raw_meta, mutated_bytes
from otpiano import store
from otpiano.midi import ACTION_DIM, OBSERVATION_DIM, observation_dim
from otpiano.store import (
    CANONICAL_T,
    BadMagicError,
    ChecksumMismatchError,
    EPISODE_SUFFIX,
    EpisodeRecord,
    InvalidRecordError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    episode_bytes,
    iter_episodes,
    load_episode,
    read_episode,
    reward_rows,
    rewards_csv,
    save_episode,
    score_csv,
    write_episode,
)


def _random_record(rng, T=5, obs_dim=12, act_dim=3, meta=None):
    return EpisodeRecord(
        observations=rng.standard_normal((T, obs_dim)).astype(np.float32),
        actions=rng.standard_normal((T, act_dim)).astype(np.float32),
        rewards=rng.standard_normal(T).astype(np.float32),
        meta=meta or {"song": "demo", "chunk": 0, "f1": 0.9},
    )


def _round_trip(rec):
    return read_episode(io.BytesIO(episode_bytes(rec)))


def test_round_trip_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rec = _random_record(rng)
        back = _round_trip(rec)
        assert np.array_equal(back.observations, rec.observations)
        assert np.array_equal(back.actions, rec.actions)
        assert np.array_equal(back.rewards, rec.rewards)
        assert back.meta == rec.meta


def test_write_read_write_is_byte_identical():
    rec = _random_record(np.random.default_rng(1))
    first = episode_bytes(rec)
    second = episode_bytes(read_episode(io.BytesIO(first)))
    assert first == second


def test_header_declares_dimensions():
    rec = _random_record(np.random.default_rng(2), T=7, obs_dim=11, act_dim=4)
    data = episode_bytes(rec)
    assert data[:4] == b"RP1T"
    header = np.frombuffer(data[4:20], dtype="<u4")
    assert tuple(header) == (1, 7, 11, 4)


def test_canonical_flag():
    rng = np.random.default_rng(3)
    assert not _random_record(rng).is_canonical
    canonical = _random_record(rng, T=550, obs_dim=1144, act_dim=39)
    assert canonical.is_canonical


def test_zero_length_rejected():
    with pytest.raises(InvalidRecordError):
        EpisodeRecord(
            observations=np.zeros((0, 4), dtype=np.float32),
            actions=np.zeros((0, 2), dtype=np.float32),
            rewards=np.zeros(0, dtype=np.float32),
        )


def test_ragged_arrays_rejected():
    with pytest.raises(InvalidRecordError):
        EpisodeRecord(
            observations=np.zeros((3, 4), dtype=np.float32),
            actions=np.zeros((2, 2), dtype=np.float32),
            rewards=np.zeros(3, dtype=np.float32),
        )


def test_corruption_detection():
    rec = _random_record(np.random.default_rng(4))
    data = bytearray(episode_bytes(rec))

    bad_magic = bytearray(data)
    bad_magic[0] = ord("X")
    with pytest.raises(BadMagicError):
        read_episode(io.BytesIO(bytes(bad_magic)))

    bad_version = bytearray(data)
    bad_version[4] = 9
    with pytest.raises(UnsupportedVersionError):
        read_episode(io.BytesIO(bytes(bad_version)))

    with pytest.raises(TruncatedPayloadError):
        read_episode(io.BytesIO(bytes(data[:40])))

    flipped = bytearray(data)
    flipped[24] ^= 0xFF  # inside the payload
    with pytest.raises(ChecksumMismatchError):
        read_episode(io.BytesIO(bytes(flipped)))


def test_every_single_byte_payload_corruption_detected():
    rec = _random_record(np.random.default_rng(5), T=2, obs_dim=3, act_dim=2)
    data = bytearray(episode_bytes(rec))
    payload_start = 20
    payload_len = 4 * (2 * 3 + 2 * 2 + 2)
    for i in range(payload_start, payload_start + payload_len):
        corrupted = bytearray(data)
        corrupted[i] ^= 0x01
        with pytest.raises(ChecksumMismatchError):
            read_episode(io.BytesIO(bytes(corrupted)))


_VALID = episode_bytes(_random_record(np.random.default_rng(11), T=2, obs_dim=3, act_dim=2))


def _read_or_value_error(data):
    try:
        rec = read_episode(io.BytesIO(data))
    except ValueError:
        return
    assert isinstance(rec.meta, dict)


@given(st.binary(max_size=300) | st.binary(max_size=300).map(_VALID[:20].__add__))
def test_read_episode_raises_only_value_errors_on_arbitrary_bytes(data):
    _read_or_value_error(data)


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(_VALID))
def test_read_episode_raises_only_value_errors_on_mutated_files(data):
    _read_or_value_error(data)


@given(st.binary(max_size=40) | st.text(alphabet='{}[]":,0123 nulltrue', max_size=40).map(str.encode))
def test_read_episode_raises_only_value_errors_on_any_metadata(meta):
    _read_or_value_error(episode_with_raw_meta(meta))


_FILE_NAMES = itertools.count()


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=3) | st.binary(max_size=300) | mutated_bytes(_VALID))
def test_load_episode_raises_only_value_errors_on_any_file(tmp_path_factory, data):
    # a fresh file each time: rewriting one in place under a live mapping is the documented SIGBUS
    path = tmp_path_factory.getbasetemp() / f"any{next(_FILE_NAMES)}{EPISODE_SUFFIX}"
    path.write_bytes(data)
    try:
        rec = load_episode(path)
    except ValueError as exc:
        # the same error as from the bytes; a file too short for the header, empty included, is BadMagicError
        with pytest.raises(type(exc)):
            read_episode(io.BytesIO(data))
        assert len(data) >= 20 or isinstance(exc, BadMagicError)
        return
    assert isinstance(rec.meta, dict)


def _libdeflate_loads() -> bool:
    try:
        ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _libdeflate_loads(), reason="libdeflate.so.0 is not installed")
def test_crc32_is_libdeflates_where_the_library_loads():
    assert store.crc32 is not zlib.crc32
    assert store.crc32(b"123456789") == 0xCBF43926  # the CRC-32 check value


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=3000), st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, 7))
def test_crc32_equals_zlibs(data, start, head, tail):
    # memoryview slices at odd offsets, chained from any start value; an empty one gives the start value
    view = memoryview(data)[head : len(data) - tail]
    assert store.crc32(view, start) == zlib.crc32(view, start)
    assert store.crc32(data) == zlib.crc32(data)
    assert store.crc32(data[:0], start) == start


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=3000), st.integers(0, 2**32 - 1), st.integers(0, 7))
def test_crc32_equals_zlibs_on_a_read_only_mapping(tmp_path_factory, data, start, head):
    path = tmp_path_factory.getbasetemp() / f"crc{next(_FILE_NAMES)}.bin"
    path.write_bytes(data)
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapping:
        view = memoryview(mapping)[head:]
        try:
            assert store.crc32(view, start) == zlib.crc32(view, start)
        finally:
            view.release()  # the mapping closes only once no view of it is left


@pytest.mark.parametrize("library", [None, object()], ids=["library-missing", "symbol-missing"])
def test_crc32_falls_back_to_zlib_with_the_same_bytes_and_checks(tmp_path, monkeypatch, library):
    def cdll(name):
        if library is None:
            raise OSError(f"{name}: cannot open shared object file")
        return library

    selected = store.crc32
    with monkeypatch.context() as patch:
        patch.setattr(ctypes, "CDLL", cdll)
        fallback = store._select_crc32()
    assert fallback is zlib.crc32
    rec = _random_record(np.random.default_rng(17), T=9, obs_dim=13, act_dim=5)
    written = []
    for name, function in (("selected", selected), ("fallback", fallback)):
        monkeypatch.setattr(store, "crc32", function)
        written.append(episode_bytes(rec))
        path = tmp_path / f"{name}{EPISODE_SUFFIX}"
        save_episode(rec, path)
        assert np.array_equal(load_episode(path).observations, rec.observations)
        flipped = bytearray(written[-1])
        flipped[20 + 4 * 13 * 9 + 3] ^= 0x10  # an action byte
        with pytest.raises(ChecksumMismatchError):
            read_episode(io.BytesIO(bytes(flipped)))
        (tmp_path / f"{name}-flipped{EPISODE_SUFFIX}").write_bytes(flipped)
        with pytest.raises(ChecksumMismatchError):
            load_episode(tmp_path / f"{name}-flipped{EPISODE_SUFFIX}")
    assert written[0] == written[1]


def test_writing_and_checking_both_call_the_selected_crc32(monkeypatch):
    sizes = []
    monkeypatch.setattr(store, "crc32", lambda data, value=0: sizes.append(memoryview(data).nbytes) or zlib.crc32(data, value))
    data = episode_bytes(_random_record(np.random.default_rng(18), T=2, obs_dim=3, act_dim=2))
    assert sizes == [24, 16, 8]  # observations, actions, rewards, chained
    read_episode(io.BytesIO(data))
    assert sizes[3:] == [48]  # the whole payload


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@given(_JSON_VALUE.filter(lambda value: not isinstance(value, dict)))
def test_read_episode_rejects_non_object_metadata(meta):
    with pytest.raises(InvalidRecordError):
        read_episode(io.BytesIO(episode_with_raw_meta(json.dumps(meta).encode())))


def test_read_episode_rejects_deeply_nested_metadata():
    with pytest.raises(InvalidRecordError):
        read_episode(io.BytesIO(episode_with_raw_meta(b"[" * 100_000)))


def test_float64_inputs_are_stored_as_float32():
    values = np.array([[0.1, 0.2, 0.3]])
    rec = EpisodeRecord(
        observations=values, actions=np.array([[1.0]]), rewards=np.array([2.0])
    )
    assert rec.observations.dtype == np.float32
    back = _round_trip(rec)
    assert np.array_equal(back.observations, values.astype(np.float32))


def test_save_load_files(tmp_path):
    rec = _random_record(np.random.default_rng(6))
    path = tmp_path / f"demo.ep000{EPISODE_SUFFIX}"
    n = save_episode(rec, path)
    assert path.stat().st_size == n
    back = load_episode(path)
    assert np.array_equal(back.rewards, rec.rewards)


_OVERWRITE_WHILE_MAPPED = textwrap.dedent(
    """
    import sys
    import numpy as np
    from otpiano.store import EpisodeRecord, load_episode, save_episode

    path = sys.argv[1]
    old = load_episode(path)
    expected = [np.array(a) for a in (old.observations, old.actions, old.rewards)]
    new = EpisodeRecord(old.observations[:7] + 1, old.actions[:7], old.rewards[:7], meta={"song": "new"})
    save_episode(new, path)
    # every element of the old record, read after its file was replaced
    for arr, want in zip((old.observations, old.actions, old.rewards), expected):
        assert arr.tobytes() == want.tobytes()
    back = load_episode(path)
    assert back.meta == {"song": "new"} and back.length == 7
    assert np.array_equal(back.observations, new.observations)
    """
)


def test_save_over_a_loaded_record_keeps_the_record(tmp_path):
    # a child process, so that a SIGBUS fails this test instead of killing pytest
    rec = _random_record(np.random.default_rng(17), T=CANONICAL_T, obs_dim=OBSERVATION_DIM, act_dim=ACTION_DIM)
    path = tmp_path / f"canonical.ep000{EPISODE_SUFFIX}"
    save_episode(rec, path)
    src = str(Path(store.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _OVERWRITE_WHILE_MAPPED, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert os.listdir(tmp_path) == [path.name]


def test_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / f"s.ep000{EPISODE_SUFFIX}"
    save_episode(_random_record(np.random.default_rng(18)), path)
    before = path.read_bytes()

    def fail_mid_write(rec, sink):
        sink.write(b"RP1T partial")
        raise OSError("disk full")

    monkeypatch.setattr(store, "write_episode", fail_mid_write)
    with pytest.raises(OSError, match="disk full"):
        save_episode(_random_record(np.random.default_rng(19)), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


def test_load_episode_reads_without_copying(tmp_path):
    rng = np.random.default_rng(9)
    rec = _random_record(rng, T=CANONICAL_T, obs_dim=OBSERVATION_DIM, act_dim=ACTION_DIM)
    path = tmp_path / f"canonical.ep000{EPISODE_SUFFIX}"
    size = save_episode(rec, path)
    tracemalloc.start()
    try:
        back = load_episode(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # views of the mapped file, which lies outside the heap: no payload copy, not even the bytes read
    assert peak < 0.05 * size
    assert back.is_canonical and not back.observations.flags.writeable
    assert np.array_equal(back.observations, rec.observations) and np.array_equal(back.rewards, rec.rewards)


def test_chunk_goal_keys_drops_the_padding():
    rec = _random_record(np.random.default_rng(10), obs_dim=observation_dim(1), meta={"song": "s", "chunk": 3, "n_real": 2})
    chunk, keys = rec.chunk_goal_keys()
    assert chunk == 3
    assert np.array_equal(keys, rec.active_key_steps()[:2])
    chunk, keys = _random_record(np.random.default_rng(11), obs_dim=observation_dim(1), meta={"song": "s"}).chunk_goal_keys()
    assert chunk == 0 and keys.shape == (5, 88)


def test_goal_key_hooks_reject_a_width_off_the_observation_layout():
    # 100 columns hold 88 goal keys, but no observation layout is 100 wide
    rec = _random_record(np.random.default_rng(19), obs_dim=100)
    for hook in (rec.active_key_steps, rec.chunk_goal_keys, rec.pressed_key_steps):
        with pytest.raises(InvalidRecordError, match="obs_dim 100 does not match the observation layout"):
            hook()


@pytest.mark.parametrize(
    "meta",
    [{"chunk": "1"}, {"chunk": -1}, {"chunk": True}, {"n_real": 6}, {"n_real": 1.5}, {"n_real": None}],
    ids=["chunk-text", "chunk-negative", "chunk-bool", "n_real-too-long", "n_real-float", "n_real-null"],
)
def test_chunk_goal_keys_rejects_bad_metadata(meta):
    rec = _random_record(np.random.default_rng(12), obs_dim=observation_dim(1), meta=meta)
    with pytest.raises(InvalidRecordError):
        rec.chunk_goal_keys()


def test_native_importer_reads_directory(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(3):
        save_episode(_random_record(rng, meta={"song": "s", "chunk": i}), tmp_path / f"s.ep{i:03d}{EPISODE_SUFFIX}")
    records = list(iter_episodes(tmp_path))
    assert [r.meta["chunk"] for r in records] == [0, 1, 2]


def _save_songs(directory, names, rng):
    for name in names:
        save_episode(_random_record(rng, meta={"song": name}), directory / f"{name}{EPISODE_SUFFIX}")


def test_iter_episodes_yields_in_name_order_without_read_ahead(tmp_path, monkeypatch):
    _save_songs(tmp_path, ["c", "e", "a", "d", "b"], np.random.default_rng(13))
    started = []
    load = store.load_episode
    monkeypatch.setattr(store, "load_episode", lambda path: started.append(path) or load(path))
    songs = []
    for rec in iter_episodes(tmp_path):
        songs.append(rec.meta["song"])
        time.sleep(0.01)  # time for a reader that runs ahead to show it
        # only the record in hand has been read
        assert len(started) == len(songs)
    assert songs == ["a", "b", "c", "d", "e"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_streaming_iter_episodes_holds_at_most_one_descriptor(tmp_path):
    _save_songs(tmp_path, [f"s{i:02d}" for i in range(50)], np.random.default_rng(16))
    baseline = len(os.listdir("/proc/self/fd"))
    seen = 0
    for rec in iter_episodes(tmp_path):
        seen += 1
        assert len(os.listdir("/proc/self/fd")) <= baseline + 1
    assert seen == 50


def test_iter_episodes_raises_at_the_corrupt_record(tmp_path):
    names = ["s0", "s1", "s2", "s3", "s4"]
    _save_songs(tmp_path, names, np.random.default_rng(14))
    path = tmp_path / f"s2{EPISODE_SUFFIX}"
    data = bytearray(path.read_bytes())
    data[30] ^= 0xFF  # a payload byte
    path.write_bytes(bytes(data))
    episodes = iter_episodes(tmp_path)
    assert [next(episodes).meta["song"] for _ in range(2)] == ["s0", "s1"]
    with pytest.raises(ChecksumMismatchError):
        next(episodes)


def test_iter_episodes_closed_early_leaves_no_thread(tmp_path):
    _save_songs(tmp_path, ["a", "b", "c"], np.random.default_rng(15))
    baseline = threading.active_count()
    episodes = iter_episodes(tmp_path)
    assert next(episodes).meta["song"] == "a"
    episodes.close()
    assert threading.active_count() == baseline


def test_iter_episodes_on_an_empty_directory_starts_no_thread(tmp_path, monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert list(iter_episodes(tmp_path)) == []


def test_goal_decoding_hooks():
    from conftest import key_rows
    from otpiano.keyboard import KeyState
    from otpiano.midi import GoalSequence, assemble_observation, goal_vector

    seq = GoalSequence(key_rows([{5, 17}]), dt=0.05)
    depths = [0.0] * 88
    depths[17] = 1.0
    obs = assemble_observation(
        goal_vector(seq, 0, 11), KeyState(depths=tuple(depths)), np.zeros((10, 3)), np.zeros(46)
    )
    rec = EpisodeRecord(
        observations=obs[None, :].astype(np.float32),
        actions=np.zeros((1, 39), dtype=np.float32),
        rewards=np.zeros(1, dtype=np.float32),
    )
    assert np.argwhere(rec.active_key_steps()).tolist() == [[0, 5], [0, 17]]
    assert np.argwhere(rec.pressed_key_steps()).tolist() == [[0, 17]]


def test_csv_exports():
    rng = np.random.default_rng(8)
    rec = _random_record(rng, T=2)
    text = rewards_csv(reward_rows(rec))
    lines = text.strip().splitlines()
    assert lines[0] == "song,chunk,step,reward,f1"
    assert len(lines) == 3
    assert lines[1].startswith("demo,0,0,")

    from otpiano.reward import total_reward

    text = score_csv(total_reward(1.0, 1.0, 1.0, 1.0, 0.0))
    assert text.splitlines()[0] == "step,ot,press,sustain,collision,energy,total"
    assert text.splitlines()[1].endswith(",3.5")


def test_score_csv_writes_python_float_cells():
    from otpiano.reward import total_reward

    ones = np.ones(2)
    text = score_csv(total_reward(ones, np.array([1.0, 0.25]), ones, np.array([1.0, 0.0]), np.zeros(2)))
    assert text.splitlines()[1:] == ["0,1.0,1.0,1.0,1.0,0.0,3.5", "1,1.0,0.25,1.0,0.0,0.0,2.25"]
