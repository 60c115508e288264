"""Spans around the package's functions, installed from outside the package.

Each traced function is found by name among the functions that the
``otpiano`` modules hold, and every module attribute that refers to that same
object is replaced by a recording wrapper, so calls through any import path
are seen.  A metric keeps the name of the module that defined its function
when the benchmark was written; if the function later moves, it is still
found, and if it is gone, the metric reads 0 calls.

A span is ``(id, parent_id, name, start, end, song, extra)``.  Spans stay in
memory and are summarised per pass.  Worker processes forked by
``otpiano annotate --jobs N`` inherit the wrappers; there only per-song spans
are kept, appended to a file in the run's work directory, because the
worker's memory is gone when the pool shuts down.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

# metric prefix -> function name.  The prefix is the defining module at the
# time the benchmark was written.  ``cli.song`` wraps the CLI's per-song
# worker, the only per-song boundary that also runs inside ``--jobs`` workers.
TRACED = {
    "midi.load_midi": "load_midi",
    "midi.discretize": "discretize",
    "midi.goal_to_text": "goal_to_text",
    "midi.goal_vector": "goal_vector",
    "midi.assemble_observation": "assemble_observation",
    "midi.goal_from_text": "goal_from_text",
    "assign.build_cost_matrix": "build_cost_matrix",
    "assign.solve_assignment": "solve_assignment",
    "hand.step_hand": "step_hand",
    "hand.collision_flag": "collision_flag",
    "annotate.annotate_song": "annotate_song",
    "annotate.score_annotation": "score_annotation",
    "annotate.annotation_to_pig": "annotation_to_pig",
    "annotate.write_annotation_text": "write_annotation_text",
    "annotate.chunk_episodes": "chunk_episodes",
    "reward.total_reward": "total_reward",
    "cli.build_episode_record": "build_episode_record",
    "cli.song": "_process_song",
    "store.save_episode": "save_episode",
    "store.load_episode": "load_episode",
    "metrics.precision_recall": "precision_recall",
    "metrics.dataset_stats": "dataset_stats",
    "metrics.fingering_agreement": "fingering_agreement",
    "pig.save_pig": "save_pig",
    "pig.load_pig": "load_pig",
}

SONG_SPAN = "cli.song"
SOLVE_SPAN = "assign.solve_assignment"


def _song_of(name: str, args) -> "str | None":
    """Song a call works on, where its arguments name one."""
    try:
        if name == SONG_SPAN:
            return Path(str(args[0]["path"])).name.split(".", 1)[0]
        if name in ("store.load_episode", "pig.load_pig"):
            return Path(str(args[0])).name.split(".", 1)[0]
    except (LookupError, TypeError):
        pass
    return None


def _extra(name: str, args, result):
    """Per-call detail some metrics need: cost-matrix shape or bytes moved.

    Never raises: if a later signature no longer fits, the detail is None
    and the call still counts in the layer's time.
    """
    try:
        if name == SOLVE_SPAN:
            return getattr(args[0], "costs", args[0]).shape
        if name == "store.save_episode":
            return int(result)
        if name == "store.load_episode":
            return os.path.getsize(args[0])
    except (AttributeError, LookupError, TypeError, ValueError, OSError):
        pass
    return None


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on ``uninstall``."""

    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list = []
        self._stack: list = [0]
        self._song = ""
        self._next_id = 1
        self._restore: list = []

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items()) if name == "otpiano" or name.startswith("otpiano.")]

    def find(self, func_name: str):
        """The package function called ``func_name``, or None if none exists."""
        for module in self._modules():
            obj = getattr(module, func_name, None)
            if callable(obj) and (getattr(obj, "__module__", None) or "").startswith("otpiano"):
                return obj
        return None

    def install(self) -> None:
        modules = self._modules()
        for metric, func_name in TRACED.items():
            original = self.find(func_name)
            if original is None:
                continue
            wrapper = self._wrap(metric, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, func):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                if name != SONG_SPAN:
                    return func(*args, **kwargs)
                start = clock()
                result = func(*args, **kwargs)
                end = clock()
                tracer._spool(start, end, _song_of(name, args) or "")
                return result
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            outer_song = tracer._song
            song = tracer._song = _song_of(name, args) or outer_song
            tracer._stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._song = outer_song
            tracer.spans.append((span_id, parent, name, start, end, song, _extra(name, args, result)))
            return result

        return wrapper

    def _spool(self, start: float, end: float, song: str) -> None:
        line = json.dumps({"name": SONG_SPAN, "start": start, "end": end, "song": song})
        with open(self.spool_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def take(self) -> list:
        """Spans recorded since the last call, including spooled worker spans."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                spans.append((0, 0, rec["name"], rec["start"], rec["end"], rec["song"], "worker"))
            path.unlink()
        return spans


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """span id -> duration minus the part of its interval its child spans cover."""
    children: dict = {}
    for span in spans:
        if span[0]:
            children.setdefault(span[1], []).append((span[3], span[4]))
    own = {}
    for span_id, _parent, _name, start, end, _song, _extra in spans:
        if not span_id:
            continue
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        own[span_id] = (end - start) - covered
    return own


def annotate_song_self_check(spans) -> float:
    """Largest excess of the summed self times under an ``annotate_song`` span over that span.

    Self times count each instant once, so in a consistent trace the sum over
    a span and all its descendants never exceeds the span's duration; a
    positive result means spans escaped their parent's interval.
    """
    own = self_times(spans)
    children: dict = {}
    for span in spans:
        if span[0]:
            children.setdefault(span[1], []).append(span[0])
    worst = 0.0
    for span_id, _parent, name, start, end, _song, _extra in spans:
        if name != "annotate.annotate_song":
            continue
        total, todo = 0.0, [span_id]
        while todo:
            node = todo.pop()
            total += own[node]
            todo.extend(children.get(node, ()))
        worst = max(worst, total - (end - start))
    return worst


def _bucket(n_keys: int, n_fingers: int) -> str:
    if n_keys > n_fingers:
        return "oversized"
    if n_keys <= 3:
        return "k1-3"
    if n_keys <= 7:
        return "k4-7"
    return "k8-10"


def summarise(spans, passes: int, steps: int) -> dict:
    """Per-layer metrics per traced pass from the spans of ``passes`` passes.

    ``steps`` is the number of control steps annotated in-process over those
    passes (the base of ``reward.total_reward_calls_per_step``).
    """
    own = self_times(spans)
    total = dict.fromkeys(TRACED, 0.0)
    calls = dict.fromkeys(TRACED, 0)
    solve_us: dict = {"k1-3": [], "k4-7": [], "k8-10": [], "oversized": []}
    song_s = []
    song_self_s = 0.0
    bytes_moved = {"store.save_episode": 0, "store.load_episode": 0}
    for span_id, _parent, name, start, end, _song, extra in spans:
        if name == SONG_SPAN:
            song_s.append(end - start)
            continue
        total[name] += end - start
        calls[name] += 1
        if name == "annotate.annotate_song":
            song_self_s += own[span_id]
        if extra is None:
            continue
        if name == SOLVE_SPAN:
            solve_us[_bucket(*extra)].append((end - start) * 1e6)
        elif name in bytes_moved:
            bytes_moved[name] += extra

    out = {f"{name}_s": total[name] / passes for name in TRACED if name != SONG_SPAN}
    counted = ("assign.build_cost_matrix", "assign.solve_assignment", "hand.step_hand")
    for name in counted + ("midi.goal_vector", "midi.assemble_observation"):
        out[f"{name}_calls"] = calls[name] / passes
    for bucket, values in solve_us.items():
        out[f"assign.solve_us.{bucket}"] = statistics.median(values) if values else 0.0
    out["annotate.annotate_song_self_s"] = song_self_s / passes
    out["reward.total_reward_calls_per_step"] = calls["reward.total_reward"] / steps if steps else 0.0
    for name, key in (("store.save_episode", "store.write_MBps"), ("store.load_episode", "store.read_MBps")):
        out[key] = bytes_moved[name] / 1e6 / total[name] if total[name] else 0.0
    out["cli.song_s_p50"] = statistics.median(song_s) if song_s else 0.0
    out["cli.song_s_max"] = max(song_s) if song_s else 0.0
    return out
