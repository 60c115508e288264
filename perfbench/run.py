"""otpiano batch benchmark: annotate / eval / stats throughput, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload strict-ten --seed 0 --seconds 25 --trace 0

The benchmark is a closed loop with one client: it calls ``otpiano.cli.main``
in-process, one invocation at a time, on a corpus generated from ``--seed``.
A pass runs the workload's invocations once; passes repeat until
``--seconds`` have elapsed and each metric is the median over passes.  Every
invocation is timed between two runs of a fixed reference loop and its wall
time is scaled to the loop's nominal speed (see ``Timer``).  Every output
file is hashed and compared with ``golden.json``; a song whose outputs
differ, that prints a ``FAIL`` line, or whose invocation raises, counts as
failed.  With ``--trace 1`` untraced and traced passes alternate: the traced
ones give the per-layer metrics, the gap between the two gives the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it record the input properties, the machine, the passes and any
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH_DIR))
import corpus  # noqa: E402

# Song lengths in seconds of score time; fixed so every seed gives the same
# amount of work and only the musical content varies.
ANNOTATE_LENGTHS = (60, 100, 140, 180)
READ_LENGTHS = (40, 60, 80)
SETUP_REPEATS = {"strict-ten": 5, "best-effort-four": 5, "corpus-read": 3}
TEN_FLAGS = ["--pig-out"]
FOUR_FLAGS = ["--embodiment", "four-finger", "--best-effort", "--pig-out"]

WORKLOADS = {
    "strict-ten": {"kind": "grid", "lengths": ANNOTATE_LENGTHS, "flags": TEN_FLAGS, "fingers": 10, "jobs2": True},
    "best-effort-four": {
        "kind": "legato", "lengths": ANNOTATE_LENGTHS, "flags": FOUR_FLAGS, "fingers": 8, "jobs2": False
    },
    "corpus-read": {"kind": "grid", "lengths": READ_LENGTHS},
}
READ_SETUP = {"ten": (TEN_FLAGS, 10), "four": (FOUR_FLAGS, 8)}  # label -> annotate flags, fingers

# End-to-end metrics every workload reports.  Each is work completed per
# calibrated second of the invocations that do it, at one job:
#   steps_per_s     control steps: annotated (annotate), summarised (stats)
#   songs_per_s     songs through a whole pass
#   episodes_per_s  episode containers: written (annotate), scored (eval)
#   notes_per_s     notes: annotated (annotate), compared (eval --pig-*)
THROUGHPUT = ("steps_per_s", "songs_per_s", "episodes_per_s", "notes_per_s")
UNITS = {**dict.fromkeys(THROUGHPUT, "1/s"), "peak_rss_mb": "MB", "setup_s": "s"}


def log(kind: str, payload) -> None:
    print(f"perfbench {kind} {json.dumps(payload, sort_keys=True)}", flush=True)


def import_package():
    """Import ``otpiano`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "otpiano" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no otpiano sources under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import otpiano.cli

    if Path(otpiano.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: imported otpiano from {otpiano.cli.__file__}, not {src}")
    return otpiano.cli, numpy


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

REFERENCE_ITERATIONS = 100_000
REFERENCE_NOMINAL_S = 0.020


def reference_seconds() -> float:
    """Wall time of a fixed interpreter-bound loop that runs no otpiano code."""
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        total += (i * 1.5) % 7.0
        table[i & 1023] = total
    return time.perf_counter() - start


class Timer:
    """Wall time of a call, and the same time scaled to the reference loop's nominal speed.

    The 2-core machine this benchmark was written on switches, every few
    seconds, between a fast mode and one about 1.3-1.5x slower for otpiano
    (other tenants share the cores).  The reference loop slows down in the
    same periods, somewhat more, so each call is timed between two runs of it
    and its wall time is multiplied by ``REFERENCE_NOMINAL_S`` over their
    mean: seconds on a machine where the loop takes 20 ms (its fast-mode
    time there).  This over-corrects slow periods a little but cut the
    run-to-run spread of throughput from 0.15-0.19 to below 0.08.
    """

    def __init__(self):
        self.references: list = []

    def time(self, fn):
        """``(result, wall_s, calibrated_s)`` of ``fn()``."""
        before = reference_seconds()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = reference_seconds()
        self.references += (before, after)
        return result, wall, wall * REFERENCE_NOMINAL_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Invocations and failure accounting
# ---------------------------------------------------------------------------


class Outcome:
    """One ``otpiano`` invocation: exit code, captured output, times."""

    def __init__(self, code, stdout: str, stderr: str, error: "str | None"):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.error = error
        self.wall = self.seconds = 0.0

    def failed_songs(self, songs) -> dict:
        """``song -> reason`` for the songs this call failed.

        A ``FAIL`` line fails its song; an exception that escaped, a usage
        error, or exit 1 without ``FAIL`` lines fails every song of the call.
        """
        if self.error is not None:
            return dict.fromkeys(songs, f"raised {self.error}")
        if self.code not in (0, 1):
            return dict.fromkeys(songs, f"exit {self.code}")
        named = {}
        for line in self.stderr.splitlines():
            if line.startswith("FAIL "):
                song, _, message = line[len("FAIL ") :].partition(": ")
                named[song] = f"FAIL {message.split(':', 1)[0]}"
        if self.code == 1 and not named:
            return dict.fromkeys(songs, "exit 1")
        return {song: reason for song, reason in named.items() if song in songs}

    def summaries(self) -> dict:
        """``song -> {field: int}`` from the annotate summary lines (steps, episodes, ...)."""
        out = {}
        for line in self.stdout.splitlines():
            song, *fields = line.split("\t")
            if fields and fields[0].startswith("steps="):
                pairs = (f.split("=", 1) for f in fields)
                out[song] = {k: int(v) for k, v in pairs if v.isdigit()}
        return out

    def midi_problems(self) -> int:
        return sum(1 for line in self.stderr.splitlines() if line.startswith("  note: "))


def invoke(cli, timer: Timer, argv) -> Outcome:
    def call():
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash must not end the benchmark; it fails the call's songs
            error = type(exc).__name__
        return Outcome(code, out.getvalue(), err.getvalue(), error)

    outcome, wall, seconds = timer.time(call)
    outcome.wall, outcome.seconds = wall, seconds
    return outcome


class Ledger:
    """Songs attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, label: str, outcome: Outcome, songs, mismatched=()) -> None:
        self.attempted += len(songs)
        crashed = outcome.failed_songs(songs)
        for reason in crashed.values():
            self.reasons[f"{label}: {reason}"] += 1
        for song in set(mismatched) - set(crashed):
            self.reasons[f"{label}: golden mismatch {song}"] += 1
        self.failed += len(set(crashed) | set(mismatched))


# ---------------------------------------------------------------------------
# Output hashing
# ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def manifest_digest(entries: dict) -> str:
    """SHA-256 over ``name sha256`` lines, one per output file, sorted by name."""
    return sha256_text("".join(f"{name} {entries[name]}\n" for name in sorted(entries)))


def file_digest(*paths) -> str:
    return manifest_digest({p.name: sha256_file(p) if p.is_file() else "missing" for p in paths})


def stats_digest(hist: Path, stdout: str) -> str:
    """Digest of a ``stats`` call: its histogram CSV and its printed summary."""
    csv = sha256_file(hist) if hist.is_file() else "missing"
    return manifest_digest({"csv": csv, "stdout": sha256_text(stdout)})


def song_digests(out_dir: Path, songs) -> dict:
    """Per song, the digest over every output file named after it."""
    files: dict = {song: {} for song in songs}
    if out_dir.is_dir():
        for path in out_dir.iterdir():
            song = path.name.split(".", 1)[0]
            if song in files:
                files[song][path.name] = sha256_file(path)
    return {song: manifest_digest(entries) for song, entries in files.items()}


class Golden:
    """Expected digests for one workload and seed, and the digests seen so far."""

    def __init__(self, workload: str, seed: int, record: bool):
        self.expected = {}
        self.seen: dict = {}
        if GOLDEN_PATH.is_file() and not record:
            data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
            self.expected = data.get(workload, {}).get(str(seed), {})

    def mismatched(self, digests: dict) -> set:
        """Keys whose digest differs from the golden one or from the first one seen in this run."""
        bad = set()
        for key, value in digests.items():
            first = self.seen.setdefault(key, value)
            if value != first or value != self.expected.get(key, value):
                bad.add(key)
        return bad


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def goal_properties(out_dir: Path, n_fingers: int) -> dict:
    """Steps, episodes, chord-size histogram and oversized share from the outputs."""
    sizes: Counter = Counter()
    for path in sorted(out_dir.glob("*.goals.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.startswith("#"):
                keys = line.split("\t")[2]
                sizes[len(keys.split(",")) if keys else 0] += 1
    steps = sum(sizes.values())
    over = sum(n for size, n in sizes.items() if size > n_fingers)
    return {
        "steps": steps,
        "episodes": len(list(out_dir.glob("*.rp1t"))),
        "chord_size_histogram": {str(k): sizes[k] for k in sorted(sizes)},
        "oversized_steps": over,
        "oversized_step_share": over / steps if steps else 0.0,
    }


class Workload:
    """Shared state: the corpus, its golden digests, the ledger and the timer."""

    def __init__(self, cli, name: str, seed: int, work: Path, golden: Golden, ledger: Ledger, timer: Timer):
        self.cli = cli
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.golden = golden
        self.ledger = ledger
        self.timer = timer
        self.properties: dict = {}
        self.steps_in_process = 0  # base of reward.total_reward_calls_per_step

    def write_corpus(self, midi_dir: Path) -> float:
        """Generate and write the corpus; returns the calibrated seconds it took."""

        def write():
            self.songs = corpus.generate(self.spec["kind"], self.seed, self.spec["lengths"])
            midi_dir.mkdir(parents=True)
            for song in self.songs:
                (midi_dir / f"{song.name}.mid").write_bytes(song.data)

        _, _, seconds = self.timer.time(write)
        self.names = [s.name for s in self.songs]
        self.midi = midi_dir
        return seconds

    def annotate_songs(self, out: Path, flags, label: str) -> tuple:
        """One ``annotate`` invocation per song, outputs checked; ``(outcomes, summaries)``."""
        outcomes = [
            invoke(self.cli, self.timer, ["annotate", "--midi", self.midi / f"{song}.mid", "--out", out, *flags])
            for song in self.names
        ]
        digests = song_digests(out, self.names)
        mismatched = self.golden.mismatched({f"{label}{song}": d for song, d in digests.items()})
        summaries = {}
        for song, outcome in zip(self.names, outcomes):
            self.ledger.record(f"{label}annotate", outcome, [song], [song] if f"{label}{song}" in mismatched else ())
            summaries.update(outcome.summaries())
        return outcomes, summaries

    def song_properties(self) -> dict:
        return {
            "songs": len(self.songs),
            "notes": sum(s.notes for s in self.songs),
            "off_keyboard_notes": sum(s.off_keyboard_notes for s in self.songs),
            "dangling_note_ons": sum(s.dangling_note_ons for s in self.songs),
            "stray_note_offs": sum(s.stray_note_offs for s in self.songs),
            "tempo_changes": sum(s.tempo_changes for s in self.songs),
            "midi_bytes": sum(len(s.data) for s in self.songs),
        }


class AnnotateWorkload(Workload):
    """strict-ten / best-effort-four: annotate each song, then (strict-ten) the directory with --jobs 2."""

    def setup(self, index: int) -> float:
        return self.write_corpus(self.work / f"setup{index}" / "midi")

    def run_pass(self, index: int) -> dict:
        out = self.work / f"pass{index}"
        outcomes, done = self.annotate_songs(out, self.spec["flags"], "")
        if not self.properties:
            self.properties = {
                **self.song_properties(),
                **goal_properties(out, self.spec["fingers"]),
                "midi_problems": sum(o.midi_problems() for o in outcomes),
                "dropped_steps": sum(d.get("dropped_steps", 0) for d in done.values()),
            }
        shutil.rmtree(out, ignore_errors=True)
        seconds = sum(o.seconds for o in outcomes)
        steps = sum(d["steps"] for d in done.values())
        notes = {s.name: s.notes for s in self.songs}
        self.steps_in_process += steps
        sample = {
            "steps_per_s": steps / seconds,
            "songs_per_s": len(done) / seconds,
            "episodes_per_s": sum(d["episodes"] for d in done.values()) / seconds,
            "notes_per_s": sum(notes[song] for song in done) / seconds,
            "seconds": seconds,
            "wall_s": sum(o.wall for o in outcomes),
        }
        if self.spec["jobs2"]:
            out = self.work / f"pass{index}-jobs2"
            argv = ["annotate", "--midi", self.midi, "--out", out, *self.spec["flags"], "--jobs", 2]
            outcome = invoke(self.cli, self.timer, argv)
            mismatched = self.golden.mismatched(song_digests(out, self.names))
            self.ledger.record("annotate --jobs 2", outcome, self.names, mismatched)
            shutil.rmtree(out, ignore_errors=True)
            sample["jobs2_steps_per_s"] = sum(d["steps"] for d in outcome.summaries().values()) / outcome.seconds
            sample["seconds"] += outcome.seconds
            sample["wall_s"] += outcome.wall
        return sample


class ReadWorkload(Workload):
    """corpus-read: eval and stats over annotated containers, PIG agreement ten vs four fingers."""

    def setup(self, index: int) -> float:
        base = self.work / f"setup{index}"
        seconds = self.write_corpus(base / "midi")
        self.dirs = {}
        props = self.song_properties()
        for label, (flags, fingers) in READ_SETUP.items():
            out = self.dirs[label] = base / label
            outcomes, _ = self.annotate_songs(out, flags, f"setup-{label}:")
            seconds += sum(o.seconds for o in outcomes)
            props[label] = {**goal_properties(out, fingers), "midi_problems": sum(o.midi_problems() for o in outcomes)}
        self.properties = props
        if index:
            shutil.rmtree(self.work / f"setup{index - 1}", ignore_errors=True)
        return seconds

    def run_pass(self, index: int) -> dict:
        out = self.work / f"pass{index}"
        out.mkdir()
        seconds = Counter()
        walls = []

        def call(kind: str, key: str, argv, digest, songs=None) -> Outcome:
            outcome = invoke(self.cli, self.timer, argv)
            seconds[kind] += outcome.seconds
            walls.append(outcome.wall)
            songs = self.names if songs is None else songs
            bad = self.golden.mismatched({key: digest(outcome)})
            self.ledger.record(kind, outcome, songs, songs if bad else ())
            return outcome

        episodes = steps = notes = 0
        for label, directory in self.dirs.items():
            csv, rewards = out / f"eval-{label}.csv", out / f"rewards-{label}.csv"
            argv = ["eval", "--episodes", directory, "--csv", csv, "--rewards-csv", rewards]
            call("eval", f"eval-{label}", argv, lambda o: file_digest(csv, rewards))
            episodes += self.properties[label]["episodes"]
            hist = out / f"stats-{label}.csv"
            argv = ["stats", "--in", directory, "--f1-meta", "--csv", hist]
            call("stats", f"stats-{label}", argv, lambda o: stats_digest(hist, o.stdout))
            steps += self.properties[label]["steps"]
        for song in self.names:
            argv = ["eval", "--pig-ours", self.dirs["ten"] / f"{song}.pig.txt"]
            argv += ["--pig-human", self.dirs["four"] / f"{song}.pig.txt"]
            outcome = call("agree", f"agree:{song}", argv, lambda o: sha256_text(o.stdout), songs=[song])
            fields = dict(f.split("=", 1) for f in outcome.stdout.split() if "=" in f)
            notes += sum(int(fields[k]) for k in ("matched", "unmatched_ours") if fields.get(k, "").isdigit())
        shutil.rmtree(out, ignore_errors=True)
        return {
            "steps_per_s": steps / seconds["stats"],
            "songs_per_s": len(self.names) / sum(seconds.values()),
            "episodes_per_s": episodes / seconds["eval"],
            "notes_per_s": notes / seconds["agree"],
            "seconds": sum(seconds.values()),
            "wall_s": sum(walls),
        }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process or any worker it waited for, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def machine(numpy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_calls"):
        return "count"
    if name.endswith("_per_step"):
        return "count/step"
    if name.endswith("_MBps"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if ".solve_us." in name:
        return "us"
    if name == "trace_overhead_fraction":
        return "fraction"
    return "s"


def run(args, record_golden: bool = False) -> dict:
    """One benchmark run; with ``record_golden``, set-up and one pass that return the digests."""
    cli, numpy = import_package()
    import spans as tracing

    machine_start = machine(numpy)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        golden = Golden(args.workload, args.seed, record=record_golden)
        ledger = Ledger()
        timer = Timer()
        cls = ReadWorkload if args.workload == "corpus-read" else AnnotateWorkload
        workload = cls(cli, args.workload, args.seed, work, golden, ledger, timer)
        setup_s = [workload.setup(i) for i in range(1 if record_golden else SETUP_REPEATS[args.workload])]

        spool = work / "spool"
        spool.mkdir()
        tracer = tracing.Tracer(spool)
        untraced, traced, spans = [], [], []
        deadline = time.perf_counter() + args.seconds
        while not untraced or (args.trace and not traced) or time.perf_counter() < deadline:
            index = len(untraced) + len(traced)
            if args.trace and index % 2:
                steps_before = workload.steps_in_process
                tracer.install()
                try:
                    sample = workload.run_pass(index)
                finally:
                    tracer.uninstall()
                traced.append((sample, workload.steps_in_process - steps_before))
                # spans in calibrated seconds, like every other time
                scale = sample["seconds"] / sample["wall_s"]
                spans += [(s[0], s[1], s[2], s[3] * scale, s[4] * scale, *s[5:]) for s in tracer.take()]
            else:
                untraced.append(workload.run_pass(index))
            if record_golden:
                break

        jobs2 = [s["jobs2_steps_per_s"] for s in untraced if "jobs2_steps_per_s" in s]
        log("inputs", {"workload": args.workload, "seed": args.seed, **workload.properties})
        log("machine", {**machine_start, "loadavg_end": list(os.getloadavg())})
        log(
            "passes",
            {
                "untraced": untraced,
                "traced": [s for s, _ in traced],
                "setup_s": setup_s,
                "jobs2_steps_per_s": statistics.median(jobs2) if jobs2 else None,
                "reference_s": {
                    "median": statistics.median(timer.references),
                    "min": min(timer.references),
                    "max": max(timer.references),
                },
            },
        )
        log(
            "failures",
            {
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "failed_fraction": ledger.failed / ledger.attempted,
                "reasons": dict(ledger.reasons),
                "golden": "checked"
                if golden.expected
                else f"no golden digests for seed {args.seed}; passes compared with each other",
            },
        )
        if record_golden:
            return {"correct": ledger.failed == 0, "record": golden.seen}

        correct = ledger.failed == 0
        if args.trace:
            excess = tracing.annotate_song_self_check(spans)
            log("trace-check", {"annotate_song_self_excess_s": excess, "spans": len(spans)})
            correct = correct and excess <= 1e-9
            metrics = tracing.summarise(spans, len(traced), sum(steps for _, steps in traced))
            metrics["cli.jobs2_steps_per_s"] = statistics.median(jobs2) if jobs2 else 0.0
            metrics["trace_overhead_fraction"] = (
                statistics.median(s["seconds"] for s, _ in traced) / statistics.median(s["seconds"] for s in untraced)
                - 1.0
            )
            units = {name: _layer_unit(name) for name in metrics}
        else:
            metrics = {name: statistics.median(s[name] for s in untraced) for name in THROUGHPUT}
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = statistics.median(setup_s)
            units = UNITS
        return {
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
