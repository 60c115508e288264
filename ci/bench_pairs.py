"""Compare two checkouts on one perfbench workload: alternating runs, then each end-to-end metric's medians.

    python3 ci/bench_pairs.py --parent ../parent --change . --workload corpus-read \\
        --seeds 1101 1102 --pairs 5 --seconds 10

Pair ``i`` runs ``perfbench/run.py --trace 0`` once in each checkout, on seed ``seeds[(i // 2) % len(seeds)]``,
so two pairs running take one seed; the parent runs first in even pairs, the change in odd ones, so each seed
runs in both orders.  One run at a time, each waited for.  The summary gives,
for each end-to-end metric of ``BENCHMARK.json``, each side's median, the ratio change / parent, the distance
between the parent's quartiles and in how many pairs the change was better, then every run that did not give
``correct: true`` with 0 failed.  Each run's result line goes to standard error as it arrives.  Nothing under
``perfbench/`` is written here; perfbench cleans up its own work directory.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """One perfbench run in ``checkout``: its result line, or an error text when it gave none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return f"exit {done.returncode}: {(done.stderr.strip().splitlines() or ['no output'])[-1]}"
    return lines[-1]


def _result(line: str):
    """The result of a run's line, or None when it is no JSON result."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def _value(result, name):
    metric = (result or {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def summarise(pairs, end_to_end) -> str:
    """The comparison of ``pairs``: ``(seed, parent line, change line)`` each, as ``run_once`` returns the lines.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics (``name`` and ``better``).  Medians and win counts
    are over the pairs in which both runs gave the metric; every run that was not correct is listed.
    """
    results = [[_result(line) for line in lines] for _, *lines in pairs]
    out = [f"{'metric':<16}{'parent':>12}{'change':>12}{'ratio':>8}{'parent IQR':>12}  change better"]
    for metric in end_to_end:
        name = metric["name"]
        values = [[_value(result, name) for result in sides] for sides in results]
        both = [(old, new) for old, new in values if None not in (old, new)]
        if not both:
            out.append(f"{name:<16}  no pair of values")
            continue
        olds, news = zip(*both)
        parent, change = statistics.median(olds), statistics.median(news)
        # the spread a gain must exceed: the distance between the parent's quartiles
        q1, _, q3 = statistics.quantiles(olds, n=4) if len(olds) > 1 else olds * 3
        wins = sum(new > old if metric["better"] == "higher" else new < old for old, new in both)
        ratio = change / parent if parent else math.nan
        out.append(f"{name:<16}{parent:>12.6g}{change:>12.6g}{ratio:>8.4f}{q3 - q1:>12.4g}  {wins}/{len(both)}")
    bad = [
        f"  pair {index} seed {seed} {side}: {line}"
        for index, ((seed, *lines), sides) in enumerate(zip(pairs, results))
        for side, line, result in zip(SIDES, lines, sides)
        if not result or result.get("correct") is not True or result.get("failed") != 0
    ]
    return "\n".join([*out, "runs not correct:" if bad else "runs not correct: none", *bad])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="perfbench's measuring time per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    pairs = []
    for index in range(args.pairs):
        seed = args.seeds[(index // 2) % len(args.seeds)]  # each seed in both orders
        lines = {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            lines[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
            print(f"pair {index} seed {seed} {side}: {lines[side]}", file=sys.stderr, flush=True)
        pairs.append((seed, lines["parent"], lines["change"]))
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{args.workload}: {args.pairs} pairs, seeds {' '.join(map(str, args.seeds))}, --seconds {args.seconds}")
    print(summarise(pairs, end_to_end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
