"""Run one perfbench workload once under a named ``--patch`` and check its outputs against the golden digests.

``none`` runs it as it is, ``traced`` with perfbench's ``--trace 1``; each of ``PATCHES`` replaces an otpiano
function in this process, whose forked ``--jobs 2`` workers inherit it.  perfbench exits 0 even when outputs
differ, so this prints its result line and exits 1 unless it exited 0, ``correct`` is true, ``failed`` is 0 and
the patch was called.
"""

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import runpy
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIG_LANE = ("pig.load_pig_s", "metrics.fingering_agreement_s")
PATCHES = {  # name -> (module, attribute path in it, function of the original that returns its replacement)
    # otpiano.store computes CRC32s with libdeflate where the system has it; zlib's is its fallback
    "zlib-crc32": ("otpiano.store", "crc32", lambda crc32: lambda data, value=0: zlib.crc32(data, value)),
    # otpiano.assign starts its solve from the row minima; tests/assign_reference.py searches for every row
    "searching-solve": ("otpiano.assign", "_augmenting_path_solve",
                        lambda solve: importlib.import_module("assign_reference")._augmenting_path_solve),
    # otpiano.assign screens the tie-break's candidates by the caller's bound on the tie slack; an infinite
    # bound screens none
    "unscreened-tie-break": ("otpiano.assign", "_lexicographic_optimum",
                             lambda optimum: lambda cost, col4row, u, v, gap: optimum(cost, col4row, u, v, math.inf)),
    # HandMotion.step skips a hand that it left settled and can prove would not move; clearing that memory
    # before each call makes every call step both hands
    "every-hand-stepped": ("otpiano.hand", "HandMotion.step",
                           lambda step: lambda self, *args: setattr(self, "_settled", [None, None])
                           or step(self, *args)),
}


@contextlib.contextmanager
def patched(name: str):
    """Put patch ``name`` (a KeyError if unknown) in place for the block, yielding the list each call appends to."""
    module, path, replacement = PATCHES[name]
    *outer, attribute = path.split(".")
    owner = functools.reduce(getattr, outer, importlib.import_module(module))
    original, calls = getattr(owner, attribute), []
    function = replacement(original)
    setattr(owner, attribute, lambda *args, **kwargs: calls.append(1) or function(*args, **kwargs))
    try:
        yield calls
    finally:
        setattr(owner, attribute, original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--patch", required=True, choices=["none", "traced", *PATCHES])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    trace = "1" if args.patch == "traced" else "0"
    bench = ["--workload", args.workload, "--seed", args.seed, "--seconds", "0", "--trace", trace]
    output = io.StringIO()
    with patched(args.patch) if args.patch in PATCHES else contextlib.nullcontext() as calls:
        with contextlib.redirect_stdout(output):
            code = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["main"](bench)
    *log, line = output.getvalue().splitlines()
    print(f"{args.workload} seed {args.seed}, {args.patch}: {line}", flush=True)
    result = json.loads(line)
    ok = code == 0 and result["correct"] is True and result["failed"] == 0 and calls != []
    if args.patch == "traced" and args.workload == "corpus-read":
        # the PIG lane must be timed: a renamed load_pig or fingering_agreement would read 0 and hide it
        ok = ok and all(result["metrics"][name]["value"] > 0 for name in PIG_LANE)
    if not ok:
        print(*log, "the patched function was never called" if calls == [] else "", sep="\n", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
