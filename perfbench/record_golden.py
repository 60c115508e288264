"""Record the golden output digests that ``run.py`` checks.

    python3 perfbench/record_golden.py --workload strict-ten --seeds 0-63

For each seed, runs the workload's set-up and one pass and stores, per song
(or per eval/stats output for corpus-read), the SHA-256 over its output
files' names and SHA-256 hashes in ``golden.json``.  Re-record only for a
change that states why an output moves.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, type=seed_range, help="inclusive range such as 0-31")
    args = parser.parse_args(argv)
    golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8")) if run.GOLDEN_PATH.is_file() else {}
    for seed in args.seeds:
        result = run.run(argparse.Namespace(workload=args.workload, seed=seed, seconds=0, trace=0), record_golden=True)
        if not result["correct"]:
            print(f"seed {seed}: outputs failed or differ between passes; nothing recorded", file=sys.stderr)
            return 1
        golden.setdefault(args.workload, {})[str(seed)] = result["record"]
        ordered = {w: dict(sorted(golden[w].items(), key=lambda kv: int(kv[0]))) for w in sorted(golden)}
        run.GOLDEN_PATH.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
