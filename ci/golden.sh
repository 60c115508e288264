#!/usr/bin/env bash
# Every benchmark output must hash to perfbench/golden.json: seeds 0-3 of every workload; traced, where the
# tracer wraps load_episode, which maps each container that iter_episodes yields, on two corpus-read corpora,
# and strict-ten runs annotate.run_song inside traced --jobs 2 workers; and under ci/golden_run.py's patches.
set -euo pipefail
cd "$(dirname "$0")/.."
for run in none:{strict-ten,best-effort-four,corpus-read}:{0..3} traced:corpus-read:{0,1} traced:strict-ten:0 \
    zlib-crc32:{corpus-read,strict-ten}:0 \
    {searching-solve,unscreened-tie-break,every-hand-stepped}:{best-effort-four,strict-ten}:0; do
  IFS=: read -r patch workload seed <<< "$run"
  python3 ci/golden_run.py --patch "$patch" --workload "$workload" --seed "$seed"
done
