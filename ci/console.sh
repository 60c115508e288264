#!/usr/bin/env bash
# The console script in fresh processes: the tests call cli.main in one process, and this starts the entry
# point ${OTPIANO:-otpiano}, split into words, which builds its parser anew.  On an uninstalled checkout:
# OTPIANO="python -m otpiano.cli" PYTHONPATH=src bash ci/console.sh
set -euo pipefail
cd "$(dirname "$0")/.."
otpiano=${OTPIANO:-otpiano}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# refused TEXT ARGS...: otpiano ARGS must exit 2 within 60 s with TEXT in its error
refused() {
  local code=0 err
  err=$(timeout 60 $otpiano "${@:2}" 2>&1 >/dev/null) || code=$?
  echo "otpiano ${*:2}: exit $code: $err"
  test "$code" -eq 2 && [[ "$err" == *"$1"* ]]
}
$otpiano --version
# both eval calls would also exit 2 on the missing inputs, so each must name the mode mix it refuses
refused "not both" eval --episodes . --onset-tolerance 0.2
refused "not both" eval --pig-ours a --pig-human b --press-threshold 0.5
# the tests run annotate's worker pool in-process or with a stand-in pool; here --jobs 2 starts it
# from a fresh process and must write and print what --jobs 1 does
mkdir "$work/midi"
python3 -c 'import sys; sys.path.insert(0, "perfbench"); import corpus
for song in corpus.generate("grid", 0, (10, 15)): open(f"{sys.argv[1]}/{song.name}.mid", "wb").write(song.data)
' "$work/midi"
for jobs in 2 1; do
  $otpiano annotate --midi "$work/midi" --out "$work/jobs$jobs" --pig-out --episode-len 64 --jobs "$jobs" > "$work/jobs$jobs.txt"
done
diff -r "$work/jobs1" "$work/jobs2"
diff "$work/jobs1.txt" "$work/jobs2.txt"
# an eval given one file for both reports must refuse it and write nothing
refused "one file" eval --episodes "$work/jobs1" --csv "$work/x.csv" --rewards-csv "$work/x.csv"
test ! -e "$work/x.csv"
# stats and eval read the two songs' containers from the entry point
stats=$($otpiano stats --in "$work/jobs1" --f1-meta)
echo "$stats"
[[ "$stats" == *"pieces: 2"* ]]
table=$($otpiano eval --episodes "$work/jobs1")
echo "$table"
test "$(cut -f1 <<< "$table" | tail -n +2 | grep -cv '^OVERALL$')" -eq 2
test "$(tail -n 1 <<< "$table" | cut -f1)" = OVERALL
# a geometry whose press points overflow float32 once hung the rollout: annotate and debug-assign
# must refuse it, leaving no output directory
printf 'white_key_width = 1e307\n' > "$work/overflow.cfg"
refused "" annotate --midi "$work/midi" --out "$work/overflow" --geometry "$work/overflow.cfg"
refused "" debug-assign --pitches 60 --geometry "$work/overflow.cfg"
test ! -e "$work/overflow"
