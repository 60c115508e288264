#!/usr/bin/env bash
# Every CI check in the workflow's order, stopping at the first that fails (README: "Running the CI checks")
set -euo pipefail
for check in tier1 console golden; do
  echo "== ci/$check.sh"
  bash "$(dirname "$0")/$check.sh"
done
