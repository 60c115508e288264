#!/usr/bin/env bash
# The tier-1 test suite on this checkout's src.  Run from anywhere: bash ci/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
# libdeflate's CRC32 where libdeflate.so.0 loads, else zlib's; the tests compare the two
# and the interpreter and numpy that make the bytes the golden tests check
python -c 'import platform, numpy; from otpiano import store; print(f"otpiano.store.crc32: {store.crc32.__module__}.{store.crc32.__name__}; python {platform.python_version()}, numpy {numpy.__version__}")'
# the ten slowest tests, so every run shows where tier-1 time goes
python -m pytest -q --continue-on-collection-errors --durations=10
