"""The patch table of ci/golden_run.py: every patch must reach the function it replaces, and restore it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from otpiano import assign, store
from otpiano.hand import HandConfig, HandMotion, init_hands
from otpiano.keyboard import KeyboardGeometry

GOLDEN_RUN = Path(__file__).resolve().parents[1] / "ci" / "golden_run.py"


def _golden_run():
    spec = importlib.util.spec_from_file_location("golden_run", GOLDEN_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hand_step():
    config, geom = HandConfig(), KeyboardGeometry()
    state = init_hands(config, geom)
    HandMotion(config, geom, 0.05).step(list(state.fingertips), state.base, [], [])


# patch name -> the object and attribute it replaces, and one direct call that reaches it
REACHES = {
    "zlib-crc32": (store, "crc32", lambda: store.crc32(b"x")),
    "searching-solve": (assign, "_augmenting_path_solve", lambda: assign.solve_cost_rows([[0.0]])),
    "every-hand-stepped": (HandMotion, "step", _hand_step),
}


def test_every_golden_run_patch_is_reached_and_then_restored():
    golden_run = _golden_run()
    assert set(golden_run.PATCHES) == set(REACHES)
    for name, (owner, attribute, call) in REACHES.items():
        original = getattr(owner, attribute)
        with golden_run.patched(name) as calls:
            assert getattr(owner, attribute) is not original
            call()
            assert calls, name
        assert getattr(owner, attribute) is original, name
    with pytest.raises(KeyError), golden_run.patched("no-such-patch"):
        pass
