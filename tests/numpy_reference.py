"""Numpy forms of the package's float kernels, kept as independent references.

The package computes cost rows and hand steps on Python floats
(``otpiano.assign.key_distances``, ``otpiano.hand.HandMotion.step``); these
are the array formulations they replaced.  The kernels must match them bit
for bit.  Also here: state summaries that only tests use.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from otpiano.assign import CostMatrix, solve_assignment
from otpiano.hand import ALL_FINGERS, LEFT, RIGHT, HandState
from otpiano.keyboard import key_press_point
from otpiano.midi import onset_mask


def key_distances(points: np.ndarray, tips: np.ndarray) -> np.ndarray:
    """(k, n) distances from k press points to n fingertips, both (., 3) arrays."""
    diff = points[:, None, :] - tips[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


class HandMotion:
    """Array form of ``otpiano.hand.HandMotion``: the same constants and step."""

    def __init__(self, config, geom, dt: float):
        _, oy, oz = geom.origin
        fingers = config.enabled_fingers
        self.is_left = tuple(finger.hand == LEFT for finger in fingers)
        self.hand_rows = tuple(
            np.array([i for i, finger in enumerate(fingers) if finger.hand == hand], dtype=np.intp)
            for hand in (LEFT, RIGHT)
        )
        self.rest = np.empty((len(fingers), 3), dtype=np.float64)
        for i, finger in enumerate(fingers):
            dx, dy, dz = config.rest_offsets[finger]
            self.rest[i] = (dx, oy + dy, oz + dz)
        self.step_reach = config.v_max * dt
        self.base_reach = config.base_v_max * dt
        self.radius = config.span_max / 2.0

    def step(self, tips: np.ndarray, base: tuple, rows: list, targets: "np.ndarray | None") -> tuple:
        """Returns the new ``(fingertips, (left_x, right_x))``; ``targets`` is (len(rows), 3)."""
        target_xs = ([], [])
        if rows:
            for x, row in zip(targets[:, 0].tolist(), rows):
                target_xs[0 if self.is_left[row] else 1].append(x)
        goals = self.rest.copy()
        new_base = []
        for x, xs, idx in zip(base, target_xs, self.hand_rows):
            if xs:
                delta = reduce(operator.add, xs, 0.0) / len(xs) - x  # left to right: sum() compensates from 3.12 on
                x = x + max(-self.base_reach, min(self.base_reach, delta))
            goals[idx, 0] += x
            new_base.append(x)
        if rows:
            goals[rows] = targets

        delta = goals - tips
        dist = np.sqrt((delta**2).sum(axis=1))
        far = dist > self.step_reach
        new_tips = goals
        if far.any():
            scale = (self.step_reach / dist[far])[:, None]
            new_tips[far] = tips[far] + delta[far] * scale

        radius = self.radius
        for idx in self.hand_rows:
            if not len(idx):
                continue
            pts = new_tips[idx]
            centroid = pts.sum(axis=0) / len(idx)
            offsets = pts - centroid
            norms = np.sqrt((offsets**2).sum(axis=1))
            over = norms > radius
            if over.any():
                pts[over] = centroid + offsets[over] * (radius / norms[over])[:, None]
                new_tips[idx] = pts
        return new_tips, tuple(new_base)


def step_hand(state: HandState, targets: dict, dt: float, config, geom) -> HandState:
    """``otpiano.hand.step_hand`` through the array step."""
    rows = [state.fingers.index(finger) for finger in targets]
    points = np.array([targets[finger] for finger in targets], dtype=np.float64).reshape(len(rows), 3)
    tips, base = HandMotion(config, geom, dt).step(np.array(state.fingertips), state.base, rows, points)
    return HandState(fingers=state.fingers, fingertips=tuple(map(tuple, tips.tolist())), base=base)


def solve_step(state: HandState, active: set, geom, best_effort: bool):
    """One step's assignment on the array cost build: (matrix key order, solution)."""
    keys = sorted(active)
    points = np.array([key_press_point(k, geom) for k in keys], dtype=np.float64)
    costs = key_distances(points, np.array(state.fingertips))
    matrix = CostMatrix(costs=costs, key_ids=tuple(keys), finger_ids=state.fingers)
    return matrix, solve_assignment(matrix, best_effort=best_effort)


def hand_spread(state: HandState, hand: str) -> float:
    """Max pairwise fingertip distance within one hand."""
    pts = np.array(state.fingertips)[[i for i, f in enumerate(state.fingers) if f.hand == hand]]
    if len(pts) < 2:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def fingertip_slots(state: HandState, slots: int = 10) -> np.ndarray:
    """Fingertips scattered into a fixed-size slot array (disabled rows zero)."""
    out = np.zeros((slots, 3), dtype=np.float64)
    for finger, point in zip(state.fingers, state.fingertips):
        out[ALL_FINGERS.index(finger)] = point
    return out


def key_onsets(seq) -> list:
    """(step, key) pairs where a goal key turns active, by step then key."""
    return [tuple(pair) for pair in np.argwhere(onset_mask(seq.keys)).tolist()]


def pressed_keys(state, threshold: float = 0.5) -> frozenset:
    """Keys of a ``KeyState`` whose depth reaches the pressed threshold."""
    return frozenset(k for k, d in enumerate(state.depths) if d >= threshold)
