"""The per-song concatenation of ``eval --episodes``, kept as an independent reference.

``otpiano eval`` sums three key-step counts per container; this is the code
it replaced, which held every container's (T, 88) pressed and goal key rows,
joined them per song and again for OVERALL, and counted the joined traces.
Both must give equal rows on every corpus.
"""

from __future__ import annotations

import numpy as np

from otpiano.metrics import f1
from otpiano.store import iter_episodes


def _precision_recall(pressed, active) -> tuple:
    hits = int(np.count_nonzero(pressed & active))
    n_pressed = int(np.count_nonzero(pressed))
    n_active = int(np.count_nonzero(active))
    return (hits / n_pressed if n_pressed else 1.0), (hits / n_active if n_active else 1.0)


def eval_rows(directory, press_threshold: float) -> list:
    """``(song, precision, recall, f1)`` per song by name, then OVERALL."""
    by_song: dict = {}
    for rec in iter_episodes(directory):
        keys = (rec.pressed_key_steps(press_threshold), rec.active_key_steps())
        by_song.setdefault(str(rec.meta.get("song", "")), []).append(keys)
    rows, traces = [], []
    for song in sorted(by_song):
        traces.append(tuple(np.concatenate(part) for part in zip(*by_song[song])))
        rows.append((song, *_precision_recall(*traces[-1])))
    rows.append(("OVERALL", *_precision_recall(*(np.concatenate(part) for part in zip(*traces)))))
    return [(song, precision, recall, f1(precision, recall)) for song, precision, recall in rows]
