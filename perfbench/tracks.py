"""Synthetic t,x,y tracks for the obfuscate workload, and a reader for them.

Each track is an out-and-back trip: it starts within HOME_JITTER of the
home, swings out to TRIP_RADIUS along a sine arc with Brownian-bridge
wobble, and ends within HOME_JITTER of the home again. Privacy regions in
the workload have radii of a few units, so every track leaves its region
and a few hundred to a few thousand samples are dropped at each end.
Values are written with Python's shortest round-trip repr, so the floats
the program reads are exactly the arrays made here.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

HOME_JITTER = 0.5
TRIP_RADIUS = 40.0
WOBBLE = 3.0


def home(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0]).uniform(-100.0, 100.0, size=2)


def make_track(seed: int, index: int, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(times (n,), positions (n, 2)) of track `index` for `seed`."""
    rng = np.random.default_rng([seed, 1, index])
    h = home(seed)
    ends = rng.uniform(-HOME_JITTER, HOME_JITTER, size=(2, 2)) / np.sqrt(2.0)
    s = np.linspace(0.0, 1.0, n_samples)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    arc = TRIP_RADIUS * np.sin(np.pi * s)[:, None] * np.array([np.cos(heading), np.sin(heading)])
    walk = np.cumsum(rng.standard_normal((n_samples, 2)), axis=0) / np.sqrt(n_samples)
    bridge = walk - s[:, None] * walk[-1]
    pos = h + ends[0] + s[:, None] * (ends[1] - ends[0]) + arc + WOBBLE * bridge
    times = 1000.0 * index + rng.uniform(0.5, 1.5) * np.arange(n_samples)
    return times, pos


def write(path: Path, times: np.ndarray, pos: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y\n")
        fh.writelines(
            f"{t!r},{x!r},{y!r}\n" for t, x, y in zip(times.tolist(), pos[:, 0].tolist(), pos[:, 1].tolist())
        )


def read(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "x", "y"]:
        raise ValueError(f"{path}: header {rows[0]}")
    data = np.array(rows[1:], dtype=float).reshape(-1, 3)
    return data[:, 0], data[:, 1:]


def make_all(seed: int, n_tracks: int, n_samples: int, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_tracks):
        p = out / f"track{i:03d}.csv"
        write(p, *make_track(seed, i, n_samples))
        paths.append(p)
    return paths
