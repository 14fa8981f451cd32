"""Discrete planar trajectories: Brownian simulation, privacy-region cutting, SP.

A trajectory is a time-ordered list of planar samples. Cutting against a
privacy region keeps the samples from the first one outside the region to
the last one outside it; the squared perturbation (SP) is the squared
endpoint displacement that the cut introduces, and +inf when nothing is
published.

Cutting operates on the discrete samples directly: the first sample outside
the region starts the published track, with no boundary interpolation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import Disk, Point, as_xy

__all__ = [
    "Trajectory",
    "CutResult",
    "MaxStepsExceeded",
    "TrackFormatError",
    "simulate_brownian",
    "simulate_exit_offsets",
    "default_exit_dt",
    "cut_privacy_region",
    "squared_perturbation",
    "read_track",
    "write_track",
]

# Exit-simulation step policy: boundary overshoot is O(sqrt(sigma2 * dt)),
# so dt scales with the squared region radius.
DEFAULT_DT_FACTOR = 1e-4

# Rows formatted per write in write_track.
_WRITE_BLOCK = 4096


class MaxStepsExceeded(RuntimeError):
    """The simulated path did not leave the region within the step budget."""


class TrackFormatError(ValueError):
    """A track CSV could not be parsed; the message carries file and line."""


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered planar samples: times (n,) strictly increasing, positions (n, 2)."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        if t.ndim != 1 or p.shape != (t.shape[0], 2):
            raise ValueError(f"bad trajectory shapes: times {t.shape}, positions {p.shape}")
        if t.shape[0] < 1:
            raise ValueError("a trajectory needs at least one sample")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
            raise ValueError("trajectory samples must be finite")
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        t = t.copy()
        p = p.copy()
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def start(self) -> Point:
        return Point(self.positions[0, 0], self.positions[0, 1])

    @property
    def end(self) -> Point:
        return Point(self.positions[-1, 0], self.positions[-1, 1])

    def slice(self, i0: int, i1: int) -> "Trajectory":
        """Sub-trajectory over sample indices [i0, i1], inclusive."""
        if not (0 <= i0 <= i1 < len(self)):
            raise IndexError(f"slice [{i0}, {i1}] out of range for {len(self)} samples")
        return Trajectory(self.times[i0 : i1 + 1], self.positions[i0 : i1 + 1])


@dataclass(frozen=True)
class CutResult:
    """Outcome of cutting: published track (or None) plus its SP and cut times."""

    published: Trajectory | None
    sp: float
    t1: float | None
    t2: float | None

    def __post_init__(self) -> None:
        if (self.published is None) != math.isinf(self.sp):
            raise ValueError("published must be None exactly when sp is infinite")


def simulate_brownian(
    start, sigma2: float, dt: float, n_steps: int, rng: np.random.Generator
) -> Trajectory:
    """A planar Brownian path from `start`: per-axis increment variance sigma2 * dt."""
    if sigma2 <= 0 or dt <= 0:
        raise ValueError("sigma2 and dt must be > 0")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    p0 = as_xy(start)
    steps = rng.normal(0.0, math.sqrt(sigma2 * dt), size=(n_steps, 2))
    positions = np.empty((n_steps + 1, 2))
    positions[0] = p0
    np.cumsum(steps, axis=0, out=positions[1:])
    positions[1:] += p0
    times = np.arange(n_steps + 1, dtype=float) * dt
    return Trajectory(times, positions)


def default_exit_dt(region_radius: float, sigma2: float) -> float:
    """Step policy for exit simulation: dt = 1e-4 * radius^2 / sigma2."""
    return DEFAULT_DT_FACTOR * region_radius**2 / sigma2


def simulate_exit_offsets(
    start_offsets: np.ndarray,
    radii: np.ndarray,
    sigma2: float,
    dts: np.ndarray,
    max_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First-outside sample positions for many independent exit simulations.

    Works in region-relative coordinates: `start_offsets` (n, 2) are starts
    relative to each region's center, `radii` (n,) the region radii, and the
    result (n, 2) the first sample outside each disk, still center-relative.
    All paths step in lockstep; each path may carry its own dt.
    """
    starts = np.atleast_2d(np.asarray(start_offsets, dtype=float))
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (len(starts),))
    stds = np.sqrt(sigma2 * np.broadcast_to(np.asarray(dts, dtype=float), (len(starts),)))
    if np.any(np.hypot(starts[:, 0], starts[:, 1]) >= radii):
        raise ValueError("all starts must lie strictly inside their regions")

    n = len(starts)
    pos = starts.copy()
    out = np.empty_like(pos)
    alive = np.arange(n)
    r2 = radii**2
    for _ in range(max_steps):
        pos[alive] += rng.normal(size=(len(alive), 2)) * stds[alive, None]
        exited = (pos[alive] ** 2).sum(axis=1) > r2[alive]
        if exited.any():
            hit = alive[exited]
            out[hit] = pos[hit]
            alive = alive[~exited]
            if len(alive) == 0:
                return out
    raise MaxStepsExceeded(f"{len(alive)} of {n} paths did not exit within {max_steps} steps")


def cut_privacy_region(traj: Trajectory, region: Disk) -> CutResult:
    """Publish from the first sample outside `region` to the last one outside it.

    When every sample stays inside, nothing is published and the SP is +inf.
    """
    c = region.center.as_array()
    d2 = ((traj.positions - c) ** 2).sum(axis=1)
    outside = np.flatnonzero(d2 > region.radius**2)
    if outside.size == 0:
        return CutResult(None, math.inf, None, None)
    i0 = int(outside[0])
    i1 = int(outside[-1])
    published = traj.slice(i0, i1)
    sp = squared_perturbation(published, traj)
    return CutResult(published, sp, float(traj.times[i0]), float(traj.times[i1]))


def squared_perturbation(published: Trajectory | None, original: Trajectory) -> float:
    """Squared endpoint displacement between a published track and its original.

    ||y_first - x_first||^2 + ||y_last - x_last||^2 when `published` is a
    contiguous restriction of `original` (checked by exact timestamp and
    sample equality); +inf when it is not, or when nothing was published.
    """
    if published is None:
        return math.inf
    i0 = int(np.searchsorted(original.times, published.times[0]))
    i1 = i0 + len(published)
    if i1 > len(original):
        return math.inf
    if not np.array_equal(original.times[i0:i1], published.times):
        return math.inf
    if not np.array_equal(original.positions[i0:i1], published.positions):
        return math.inf
    d_start = published.positions[0] - original.positions[0]
    d_end = published.positions[-1] - original.positions[-1]
    return float(d_start @ d_start + d_end @ d_end)


def write_track(traj: Trajectory, path) -> None:
    """Write a track as CSV with header ``t,x,y``, one sample per row, LF endings.

    Each value is written as Python's ``repr`` of the float, the shortest
    text that reads back to the same bits, so ``read_track`` returns the
    track exactly. Rows are formatted and written in blocks of
    ``_WRITE_BLOCK``, so memory stays flat whatever the track's length.

    An existing file is removed first rather than truncated: on ext4,
    closing a truncated-and-rewritten file forces its data to disk, which
    made reruns into the same directory up to 12 times slower.
    """
    Path(path).unlink(missing_ok=True)
    row = "%r,%r,%r\n".__mod__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y\n")
        for i in range(0, len(traj), _WRITE_BLOCK):
            t = traj.times[i : i + _WRITE_BLOCK].tolist()
            xy = traj.positions[i : i + _WRITE_BLOCK]
            fh.write("".join(map(row, zip(t, xy[:, 0].tolist(), xy[:, 1].tolist()))))


def read_track(path) -> Trajectory:
    """Parse a ``t,x,y`` CSV track; errors carry file and line context.

    The first line must be the header ``t,x,y`` (spaces around the names
    allowed). Every other line is either blank (only whitespace; skipped)
    or exactly three comma-separated floats, with optional whitespace
    around each. Nothing else is allowed: no comments, no quotes, no
    digit underscores (``1_0``) and no non-ASCII digits. Times must be
    strictly increasing and every value finite.

    The body is parsed by ``np.loadtxt`` streaming from the file. Only a
    file it refuses is read again: once more through loadtxt without its
    whitespace-only lines, which this format allows and loadtxt does not,
    and, if that fails too, line by line to name the first bad line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [col.strip() for col in header.split(",")] != ["t", "x", "y"]:
            raise TrackFormatError(f"{path}:1: expected header 't,x,y', got {header!r}")
        data = _load_body(fh)
    if data is None:
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            data = _load_body(line for line in fh if not line.isspace())
    if data is None or (data.shape[0] > 0 and data.shape[1] != 3):
        _raise_first_bad_line(path)
    if data.shape[0] == 0:
        raise TrackFormatError(f"{path}: track has no samples")
    try:
        return Trajectory(data[:, 0], data[:, 1:])
    except ValueError as exc:
        raise TrackFormatError(f"{path}: {exc}") from None


def _load_body(lines) -> np.ndarray | None:
    """All rows of a track body as an (m, k) array, or None if loadtxt refuses it."""
    try:
        with warnings.catch_warnings():
            # an empty body is reported by the caller as "no samples"
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, dtype=float)
    except ValueError:
        return None


def _raise_first_bad_line(path) -> NoReturn:
    """Raise the error of the first line of a track body that the format refuses."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise TrackFormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            for v in parts:
                try:
                    float(v)
                except ValueError as exc:
                    raise TrackFormatError(f"{path}:{lineno}: {exc}") from None
                # float() takes these spellings, loadtxt does not
                if "_" in v or not v.strip().isascii():
                    raise TrackFormatError(
                        f"{path}:{lineno}: could not convert string to float: {v!r}"
                    )
    raise TrackFormatError(f"{path}: not a t,x,y track")
