"""Workload sizes and the per-item latencies each workload reports.

An item is the unit a user of the workload waits for:

* table1: one replicate of one setting, i.e. its two-balls attack plus its
  random-radius attack, at n=50 (20 replicates x 6 settings per round);
* curve_large_n: one replicate at the largest n (1600), both attacks;
* obfuscate: one track read, cut and written (20 tracks x 50k samples).

Each item is timed from outside the program: attacks by a clock around
`privregion.experiments.attack`, tracks by the start times of consecutive
`read_track` calls in `run_obfuscate`'s loop.
"""

from __future__ import annotations

SIZES = {
    "table1": {
        "full": {"n_trajectories": 50, "n_replicates": 20},
        "tiny": {"n_trajectories": 50, "n_replicates": 3},
    },
    "curve_large_n": {
        "full": {"sample_sizes": (50, 100, 200, 400, 800, 1600), "n_replicates": 6},
        "tiny": {"sample_sizes": (50, 200, 800), "n_replicates": 4},
    },
    "obfuscate": {
        "full": {"n_tracks": 20, "n_samples": 50_000},
        "tiny": {"n_tracks": 4, "n_samples": 2_000},
    },
}

# Random-radius regions for obfuscate: the Gamma matched to the r1-R3-a4-b4
# two-balls setting (mean squared radius 8.5, so radii of about 3).
OBFUSCATE_GAMMA = (8.5, 1.0)


def attack_items(times: list, n_replicates: int) -> tuple[list[float], dict[str, list[float]]]:
    """Per-item seconds and per-strategy attack seconds of one round.

    The runners attack plan row by plan row (a setting, or a size), all
    two-balls replicates first, then all random-radius ones. table1 items
    are every row's replicates; curve items only the last row's (largest n).
    """
    r = n_replicates
    rows = [times[i : i + 2 * r] for i in range(0, len(times), 2 * r)]
    largest = max(t[1] for t in times)
    items, by_strat = [], {"TwoBalls": [], "RandomRadius": []}
    for row in rows:
        if row[0][1] != largest:
            continue
        tb, rr = row[:r], row[r:]
        if not all(t[0] == "TwoBalls" for t in tb) or not all(t[0] == "RandomRadius" for t in rr):
            raise RuntimeError("attack order is not two-balls then random-radius per plan row")
        items.extend(a[2] + b[2] for a, b in zip(tb, rr))
        by_strat["TwoBalls"].extend(a[2] for a in tb)
        by_strat["RandomRadius"].extend(b[2] for b in rr)
    return items, by_strat
