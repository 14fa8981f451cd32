"""Start-up time, peak resident size and loaded modules of `import privregion`.

Each row is the best of --runs fresh interpreters: the least import time
(perf_counter around the import statements) and the least peak resident
size (`getrusage` ru_maxrss) over those runs. The package's source is copied
to a temporary directory first, and each row is measured twice on it:

* "cached": with the package's bytecode caches written by an earlier run,
  as after `pip install` or any second run of a checkout;
* "no cache": with PYTHONDONTWRITEBYTECODE=1 and no cache of the package,
  as in a fresh checkout run with that variable set. numpy and the standard
  library keep their installed caches in both.

The "privregion after numpy" row times the package's own import in an
interpreter that has already imported numpy, so the gap between its two
columns is what compiling the package's source costs at each start.

Then it lists the modules that `import privregion` (with its six modules)
loads beyond those a bare interpreter and `import numpy` load, and those
that a single-process `run_table1` at its smallest adds to them.

Run from the root of a checkout:

    python tools/import_footprint.py
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "privregion"

PACKAGE = "import privregion\nfrom privregion import core, harmonic, inference, strategies, trajectory, experiments"
ROWS = (  # label, set-up code (untimed), timed code
    ("numpy", "", "import numpy"),
    ("numpy, scipy.special", "", "import numpy, scipy.special"),
    ("privregion and its six modules", "", PACKAGE),
    ("privregion.cli", "", "import privregion.cli"),
    ("privregion after numpy", "import numpy", PACKAGE),
)

TIMED = """
import resource, time
{setup}
t0 = time.perf_counter()
{timed}
t = time.perf_counter() - t0
print(t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""

MODULES = """
import json, sys, tempfile
import numpy
base = set(sys.modules)
{package}
imported = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    experiments.run_table1(experiments.ScenarioConfig(
        master_seed=5, out_dir=out, n_replicates=1, n_trajectories=5,
        settings=experiments.TABLE1_SETTINGS[:1], threads=1))
print(json.dumps([sorted(imported - base), sorted(set(sys.modules) - imported)]))
"""


def _python(code: str, path: Path, cached: bool) -> str:
    env = dict(os.environ, PYTHONPATH=str(path))
    env.pop("PYTHONPYCACHEPREFIX", None)
    if cached:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1])
    return proc.stdout


def best(setup: str, timed: str, path: Path, cached: bool, runs: int) -> tuple[float, float]:
    """Least seconds and least peak MB over `runs` fresh interpreters."""
    samples = [tuple(map(float, _python(TIMED.format(setup=setup, timed=timed), path, cached).split()))
               for _ in range(runs)]
    return min(t for t, _ in samples), min(mb for _, mb in samples)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=7, help="fresh interpreters per row and column")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        cached_dir, bare_dir = Path(tmp) / "cached", Path(tmp) / "bare"
        for d in (cached_dir, bare_dir):
            shutil.copytree(SRC, d / "privregion", ignore=shutil.ignore_patterns("__pycache__"))
        _python("import privregion.cli\n" + PACKAGE, cached_dir, cached=True)  # writes the caches

        print(f"import, best of {args.runs} fresh interpreters (Python {sys.version.split()[0]})")
        print(f"{'':32s} {'cached':>18s} {'no cache':>18s}")
        for label, setup, timed in ROWS:
            try:
                cols = [best(setup, timed, d, c, args.runs) for d, c in ((cached_dir, True), (bare_dir, False))]
            except RuntimeError as e:
                print(f"{label:32s} not measured: {e}")
                continue
            print(f"{label:32s}" + "".join(f" {t:7.3f} s {mb:6.1f} MB" for t, mb in cols))
        (cached, _), (bare, _) = cols  # the last row: the package after numpy
        size = sum(p.stat().st_size for p in SRC.glob("*.py")) / 1024.0
        print(f"\ncompiling the package's {size:.0f} KB of source adds {1e3 * (bare - cached):.0f} ms "
              f"to each start without its caches ({1e3 * bare:.0f} against {1e3 * cached:.0f} ms)")

        at_import, by_run = json.loads(_python(MODULES.format(package=PACKAGE), cached_dir, cached=True))
    print("\nbeyond a bare interpreter and numpy, the package's import loads:")
    print("  " + " ".join(m for m in at_import if not m.startswith("privregion")))
    print("and a single-process run_table1 adds:")
    print("  " + " ".join(by_run))


if __name__ == "__main__":
    main()
