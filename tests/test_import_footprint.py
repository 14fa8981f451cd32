"""What `import privregion` loads, measured in a fresh interpreter.

Start-up time and resident size follow from the modules an import pulls
in. The package runs on numpy alone: scipy, whose special-function module
was most of both, is a test-only reference and must not come back, neither
at import nor inside a function that imports it on first use. Nor may a
single-process study load the process pool's modules, numpy.ma (which
np.quantile brings), numpy.polynomial or fractions (which brings decimal).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import privregion
from privregion import core, harmonic, inference, strategies, trajectory, experiments
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""

# Every path that reaches a special function, with scipy unimportable: the
# study and the curve at their smallest (the curve's SP histogram takes the
# Gamma quantile and sp_cdf), a random-radius attack at n = 6, whose box
# takes quadrature_window's Gamma tail, and a Gauss-Jacobi rule that no
# earlier call built.
BLOCKED = """
import sys, tempfile
from importlib.abc import MetaPathFinder

class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())

from privregion import experiments, inference
from privregion.core import GammaParams, Point, derive_rng, jacobi_rule
from privregion.strategies import RandomRadius, generate_observations

with tempfile.TemporaryDirectory() as out:
    small = dict(n_replicates=1, n_trajectories=5, settings=experiments.TABLE1_SETTINGS[:1], threads=1)
    experiments.run_table1(experiments.ScenarioConfig(master_seed=5, out_dir=out + "/t", **small))
    experiments.run_curve(experiments.ScenarioConfig(master_seed=5, out_dir=out + "/c", sample_sizes=(5, 10), **small))
obs = generate_observations(Point(0.0, 0.0), RandomRadius(GammaParams(4.0, 4.0)), 6, derive_rng(5, 6))
report = inference.attack(obs, Point(0.0, 0.0), None)
assert report.rule == "midpoint", report.rule
u, w = jacobi_rule(37, 2.5, 0.7)
assert abs(w.sum() - 1.0) < 1e-14
print("ok")
"""


# The package and its six modules, then the table1, curve and obfuscate
# runners at their smallest, in one process.
RUNS = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
import privregion
from privregion import core, harmonic, inference, strategies, trajectory, experiments
from privregion.core import GammaParams, Point
from privregion.strategies import RandomRadius

with tempfile.TemporaryDirectory() as out:
    small = dict(n_replicates=1, n_trajectories=5, settings=experiments.TABLE1_SETTINGS[:1], threads=1)
    experiments.run_table1(experiments.ScenarioConfig(master_seed=5, out_dir=out + "/t", **small))
    experiments.run_curve(experiments.ScenarioConfig(master_seed=5, out_dir=out + "/c", sample_sizes=(5, 10), **small))
    track = trajectory.Trajectory(np.arange(4.0), np.array([[0.0, 0.0], [5.0, 0.0], [6.0, 0.0], [0.1, 0.0]]))
    trajectory.write_track(track, Path(out) / "walk.csv")
    res = experiments.run_obfuscate([Path(out) / "walk.csv"], Point(0.0, 0.0), RandomRadius(GammaParams(4.0, 4.0)), 3, out + "/o")
    assert res.rows[0]["published"], res.rows
print(json.dumps(sorted(sys.modules)))
"""

UNUSED = ("concurrent", "multiprocessing", "logging", "numpy.ma", "numpy.polynomial", "fractions", "decimal")


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_no_scipy_module_is_loaded():
    assert json.loads(_run(PROBE)) == []


def test_runs_with_scipy_blocked():
    assert _run(BLOCKED).split() == ["ok"]


def test_single_process_runs_load_only_what_they_use():
    loaded = json.loads(_run(RUNS))
    assert "privregion.experiments" in loaded and "numpy.random" in loaded
    assert [m for m in loaded if any(m == u or m.startswith(u + ".") for u in UNUSED)] == []
