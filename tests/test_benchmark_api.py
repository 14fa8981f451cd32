"""The program names the benchmark (perfbench/) relies on.

The benchmark's tracer looks functions up by (module, attribute) in its
`WRAPPED` table, and its worker calls `experiments.attack` with four
positional arguments. Neither is imported by the package, so a deletion or
a signature change that breaks a traced run would otherwise fail no test
here. The table is read with `ast`; perfbench itself is not imported.
"""

import ast
from pathlib import Path

import privregion
from privregion import experiments
from privregion.core import Point, derive_rng
from privregion.experiments import TABLE1_SETTINGS
from privregion.inference import AttackReport
from privregion.strategies import generate_observations

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrapped() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [tuple(entry) for entry in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED table in {TRACER}")


def test_every_wrapped_name_resolves():
    # looked up as the tracer does: getattr(getattr(package, module), attr)
    wrapped = _wrapped()
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(getattr(privregion, module, None), attr, None))
    ]
    assert not missing


def test_attack_takes_four_positional_arguments():
    # as the benchmark worker's Clock calls it: obs, theta_true, rng, config
    theta = Point(0.0, 0.0)
    rng = derive_rng(5, 1)
    obs = generate_observations(theta, TABLE1_SETTINGS[0], 20, rng)
    rep = experiments.attack(obs, theta, rng, None)
    assert isinstance(rep, AttackReport)
    assert rep.posterior_mse == rep.bias2 + rep.variance
