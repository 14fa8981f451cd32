"""What `import privregion` loads, measured in a fresh interpreter.

Start-up time and resident size follow from the modules an import pulls
in. scipy.special is the one scipy subpackage the package needs; another,
scipy.linalg above all (about 6 MB resident), must not come in by the way.
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
subpackages = sorted(
    name.split(".")[1]
    for name, mod in sys.modules.items()
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__")
)
print(json.dumps(subpackages))
"""


def test_only_scipy_special_is_loaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == ["special"]
