"""Source hygiene checks that need only the standard library."""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos", "tools")
PACKAGE = ROOT / "src" / "privregion"


def _sources():
    return sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_unused_imports():
    src = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "from .core import Point\n"
        "__all__ = ['Point']\n"
        "x = np.zeros(1) * tau\n"
    )
    assert unused_imports(src) == ["os (line 2)", "osp (line 2)", "pi (line 4)"]


@pytest.mark.parametrize("path", _sources(), ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_checked(name: str) -> bool:
    """Private names and UPPER_CASE constants, not dunders."""
    return not name.startswith("__") and (name.startswith("_") or name.isupper())


def top_level_names(source: str) -> list[str]:
    """The module's top-level private names and UPPER_CASE constants."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if _is_checked(n)]


def read_names(source: str) -> set[str]:
    """Names a module reads, as a bare name or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_finds_unread_names():
    src = (
        "import math\n"
        "_USED = 1\n"
        "_LEFT = 2\n"
        "LIMIT: int = 3\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _USED\n"
        "def public():\n"
        "    return math.pi\n"
    )
    names = top_level_names(src)
    assert names == ["_USED", "_LEFT", "LIMIT", "_helper"]
    assert [n for n in names if n not in read_names(src)] == ["_LEFT", "LIMIT", "_helper"]


def test_private_names_and_constants_are_read():
    # a top-level private name or constant that nothing in src/ reads is
    # left over from deleted code
    sources = {p: p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    read = set().union(*(read_names(s) for s in sources.values()))
    unread = [
        f"{p.relative_to(ROOT)}: {name}"
        for p, s in sources.items()
        if p.parent == PACKAGE
        for name in top_level_names(s)
        if name not in read
    ]
    assert unread == []


def test_package_does_not_import_scipy():
    # scipy is a test-only reference; tests/test_import_footprint.py also
    # runs the package with scipy unimportable
    hits = [
        f"{p.relative_to(ROOT)}:{i}"
        for p in sorted(PACKAGE.rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "import scipy" in line or "from scipy" in line
    ]
    assert hits == []


# Exception classes that no CLI command can raise, each with the reason.
UNREACHABLE_FROM_CLI = {
    "NonFiniteInit": "raised by inference.rwm_sample, the Metropolis layer no runner calls",
    "AdaptationFailed": "raised by inference.rwm_sample, the Metropolis layer no runner calls",
    "MaxStepsExceeded": "raised by trajectory.simulate_exit_offsets, which only a demo runs",
}


def exception_classes(sources: dict[str, str]) -> dict[str, list[str]]:
    """{class: its bases' names} for every class in the sources that derives,
    through the others, from a builtin exception."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str) -> bool:
        if name in bases:
            return any(is_exception(b) for b in bases[name])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    return {name: parents for name, parents in bases.items() if is_exception(name)}


def cli_error_names(source: str) -> set[str]:
    """The names in the CLI's _CONFIG_ERRORS and _NUMERICAL_ERRORS tuples."""
    return {
        elt.id
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in ("_CONFIG_ERRORS", "_NUMERICAL_ERRORS") for t in node.targets)
        for elt in node.value.elts
    }


def uncovered_exceptions(sources: dict[str, str], caught: set[str]) -> list[str]:
    """Exception classes that are not, or derive from none that is, in `caught`."""
    classes = exception_classes(sources)

    def covered(name: str) -> bool:
        if name in caught:
            return True
        if name in classes:
            return any(covered(b) for b in classes[name])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and any(
            issubclass(builtin, getattr(builtins, c)) for c in caught if hasattr(builtins, c)
        )

    return sorted(name for name in classes if not covered(name))


def test_finds_uncovered_exceptions():
    sources = {
        "a.py": "class Caught(ValueError): pass\nclass Child(Caught): pass\nclass Lost(RuntimeError): pass\n",
        "b.py": "class Io(OSError): pass\nclass NotAnError: pass\n",
    }
    assert uncovered_exceptions(sources, {"Caught", "OSError"}) == ["Lost"]


def test_cli_maps_every_exception_class():
    # an exception class that the CLI neither maps to exit code 2 or 3 nor
    # lists as unreachable ends a command in a traceback
    sources = {str(p): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))}
    caught = cli_error_names((PACKAGE / "cli.py").read_text())
    assert {"ConfigError", "DiagnosticsFailed"} <= caught
    assert uncovered_exceptions(sources, caught) == sorted(UNREACHABLE_FROM_CLI)
