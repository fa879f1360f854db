"""Import hygiene: the layer order, and networkx/scipy/numpy stay unloaded.

networkx is a test-only dependency (the routing oracle), scipy serves two
confidence-interval helpers and numpy only the statistics helpers; any of
them at module scope adds a tenth of a second to a second, and MiB, to
every experiment and benchmark child.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, {src!r})
import repro.experiments.runner
import repro.cluster
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("networkx", "scipy", "numpy"))
print(heavy)
"""


def test_runtime_imports_load_no_networkx_scipy_or_numpy():
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: Each package of ``src/repro`` imports only packages to its left.
LAYERS = (
    "sim net sdn core rpc kvstore fs baselines workload faults cluster "
    "telemetry experiments analysis"
).split()


def upward_imports(root: Path = SRC / "repro"):
    """Every import (top-level or in a function) of a later layer."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if parts == ("__init__.py",):  # repro/__init__.py sits above them all
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                target = module.split(".")
                if target[0] != "repro" or len(target) < 2:
                    continue
                if rank[target[1]] > rank[parts[0]]:
                    found.append(f"{'/'.join(parts)}:{node.lineno} {module}")
    return found


def test_every_package_is_a_known_layer():
    packages = {p.name for p in (SRC / "repro").iterdir() if (p / "__init__.py").exists()}
    assert packages == set(LAYERS)


def test_no_package_imports_a_later_layer():
    assert upward_imports() == []


def test_an_upward_import_is_caught(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "bad.py").write_text(
        "def f():\n    from repro.fs.errors import InvalidRequestError\n"
    )
    assert upward_imports(tmp_path) == ["core/bad.py:2 repro.fs.errors"]
