"""Import hygiene: the layer order, networkx/scipy/numpy stay unloaded, and
no module imports a name it never reads.

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
    "sim net sdn core rpc fs baselines workload faults cluster "
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


#: Trees whose Python files the unused-import scan covers.
SCANNED = ("src", "tests", "examples", "benchmarks", "tools")


def _annotation_names(node):
    """Names read by an annotation, string annotations parsed."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def unused_imports(source: str, filename: str = "<string>"):
    """``lineno name`` of each name an import binds that nothing reads.

    A name is read by a ``Name`` node, by an annotation (string
    annotations are parsed) or by a string listed in ``__all__``.
    """
    tree = ast.parse(source, filename)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return [f"{lineno} {name}" for lineno, name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    root = SRC.parent
    found = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            for entry in unused_imports(path.read_text(), str(path)):
                found.append(f"{path.relative_to(root)}:{entry}")
    assert found == []


def test_an_unused_import_is_caught():
    source = (
        "import math\n"
        "import os.path\n"
        "from typing import List, Optional, Sequence\n"
        "from a import b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["1 math", "3 Sequence", "4 c"]
