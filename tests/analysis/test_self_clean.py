"""The determinism contract holds: simlint reports nothing under src/.

This is the test that keeps the contract honest — any new wall-clock
read, stray ``random`` import, set-order leak, float equality on a rate,
or stale-across-yield cache anywhere in the source tree fails CI with the
exact file:line in the assertion message.
"""

from pathlib import Path

from repro.analysis.config import SimlintConfig
from repro.analysis.simlint import iter_python_files, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_lints_clean():
    findings = lint_paths([REPO_ROOT / "src"], SimlintConfig())
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_src_tree_is_actually_scanned():
    files = iter_python_files([REPO_ROOT / "src"])
    assert len(files) > 50  # the whole tree, not an accidental empty glob
    assert any(p.name == "engine.py" for p in files)
    assert not any(".hypothesis" in p.parts for p in files)
