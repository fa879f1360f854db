"""What importing the runtime costs: networkx and scipy stay unloaded.

networkx is a test-only dependency (the routing oracle) and scipy serves
two confidence-interval helpers; either one at module scope adds about a
second and tens of MiB to every experiment and benchmark child.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, {src!r})
import repro.experiments.runner
import repro.cluster
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("networkx", "scipy"))
print(heavy)
"""


def test_runtime_imports_load_neither_networkx_nor_scipy():
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
