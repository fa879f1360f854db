"""Every ``kept:`` reason in ``tools/reachability.py`` names a live function.

The reachability report marks unreached functions kept on purpose through
the tool's ``KEPT`` table, keyed by ``(path, qualname)`` or by a whole file
``(path, None)``.  A key that outlives its function would leave a stale
reason behind, so each key is checked against the definitions the report
itself enumerates.  The checks read the source tree's AST only; they run
no consumer.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_reachability():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REACHABILITY = load_reachability()


def test_every_kept_key_names_an_existing_definition():
    defs = REACHABILITY.definitions(ROOT)
    qualnames = {(d.path, d.qualname) for d in defs}
    stale = [
        (path, qualname)
        for path, qualname in REACHABILITY.KEPT
        if not (ROOT / path).is_file()
        or (qualname is not None and (path, qualname) not in qualnames)
    ]
    assert stale == []


def test_every_kept_reason_is_non_empty():
    empty = [key for key, why in REACHABILITY.KEPT.items() if not why.strip()]
    assert empty == []
