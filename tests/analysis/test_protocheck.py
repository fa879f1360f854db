"""Fixture tests for every protocheck rule, plus the repo-clean gate.

One deliberately-broken fixture per rule pins the exact rule id, line,
and column the checker must report; a clean twin must pass.  The real
``src/repro/fs`` tree must analyze clean (that is the CI gate), and
stripping the ``@protocheck.fenced`` annotations from the dataserver
must re-fire FENCE001 on exactly the functions they justify — proof the
annotations are load-bearing, not decorative.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.protocheck import (
    PROTOCHECK_RULES,
    analyze_sources,
    build_graph,
    load_sources,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def analyze(snippet, path="repro/fs/example.py", select=None):
    return analyze_sources({path: textwrap.dedent(snippet)}, select=select)


# ----------------------------------------------------------------------
# Broken fixture per rule: exact rule + span
# ----------------------------------------------------------------------

FENCE001_BROKEN = """\
class Dataserver:
    def append(self, stored, entry):
        stored.ledger.append(entry)
"""

FENCE002_BROKEN = """\
class Dataserver:
    def commit(self, stored, entry):
        epoch = stored.epoch
        yield None
        self.apply(entry, epoch)

    def apply(self, entry, epoch):
        return (entry, epoch)
"""

PROTO001_BROKEN = """\
class Dataserver:
    def commit(self, stored, append_id):
        self._ensure_lease(stored)
        stored.acked_ids.add(append_id)
        stored.ledger.append(append_id)
"""


@pytest.mark.parametrize(
    ("snippet", "rule", "line", "col"),
    [
        pytest.param(FENCE001_BROKEN, "FENCE001", 3, 8, id="FENCE001"),
        pytest.param(FENCE002_BROKEN, "FENCE002", 5, 8, id="FENCE002"),
        pytest.param(PROTO001_BROKEN, "PROTO001", 4, 8, id="PROTO001"),
    ],
)
def test_broken_fixture_reports_exact_span(snippet, rule, line, col):
    findings = analyze(snippet)
    assert [(f.rule, f.line, f.col) for f in findings] == [(rule, line, col)], (
        "\n" + "\n".join(f.render() for f in findings)
    )


def test_fence001_names_the_attr_entry_and_escape_hatches():
    (finding,) = analyze(FENCE001_BROKEN)
    assert "'ledger'" in finding.message
    assert "Dataserver.append" in finding.message
    assert "_ensure_lease" in finding.message  # tells the reader how to fix


def test_fence001_fenced_twin_is_clean():
    assert (
        analyze(
            """\
            class Dataserver:
                def append(self, stored, entry):
                    self._ensure_lease(stored)
                    stored.ledger.append(entry)
            """
        )
        == []
    )


def test_fence001_raise_guard_counts_as_fence():
    assert (
        analyze(
            """\
            class Dataserver:
                def append(self, stored, entry, epoch):
                    if epoch < stored.epoch:
                        raise StaleEpochError(epoch)
                    stored.ledger.append(entry)
            """
        )
        == []
    )


def test_fence001_fence_after_mutation_still_fires():
    findings = analyze(
        """\
        class Dataserver:
            def append(self, stored, entry):
                stored.ledger.append(entry)
                self._ensure_lease(stored)
        """
    )
    assert [(f.rule, f.line) for f in findings] == [("FENCE001", 3)]


def test_fence001_transitive_through_private_helper():
    findings = analyze(
        """\
        class Dataserver:
            def append(self, stored, entry):
                self._apply(stored, entry)

            def _apply(self, stored, entry):
                stored.ledger.append(entry)
        """
    )
    assert [(f.rule, f.line) for f in findings] == [("FENCE001", 6)]
    assert "Dataserver._apply" in findings[0].message


def test_fence001_fence_in_caller_covers_callee():
    assert (
        analyze(
            """\
            class Dataserver:
                def append(self, stored, entry):
                    self._ensure_lease(stored)
                    self._apply(stored, entry)

                def _apply(self, stored, entry):
                    stored.ledger.append(entry)
            """
        )
        == []
    )


def test_fence002_clean_when_bound_after_yield():
    assert (
        analyze(
            """\
            class Dataserver:
                def commit(self, stored, entry):
                    yield None
                    epoch = stored.epoch
                    self.apply(entry, epoch)

                def apply(self, entry, epoch):
                    return (entry, epoch)
            """
        )
        == []
    )


def test_proto001_clean_when_ledger_written_first():
    assert (
        analyze(
            """\
            class Dataserver:
                def commit(self, stored, append_id):
                    self._ensure_lease(stored)
                    stored.ledger.append(append_id)
                    stored.acked_ids.add(append_id)
            """
        )
        == []
    )


def test_proto001_sees_ledger_write_through_callee():
    findings = analyze(
        """\
        class Dataserver:
            def commit(self, stored, append_id):
                self._ensure_lease(stored)
                stored.acked_ids.add(append_id)
                self._apply(stored, append_id)

            def _apply(self, stored, append_id):
                stored.ledger.append(append_id)
        """,
        select={"PROTO001"},
    )
    assert [(f.rule, f.line) for f in findings] == [("PROTO001", 4)]


# ----------------------------------------------------------------------
# Entry-point discovery
# ----------------------------------------------------------------------


def test_private_methods_are_not_entry_points():
    # _apply is unreachable from any entry point: no findings.
    assert (
        analyze(
            """\
            class Dataserver:
                def _apply(self, stored, entry):
                    stored.ledger.append(entry)
            """
        )
        == []
    )


def test_non_service_class_is_not_an_entry_point():
    assert (
        analyze(
            """\
            class Bookkeeper:
                def append(self, stored, entry):
                    stored.ledger.append(entry)
            """
        )
        == []
    )


def test_entrypoint_annotation_promotes_function():
    findings = analyze(
        """\
        import repro.fs.annotations as protocheck

        @protocheck.entrypoint
        def handle(stored, entry):
            stored.ledger.append(entry)
        """
    )
    assert [(f.rule, f.line) for f in findings] == [("FENCE001", 5)]


def test_register_call_discovers_service_class():
    findings = analyze(
        """\
        class CustomStore:
            def append(self, stored, entry):
                stored.ledger.append(entry)

        def wire(fabric, endpoint):
            store = CustomStore()
            fabric.register(endpoint, "blockstore", store)
        """
    )
    assert [(f.rule, f.line) for f in findings] == [("FENCE001", 3)]


# ----------------------------------------------------------------------
# Escape hatches: annotations and inline suppressions
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "decorator",
    ["@protocheck.fenced", '@protocheck.fenced(reason="relay path")'],
    ids=["bare", "with-reason"],
)
def test_fenced_annotation_suppresses_fence001(decorator):
    assert (
        analyze(
            f"""\
            import repro.fs.annotations as protocheck

            class Dataserver:
                {decorator}
                def append(self, stored, entry):
                    stored.ledger.append(entry)
            """
        )
        == []
    )


def test_exempt_annotation_excludes_function():
    assert (
        analyze(
            """\
            import repro.fs.annotations as protocheck

            class Dataserver:
                @protocheck.exempt(reason="bootstrap fixture")
                def load_preexisting(self, stored, entries):
                    stored.ledger.extend(entries)
                    stored.acked_ids.add("x")
            """
        )
        == []
    )


def test_inline_suppression_is_rule_scoped():
    clean = analyze(
        """\
        class Dataserver:
            def append(self, stored, entry):
                stored.ledger.append(entry)  # protocheck: ignore[FENCE001]
        """
    )
    assert clean == []
    wrong_rule = analyze(
        """\
        class Dataserver:
            def append(self, stored, entry):
                stored.ledger.append(entry)  # protocheck: ignore[PROTO001]
        """
    )
    assert [f.rule for f in wrong_rule] == ["FENCE001"]


def test_annotations_are_runtime_noops():
    import repro.fs.annotations as protocheck

    @protocheck.fenced
    def bare(x):
        return x + 1

    @protocheck.fenced(reason="r")
    def reasoned(x):
        return x + 2

    @protocheck.exempt(reason="r")
    @protocheck.entrypoint
    def stacked(x):
        return x + 3

    assert (bare(1), reasoned(1), stacked(1)) == (2, 3, 4)
    assert bare.__name__ == "bare"


# ----------------------------------------------------------------------
# The repo gate
# ----------------------------------------------------------------------


def test_rule_inventory_matches_registry():
    assert set(PROTOCHECK_RULES) == {"FENCE001", "FENCE002", "PROTO001"}


def test_repo_fs_tree_analyzes_clean():
    findings = analyze_sources(load_sources([REPO_ROOT / "src" / "repro"]))
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)


def test_dataserver_annotations_are_load_bearing():
    """Stripping @protocheck.fenced must re-fire FENCE001 on exactly the
    functions the annotations justify."""
    sources = load_sources([REPO_ROOT / "src" / "repro" / "fs"])
    path = str(REPO_ROOT / "src" / "repro" / "fs" / "dataserver.py")
    assert "@protocheck.fenced" in sources[path]
    stripped = dict(sources)
    stripped[path] = sources[path].replace("@protocheck.fenced", "@unchecked.fenced")
    findings = analyze_sources(stripped)
    assert findings, "annotations are decorative: stripping them changed nothing"
    assert {f.rule for f in findings} == {"FENCE001"}
    flagged = {
        f.message.split(" in ")[1].split(" (")[0]
        for f in findings
        if f.rule == "FENCE001"
    }
    assert flagged == {
        "Dataserver.update_replica_set",
        "Dataserver.install_replica",
        "Dataserver._commit_append",
    }


def test_graph_dump_covers_the_write_path():
    sources = load_sources([REPO_ROOT / "src" / "repro" / "fs"])
    graph = build_graph(sources).to_json_dict()
    names = set(graph["functions"])
    assert {"Dataserver.commit_append", "Dataserver.relay_append"} <= names
    assert "dataserver" in graph["services"]
    entries = set(graph["entrypoints"])
    assert "Dataserver.commit_append" in entries
    assert "Dataserver._ensure_lease" not in entries
    commit = graph["functions"]["Dataserver.commit_append"]
    assert any(m["attr"] == "acked_ids" for m in commit["mutations"])
    assert commit["fences"]
