"""The simlint precision corpus: exact diagnostics, file by file.

``corpus/clean_*.py`` are near-miss patterns that must lint clean;
``corpus/dirty_*.py`` carry ``# expect: RULE`` comments on exactly the
lines a rule must fire.  Comparing the *full* (rule, line) set per file
catches both regressions at once: a new false positive on a clean
pattern, and a lost or drifted finding on a known-bad one.
"""

from pathlib import Path

import pytest

from repro.analysis.config import SimlintConfig
from repro.analysis.simlint import lint_source

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.py"))


def expected_diagnostics(path):
    expected = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if "# expect:" in line:
            for rule in line.split("# expect:")[1].split(","):
                expected.append((rule.strip(), lineno))
    return sorted(expected)


def test_corpus_is_populated():
    names = {p.name for p in CORPUS_FILES}
    assert len(names) >= 10
    assert any(n.startswith("clean_") for n in names)
    assert any(n.startswith("dirty_") for n in names)
    # every dirty file pins at least one diagnostic; clean files none
    for path in CORPUS_FILES:
        pinned = expected_diagnostics(path)
        if path.name.startswith("dirty_"):
            assert pinned, f"{path.name} pins no diagnostics"
        else:
            assert not pinned, f"{path.name} is clean but pins {pinned}"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_file_produces_exact_diagnostics(path):
    findings = lint_source(path.read_text(), str(path), SimlintConfig())
    got = sorted((f.rule, f.line) for f in findings)
    assert got == expected_diagnostics(path), "\n" + "\n".join(
        f.render() for f in findings
    )
