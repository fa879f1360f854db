"""Self-test of the perf ledger (about two minutes; not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py

Every workload runs at ``--scale 0.05``, so nothing here measures
performance; the tests pin the record schema, the names shared with
``BENCHMARK.json``, determinism per seed, drift tolerance and the
``compare`` verdicts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as ledger_run
from ledgerlib import layers, record, workloads

LEDGER_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((LEDGER_DIR.parent.parent / "BENCHMARK.json").read_text())


def _run(*args):
    return subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=600)


def _smoke(tmp_path_factory, seed):
    out = tmp_path_factory.mktemp(f"seed{seed}") / "record.json"
    done = _run("--scale", "0.05", "--reps", "1", "--seed", str(seed),
                "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _smoke(tmp_path_factory, 3)


@pytest.fixture(scope="module")
def smoke_again(tmp_path_factory):
    return _smoke(tmp_path_factory, 3)


@pytest.fixture(scope="module")
def smoke_other_seed(tmp_path_factory):
    return _smoke(tmp_path_factory, 4)


def test_record_validates_and_prints_every_metric(smoke):
    rec, stdout = smoke
    assert record.validate(rec) == []
    assert rec["comparable"] is False
    assert rec["checks"]["paper_shape_guard"]["ok"]
    for name, block in rec["workloads"].items():
        assert all(ok is not False for ok in block["checks"].values()), name
        assert block["end_to_end"]["failed_frac"]["value"] == 0
        assert block["missing"] == []
    for metric in list(record.END_TO_END) + layers.per_layer_names():
        assert metric in stdout


def test_names_match_benchmark_json(smoke):
    rec, _ = smoke
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(rec["workloads"]) == list(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(
        ledger_run.DRIVER_END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == (
        layers.per_layer_names() + list(ledger_run.DRIVER_APPEND))
    assert set(ledger_run.DRIVER_END_TO_END) | set(ledger_run.DRIVER_APPEND) < set(
        record.END_TO_END)
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[group]:
            assert record.NAME_RE.match(entry["name"]), entry
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == record.unit_of(metric["name"]), metric


def _exact(rec):
    """Everything of a record that must repeat bit for bit."""
    exact_layers = (
        list(layers.COUNTERS) + list(layers.DERIVED_COUNTERS)
        + [n for n in layers.boundary_metric_names() if n.endswith(".calls")]
        + ["telemetry.events"])
    return {
        name: (
            block["digest"],
            {m: e["value"] for m, e in block["end_to_end"].items()
             if m.startswith("sim_") or m == "failed_frac"},
            {m: block["per_layer"][m] for m in exact_layers},
        )
        for name, block in rec["workloads"].items()
    }


def test_same_seed_repeats_exactly_and_other_seed_differs(
        smoke, smoke_again, smoke_other_seed):
    assert _exact(smoke[0]) == _exact(smoke_again[0])
    for name, block in smoke_other_seed[0]["workloads"].items():
        assert block["digest"] != smoke[0]["workloads"][name]["digest"], name


def test_layer_profiles_match_the_workloads_why(smoke):
    blocks = smoke[0]["workloads"]
    churn = blocks["net_churn_1024"]["per_layer"]
    for metric, value in churn.items():
        if metric.startswith("core.") and metric.endswith(".calls"):
            assert value == 0, metric
    meta = blocks["dfs_meta_64"]["per_layer"]
    assert meta["net.self_s"] + meta["core.self_s"] < 0.05 * meta["trace.total_s"]
    assert blocks["dfs_mixed_64"]["per_layer"]["telemetry.events"] > 0
    # Every per-layer name is measured (non-null) on at least one workload.
    for metric in layers.per_layer_names():
        assert any(b["per_layer"][metric] is not None for b in blocks.values()), metric


def test_removed_callable_or_counter_reads_null_not_error():
    rows, missing = layers.collapse(
        [], boundaries={"gone.module": "repro.no_such_module:f",
                        "gone.attr": "json:no_such_function"})
    assert rows["gone.module.calls"] is None and rows["gone.attr.cum_s"] is None
    assert missing == ["gone.module", "gone.attr"]
    values, missing = layers.read_counters({"loop": object()})
    assert values["sim.events"] is None and "sim.events" in missing
    assert values["rpc.calls_sent"] is None and "rpc.calls_sent" not in missing


def _synthetic(wall_reps, failed_frac=0.0):
    block = {m: {"value": 1.0} for m in record.END_TO_END}
    block["wall_s"] = {"value": sorted(wall_reps)[1], "reps": list(wall_reps)}
    block["failed_frac"] = {"value": failed_frac}
    block["sim_append_mean_s"] = {"value": None}
    return {"seed": 1, "scale": 1.0, "comparable": True, "workloads": {
        "w": {"end_to_end": block, "per_layer": {"net.solves": 7}, "digest": "d"}}}


@pytest.mark.parametrize("head_reps, failed, metric, expected", [
    ((8.0, 8.0, 8.0), 0.0, "wall_s", "improved"),
    ((10.5, 10.5, 10.5), 0.0, "wall_s", "unchanged"),
    ((11.5, 11.5, 11.5), 0.0, "wall_s", "regressed"),
    ((9.5, 10.0, 12.0), 0.0, "wall_s", "unresolved"),
    ((10.0, 10.0, 10.0), 0.01, "failed_frac", "regressed"),
    ((10.0, 10.0, 10.0), 0.0, "sim_append_mean_s", "skipped"),
])
def test_compare_verdicts(head_reps, failed, metric, expected):
    result = record.compare(
        _synthetic((10.0, 10.0, 10.0)), _synthetic(head_reps, failed))
    rows = {row["metric"]: row for row in result["w"]["rows"]}
    assert rows[metric]["verdict"] == expected
    assert result["w"]["digest"] == "same" and result["w"]["per_layer"] == []
    assert "head/base" in record.render_compare(result)


def test_compare_refuses_scaled_and_cross_seed_records(smoke, tmp_path):
    scaled = _synthetic((10.0, 10.0, 10.0))
    scaled["comparable"] = False
    with pytest.raises(ValueError, match="non-comparable"):
        record.compare(scaled, _synthetic((10.0, 10.0, 10.0)))
    other = _synthetic((10.0, 10.0, 10.0))
    other["seed"] = 2
    with pytest.raises(ValueError, match="different seeds"):
        record.compare(_synthetic((10.0, 10.0, 10.0)), other)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(smoke[0]))
    assert _run("compare", str(path), str(path)).returncode == 2


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_mode_prints_the_contract_line(trace, group):
    done = _run("--workload", "dfs_meta_64", "--seed", "5", "--seconds", "0.2",
                "--trace", trace, "--scale", "0.05")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK[group]]
    for metric in BENCHMARK[group]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    assert not (LEDGER_DIR / "out" / "tmp").exists()


def test_readme_baseline_table_is_generated_from_baseline_json():
    baseline = json.loads((LEDGER_DIR / "baseline.json").read_text())
    assert record.validate(baseline) == [] and baseline["comparable"]
    assert record.render_table(baseline) in (LEDGER_DIR / "README.md").read_text()
    # Scale-out is what flow_reads_1024 is for: networkx time per job there
    # is at least ten times flow_reads_64's.
    per_job = {
        name: block["per_layer"]["ext.networkx.self_s"] / block["constants"]["jobs"]
        for name, block in baseline["workloads"].items() if "jobs" in block["constants"]}
    assert per_job["flow_reads_1024"] >= 10 * per_job["flow_reads_64"]
