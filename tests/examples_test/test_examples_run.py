"""The runnable examples actually run (the fast ones, as subprocesses)."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "cluster up" in out
    assert "done." in out


def test_replica_path_selection_demo():
    out = run_example("replica_path_selection_demo.py")
    assert "TOTAL COST            = 4.26 s" in out
    assert "TOTAL COST            = 3.61 s" in out
    assert "TOTAL COST            = 2.40 s" in out
    assert "--> selected path: via A2" in out
    assert "--> selected path: via A1" in out


def test_consistency_and_recovery():
    out = run_example("consistency_and_recovery.py")
    assert "PRIMARY (mutable last chunk)" in out
    assert "rebuilt 1 file(s)" in out


def test_extensions_tour():
    out = run_example("extensions_tour.py")
    assert "primary avoided the congested hosts: True" in out
    assert "rescheduled 1 elephant(s)" in out


def test_flowserver_tracing():
    # Decision tracing is shown by the telemetry tour's flowserver.select
    # listing, which includes a split decision and its candidate counts.
    out = run_example("telemetry_tour.py")
    assert "SPLIT" in out
    assert "paths evaluated" in out


def test_telemetry_tour(tmp_path):
    out = run_example("telemetry_tour.py")
    assert "selection decisions traced: 50" in out
    assert "exported to telemetry_tour_out/" in out
    assert "done." in out
    out_dir = EXAMPLES / "telemetry_tour_out"
    assert (out_dir / "trace.jsonl").exists()
    assert (out_dir / "trace.json").exists()
    assert (out_dir / "metrics.prom").exists()


def test_datacenter_workload_small():
    out = run_example("datacenter_workload.py", "40")
    assert "Figure 4" in out
    assert "mayflower" in out


def test_hdfs_comparison_small():
    # The only example that drives all three Fig. 8 rows.
    out = run_example("hdfs_comparison.py", "10")
    for row in ("mayflower", "hdfs-mayflower", "hdfs-ecmp"):
        assert f"\n{row} " in out
    assert "At λ=0.07 Mayflower cuts average read completion by" in out
