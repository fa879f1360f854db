"""Unit tests for report rendering and headline-claim checking."""

from repro.experiments.claims import (
    check_headline_claims,
    check_ordering,
    render_claims,
)
from repro.experiments.report import (
    render_figure4,
    render_figure5,
    render_figure6,
    render_figure7,
    render_figure8,
    render_multireplica,
)


def fake_figure4(mayflower=2.0, sinbad_mf=3.5, sinbad_ecmp=4.0,
                 nearest_mf=8.0, nearest_ecmp=11.0):
    def row(mean, p95):
        return {
            "mean_s": mean,
            "p95_s": p95,
            "mean_normalized": mean / mayflower,
            "mean_ci": (mean / mayflower * 0.9, mean / mayflower * 1.1),
            "p95_normalized": p95 / (mayflower * 2),
            "raw": [mean] * 10,
        }

    return {
        "figure": "4",
        "locality": "(0.5, 0.3, 0.2)",
        "rate": 0.07,
        "schemes": {
            "mayflower": row(mayflower, mayflower * 2),
            "sinbad-mayflower": row(sinbad_mf, sinbad_mf * 3),
            "sinbad-ecmp": row(sinbad_ecmp, sinbad_ecmp * 3),
            "nearest-mayflower": row(nearest_mf, nearest_mf * 5),
            "nearest-ecmp": row(nearest_ecmp, nearest_ecmp * 5),
        },
    }


class TestRenderers:
    def test_figure4_table_contains_all_schemes(self):
        text = render_figure4(fake_figure4())
        for scheme in ("mayflower", "sinbad-ecmp", "nearest-ecmp"):
            assert scheme in text
        assert "1.00x" in text
        assert "λ=0.07" in text

    def test_figure5_renders_groups(self):
        result = {
            "figure": "5",
            "rate": 0.07,
            "groups": {
                "(0.5, 0.3, 0.2)": fake_figure4()["schemes"],
                "(0.2, 0.3, 0.5)": fake_figure4()["schemes"],
            },
        }
        text = render_figure5(result)
        assert "(0.5, 0.3, 0.2)" in text
        assert text.count("mayflower") >= 2

    def test_figure6_marks_saturation(self):
        result = {
            "figure": "6",
            "panels": {
                "a": {
                    "locality": "(0.5, 0.3, 0.2)",
                    "curves": {
                        "mayflower": {0.06: {"mean_s": 3.0, "p95_s": 6.0}},
                        "nearest-ecmp": {0.06: None},
                    },
                },
            },
        }
        text = render_figure6(result)
        assert "sat." in text
        assert "3.00" in text

    def test_figure7_renders_ratios(self):
        result = {
            "figure": "7",
            "locality": "(0.5, 0.3, 0.2)",
            "curves": {
                "mayflower": {
                    8.0: {"mean_s": 3.0, "p95_s": 7.0},
                    16.0: {"mean_s": 5.0, "p95_s": 11.0},
                },
            },
        }
        text = render_figure7(result)
        assert "8:1" in text and "16:1" in text

    def test_figure8_renders(self):
        result = {
            "figure": "8",
            "curves": {
                "mayflower": {0.06: {"mean_s": 3.0, "p95_s": 7.0}},
                "hdfs-ecmp": {0.06: {"mean_s": 12.0, "p95_s": 40.0}},
            },
        }
        text = render_figure8(result)
        assert "hdfs-ecmp" in text

    def test_multireplica_renders_improvement(self):
        result = {
            "figure": "4.3-multireplica",
            "results": {
                "split": {"mean_s": 3.6, "p95_s": 8.0, "split_jobs": 100},
                "single": {"mean_s": 4.0, "p95_s": 8.4, "split_jobs": 0},
                "improvement": 0.1,
            },
        }
        text = render_multireplica(result)
        assert "10.0%" in text


class TestClaims:
    def test_good_results_pass_all_claims(self):
        checks = check_headline_claims(fake_figure4())
        assert all(c.holds for c in checks)

    def test_weak_results_fail(self):
        # baselines barely worse than mayflower -> claims fail
        weak = fake_figure4(mayflower=2.0, sinbad_mf=2.1, sinbad_ecmp=2.2,
                            nearest_mf=2.3, nearest_ecmp=2.4)
        checks = check_headline_claims(weak)
        assert not all(c.holds for c in checks)

    def test_ordering_checks(self):
        ordering = check_ordering(fake_figure4())
        assert ordering["mayflower_is_best"]
        assert ordering["sinbad_beats_nearest"]
        assert ordering["informed_paths_no_worse"]

    def test_ordering_detects_upset(self):
        upset = fake_figure4(sinbad_mf=20.0, sinbad_ecmp=21.0)
        ordering = check_ordering(upset)
        assert not ordering["sinbad_beats_nearest"]

    def test_render_claims_format(self):
        text = render_claims(check_headline_claims(fake_figure4()))
        assert "[PASS]" in text
        assert "measured" in text
