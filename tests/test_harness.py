import csv
import io
import json
import math

import numpy as np
import pytest

from swaplab import circuits, egraph, harness, stats

from oracles import multi_pair_probabilities, per_pair_swap_tests


class TestWriters:
    def test_csv_float_formatting(self, tmp_path):
        path = tmp_path / "out.csv"
        harness.write_records([{"x": 1 / 3, "n": 2, "ok": True, "tag": "a"}], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,n,ok,tag"
        assert lines[1] == "0.33333333333333331,2,true,a"

    def test_csv_nan_becomes_empty(self, tmp_path):
        path = tmp_path / "out.csv"
        harness.write_records([{"x": float("nan"), "y": 1.0}], path)
        assert path.read_text().strip().splitlines()[1] == ",1"

    def test_json_carries_metadata(self, tmp_path):
        path = tmp_path / "out.json"
        harness.write_records(
            [{"x": 0.5}], path, "json", metadata={"x": "test column"}
        )
        payload = json.loads(path.read_text())
        assert payload["metadata"]["x"] == "test column"
        assert payload["records"] == [{"x": 0.5}]

    def test_csv_matches_cell_by_cell_writer(self):
        # the column formatter against the per-cell rule through csv.writer,
        # on plain, mixed and numpy-scalar columns and fields csv must quote
        records = [
            {"f": 1 / 3, "b": True, "i": 7, "s": "0101", "mix": None,
             "np": np.float64(0.1), 'q,"h"': 'a,"b"', "nb": np.True_},
            {"f": math.nan, "b": False, "i": -2, "s": "x", "mix": math.inf,
             "np": np.float64(-math.inf), 'q,"h"': "line\nbreak", "nb": np.False_},
            {"f": -math.inf, "b": True, "i": 0, "s": "", "mix": 3,
             "np": np.float64(math.nan), 'q,"h"': "cr\r", "nb": np.True_},
            {"f": math.inf, "b": False, "i": 10**20, "s": "y", "mix": "z",
             "np": np.float64(2.5e-300), 'q,"h"': " pad ", "nb": np.False_},
        ]
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(records[0])
        for rec in records:
            writer.writerow([harness._fmt_cell(v) for v in rec.values()])
        got = io.StringIO(newline="")
        harness.write_records(records, got)
        assert got.getvalue() == want.getvalue()

    def test_csv_single_empty_column(self):
        got = io.StringIO(newline="")
        harness.write_records([{"x": None}, {"x": 1.0}], got)
        assert got.getvalue() == 'x\r\n""\r\n1\r\n'

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            harness.write_records([], tmp_path / "x", "yaml")


class TestSwapTestRunner:
    def test_exact_identical(self):
        records, _ = harness.run_swap_test(theta1=0.3, phi1=0.1, theta2=0.3, phi2=0.1)
        rec = records[0]
        assert rec["p_exact"] == pytest.approx(1.0, abs=1e-12)
        assert rec["distance_hat"] == pytest.approx(0.0, abs=1e-6)

    def test_sampled_matches_seeded_rerun(self):
        a, _ = harness.run_swap_test(theta2=1.0, shots=500, seed=9)
        b, _ = harness.run_swap_test(theta2=1.0, shots=500, seed=9)
        assert a == b

    def test_vector_inputs(self):
        records, _ = harness.run_swap_test(vec1=[1.0, 0.0], vec2=[0.0, 1.0])
        assert records[0]["p_exact"] == pytest.approx(0.5, abs=1e-12)
        assert records[0]["distance_true"] == pytest.approx(math.sqrt(2))

    def test_vector_needs_both(self):
        with pytest.raises(ValueError):
            harness.run_swap_test(vec1=[1.0, 0.0])


@pytest.mark.parametrize("shots", [math.nan, -math.inf, 0, -3, 2.5])
@pytest.mark.parametrize(
    "entry",
    [
        lambda shots: stats.estimate_overlaps([1], shots),
        lambda shots: egraph.quantum_egraph(
            egraph.PointCloud(np.array([[1.0, 0.0], [0.6, 0.8]])), 0.7, shots
        ),
        lambda shots: harness.run_swap_test(theta2=1.0, shots=shots),
    ],
    ids=["estimate_overlaps", "quantum_egraph", "run_swap_test"],
)
def test_shots_must_be_whole_and_positive(entry, shots):
    with pytest.raises(ValueError, match="shots must be"):
        entry(shots)


class TestEq1Audit:
    def test_n4_structure(self):
        records, meta = harness.run_eq1_audit(4, trials=3, seed=1)
        assert len(records) == 3 * 6
        for rec in records:
            assert rec["max_outcome_delta"] < 1e-10
            assert abs(rec["marginal_total"] - 1.0) < 1e-10
            assert rec["p_agg_measured"] == pytest.approx(
                rec["p_pair_calibrated"], abs=1e-10
            )
            assert rec["ratio_empirical_to_nominal"] == pytest.approx(
                rec["multiplicity"] / 2.0, abs=1e-9
            )
        assert "c_pair_empirical" in meta

    def test_n8_runs(self):
        records, _ = harness.run_eq1_audit(8, trials=1, seed=0)
        assert len(records) == 28
        mults = {rec["multiplicity"] for rec in records}
        assert mults == {1, 2, 8}

    def test_nominal_constant_matches_multiplicity_two(self):
        records, _ = harness.run_eq1_audit(4, trials=1, seed=5)
        for rec in records:
            if rec["multiplicity"] == 2:
                assert rec["p_agg_measured"] == pytest.approx(
                    rec["p_eq1_nominal"], abs=1e-10
                )

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            harness.run_eq1_audit(4, trials=0)


class TestBoundsSweep:
    def test_columns_and_consistency(self):
        records, meta = harness.run_bounds_sweep([1, 10], alphas=[0.5], ps=[0.9])
        assert len(records) == 2
        ten = next(r for r in records if r["N"] == 10)
        assert ten["xi_exact"] == pytest.approx(
            stats.false_negative_exact(10, 0.5, 0.9), rel=1e-12
        )
        assert ten["sandwich_ok"]
        one = next(r for r in records if r["N"] == 1)
        assert one["upper_ok"] and not one["lower_ok"]  # documented caveat
        assert not one["threshold_aligned"]
        assert "xi_exact" in meta

    def test_default_grid_shape(self):
        records, _ = harness.run_bounds_sweep([5])
        alphas = sorted({r["alpha"] for r in records})
        assert alphas[0] == 0.05 and alphas[-1] == 0.95
        for rec in records:
            assert rec["alpha"] < rec["p"] <= 0.99

    def test_upper_holds_everywhere(self):
        records, _ = harness.run_bounds_sweep([1, 3, 17, 60])
        assert all(r["upper_ok"] for r in records)

    def test_lower_holds_on_aligned(self):
        records, _ = harness.run_bounds_sweep(list(range(1, 41)))
        aligned = [r for r in records if r["threshold_aligned"]]
        assert aligned and all(r["lower_ok"] for r in aligned)


class TestLemma1:
    def test_values(self):
        (rec,), _ = harness.run_lemma1_example()
        assert rec["kl"] == pytest.approx(0.5108, abs=1e-4)
        assert rec["gamma_tilde"] == pytest.approx(0.7746, abs=5e-3)
        assert rec["n_gamma"] == pytest.approx(0.5, abs=1e-9)
        assert rec["sharpness_error"] < 1e-12


class TestScalingCurves:
    def test_ratios_approach_eight(self):
        n_list = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
        records, _ = harness.run_scaling_curves(n_list, gamma=0.1, eps=1.0)
        for rec in records:
            if rec["n"] >= 128:  # ratio vs the n >= 64 predecessor
                assert 7.0 <= rec["N_eq2_ratio"] <= 9.0
            if rec["n"] > 4:
                assert rec["thm1_ratio"] == 64.0

    def test_thm1_ratio_follows_non_doubling_list(self):
        records, _ = harness.run_scaling_curves([4, 16, 32], gamma=0.1, eps=1.0)
        ratios = [rec["thm1_ratio"] for rec in records]
        assert math.isnan(ratios[0]) and ratios[1:] == [4096.0, 64.0]
        assert records[1]["thm1_curve"] / records[0]["thm1_curve"] == pytest.approx(
            4096.0, rel=1e-12
        )

    def test_naive_total_quadratic(self):
        records, _ = harness.run_scaling_curves([4, 8], gamma=0.1, eps=1.0)
        per_pair = records[0]["naive_per_pair_N"]
        assert records[0]["naive_total_queries"] == 6 * per_pair
        assert records[1]["naive_total_queries"] == 28 * per_pair

    def test_alpha_multi_column(self):
        records, _ = harness.run_scaling_curves([4], gamma=0.5, eps=math.sqrt(2))
        assert records[0]["alpha_multi"] == pytest.approx(0.125)

    def test_growth_exponent_near_three_per_doubling(self):
        records, _ = harness.run_scaling_curves([64, 128, 256], gamma=0.1, eps=1.0)
        for rec in records[1:]:
            assert rec["N_eq2_growth_exponent"] == pytest.approx(3.0, abs=0.1)

    def test_growth_exponent_follows_non_doubling_list(self):
        records, _ = harness.run_scaling_curves([4, 16, 32], gamma=0.1, eps=1.0)
        quadrupled = records[1]
        assert quadrupled["N_eq2_growth_exponent"] == pytest.approx(
            math.log(quadrupled["N_eq2_ratio"]) / math.log(4), rel=1e-12
        )
        assert quadrupled["N_eq2_growth_exponent"] == pytest.approx(3.17, abs=0.01)

    def test_growth_exponent_bytes_unchanged_on_doubling_list(self):
        # on a doubling list the exponent is log2 of the ratio, as it always was
        records, _ = harness.run_scaling_curves([4, 8, 16], gamma=0.1, eps=1.0)
        log2_ratio = [
            dict(rec, N_eq2_growth_exponent=math.log2(rec["N_eq2_ratio"])) for rec in records
        ]
        log2_ratio[0]["N_eq2_growth_exponent"] = float("nan")
        written, expected = io.StringIO(), io.StringIO()
        harness.write_records(records, written)
        harness.write_records(log2_ratio, expected)
        assert written.getvalue() == expected.getvalue()


class TestGatecount:
    def test_worked_rows(self):
        records, _ = harness.run_gatecount_report([8, 16], w=1)
        by_n = {r["n"]: r for r in records}
        assert by_n[8]["un_cswaps"] == 9
        assert by_n[8]["full_cswaps"] == 10
        assert by_n[8]["naive_cswaps_per_round"] == 28
        assert by_n[16]["un_cswaps"] == 21
        assert by_n[16]["un_mid_ancillas"] == 9
        assert by_n[16]["full_ancillas"] == 10

    def test_w2(self):
        records, _ = harness.run_gatecount_report([4], w=2)
        assert records[0]["un_cswaps"] == 6

    def test_recount_equals_formula(self):
        records, _ = harness.run_gatecount_report([4, 8, 16, 32], w=3)
        assert all(r["counts_match_formula"] for r in records)


class TestEgraphTrial:
    @pytest.fixture
    def cloud_csv(self, tmp_path):
        path = tmp_path / "cloud.csv"
        angles = [math.radians(12 * k) for k in range(6)]
        rows = "\n".join(f"{math.cos(a)!r},{math.sin(a)!r}" for a in angles)
        path.write_text(rows + "\n")
        return path

    def test_exact_quantum_zero_diff(self, cloud_csv, tmp_path):
        out = tmp_path / "run"
        _, _, diff = harness.run_egraph_trial(
            cloud_csv, 0.7, "quantum-standard", float("inf"), 0, out
        )
        assert diff.fn_count == 0 and diff.fp_count == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["shots"] == "inf" and summary["mode"] == "quantum-standard"
        assert (out / "reference_edges.csv").exists()
        assert (out / "estimate_edges.csv").exists()
        assert (out / "estimates.csv").exists()

    def test_kdtree_zero_diff(self, cloud_csv, tmp_path):
        _, _, diff = harness.run_egraph_trial(
            cloud_csv, 0.7, "kdtree", float("inf"), 0, tmp_path / "kd"
        )
        assert diff.fn_count == 0 and diff.fp_count == 0

    def test_reproducible_bytes(self, cloud_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            harness.run_egraph_trial(cloud_csv, 0.7, "quantum-multi", 5000, 3, out)
        for name in ("reference_edges.csv", "estimate_edges.csv", "estimates.csv",
                     "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_mode(self, cloud_csv, tmp_path):
        with pytest.raises(ValueError):
            harness.run_egraph_trial(cloud_csv, 0.7, "psychic", 10, 0, tmp_path / "x")

    def test_missing_input(self, tmp_path):
        with pytest.raises(OSError):
            harness.run_egraph_trial(
                tmp_path / "nope.csv", 0.7, "brute", 10, 0, tmp_path / "y"
            )


def _oracle_rows(table, shots):
    """estimates.* records, as Python scalars, from {(i, j): (value,
    constant)}: the scalar inversion of p = constant * (1 + o^2), flagged
    ``clamped`` when a sampled entry's raw inversion leaves [0, 1]."""
    rows = []
    for (i, j), (value, constant) in table.items():
        p_hat = value / shots if math.isfinite(shots) else value
        raw = p_hat / constant - 1.0
        overlap_sq = min(1.0, max(0.0, raw))
        rows.append({
            "i": i,
            "j": j,
            "shots": shots if math.isfinite(shots) else 0,
            "hits": value if math.isfinite(shots) else 0,
            "p_hat": p_hat,
            "overlap_sq_hat": overlap_sq,
            "distance_hat": math.sqrt(2.0 * (1.0 - math.sqrt(overlap_sq))),
            "clamped": math.isfinite(shots) and not 0.0 <= raw <= 1.0,
        })
    return rows


class TestEstimatesFile:
    """The estimates.* bytes of an egraph unit against rows rebuilt from the
    state-vector oracles and written by write_records."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "mode,shots", [("quantum-standard", 500), ("quantum-multi", math.inf)]
    )
    def test_bytes_match_oracle_rows(self, tmp_path, mode, shots, fmt):
        angles = [math.radians(a) for a in (0, 30, 60, 90)]
        points = [[math.cos(a), math.sin(a)] for a in angles]
        path = tmp_path / "cloud.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points))
        cloud = egraph.load_point_cloud(path)
        if mode == "quantum-standard":
            hits = per_pair_swap_tests(cloud, shots, seed=0)
            table = {pair: (value, 0.5) for pair, value in hits.items()}
        else:
            table = multi_pair_probabilities(cloud)
            for (i, j), (p, constant) in table.items():
                overlap_sq = float(cloud.points[i] @ cloud.points[j]) ** 2
                assert p == pytest.approx(constant * (1 + overlap_sq), abs=1e-12)
        rows = _oracle_rows(table, shots)
        assert len(rows) == 6
        if math.isfinite(shots):
            assert any(row["clamped"] for row in rows)
        else:
            # the orthogonal pair rounds a hair below its constant: clipped
            # to overlap 0, but an exact entry is never flagged
            p, constant = table[0, 3]
            assert p / constant - 1.0 < 0.0
            (row,) = [row for row in rows if (row["i"], row["j"]) == (0, 3)]
            assert row["clamped"] is False

        out = tmp_path / "run"
        harness.run_egraph_trial(path, 0.7, mode, shots, 0, out, fmt)
        written = out / f"estimates.{fmt}"
        expected = tmp_path / f"expected.{fmt}"
        metadata = json.loads(written.read_text())["metadata"] if fmt == "json" else {}
        harness.write_records(rows, expected, fmt, metadata)
        assert written.read_bytes() == expected.read_bytes()


class TestPairMapRunner:
    def test_rows(self):
        records, meta = harness.run_pair_map(4)
        assert len(records) == 8
        assert records[0]["outcome"] == "000"
        assert meta["nominal_constant"] == pytest.approx(0.125)
        pairs = {(min(r["i"], r["j"]), max(r["i"], r["j"])) for r in records}
        assert len(pairs) == 6
