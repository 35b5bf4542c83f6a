import csv
import io
import json
import math
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from swaplab import circuits, egraph, harness, stats
from swaplab.statevec import ResourceError

from oracles import (
    chernoff_upper,
    edge_set,
    multi_pair_probabilities,
    per_pair_swap_tests,
    quantum_graph,
)


def split(columns, *cuts):
    """The table ``columns`` as an iterator of column mappings, cut before
    each row of ``cuts``."""
    bounds = [0, *cuts, len(next(iter(columns.values())))]
    return iter([{k: v[a:b] for k, v in columns.items()}
                 for a, b in zip(bounds, bounds[1:])])


def cell_by_cell(columns, fmt, metadata):
    """A table's bytes by the per-cell rules: csv.writer over _fmt_cell, or
    json.dump(indent=2) over one _jsonable dict per row."""
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    want = io.StringIO(newline="")
    if fmt == "csv":
        writer = csv.writer(want)
        writer.writerow(columns)
        for rec in rows:
            writer.writerow([harness._fmt_cell(v) for v in rec.values()])
    else:
        records = [{k: harness._jsonable(v) for k, v in rec.items()} for rec in rows]
        json.dump({"metadata": metadata, "records": records}, want, indent=2)
        want.write("\n")
    return want.getvalue()


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
        # csv.writer quotes a lone empty field: a None, a NaN in a float
        # list, and an all-NaN numpy column, which is one literal per row
        for table, want in [
            ([{"x": None}, {"x": 1.0}], 'x\r\n""\r\n1\r\n'),
            ({"x": [1.5, math.nan]}, 'x\r\n1.5\r\n""\r\n'),
            ({"x": np.full(3, math.nan)}, 'x\r\n""\r\n""\r\n""\r\n'),
        ]:
            got = io.StringIO(newline="")
            harness.write_records(table, got)
            assert got.getvalue() == want

    @pytest.mark.parametrize(
        "records,problem",
        [
            ([{"a": 1}, {"a": 2, "b": 3}], r"record 1 .* extra \['b'\], missing \[\]"),
            ([{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"b": 5}],
             r"record 2 .* extra \[\], missing \['a'\]"),
        ],
    )
    def test_csv_uneven_keys_rejected_before_writing(self, tmp_path, records, problem):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=problem):
            harness.write_records(records, path)
        assert not path.exists()
        stream = io.StringIO(newline="")
        with pytest.raises(ValueError, match=problem):
            harness.write_records(records, stream)
        assert stream.getvalue() == ""

    def test_csv_key_order_may_differ(self):
        got = io.StringIO(newline="")
        harness.write_records([{"a": 1, "b": 2}, {"b": 4, "a": 3}], got)
        assert got.getvalue() == "a,b\r\n1,2\r\n3,4\r\n"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            harness.write_records([], tmp_path / "x", "yaml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_and_columns_give_the_same_bytes(self, fmt):
        # every cell kind, against the per-cell rules: csv.writer over
        # _fmt_cell, and json.dump over one _jsonable dict per record
        columns = {
            "f": [1 / 3, math.nan, math.inf, -math.inf, -0.0],
            "b": [True, False, True, False, True],
            "i": [7, -2, 0, 10**20, 300],
            "mix": [None, 1.5, None, "z", 3],
            'q,"h"': ['a,"b"', "line\nbreak", "cr\r", "", "plain"],
        }
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        metadata = {"f": "test column"}
        want = cell_by_cell(columns, fmt, metadata)
        for table in (rows, columns, split(columns, 2, 2, 3)):
            got = io.StringIO(newline="")
            harness.write_records(table, got, fmt, metadata)
            assert got.getvalue() == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_numpy_columns_write_the_bytes_of_their_lists(self, fmt):
        # more rows than two blocks at each width, so blocks join at a row
        # boundary, and a column whose one NaN is in its last block, which
        # moves the whole column from %.17g to a field per cell
        rng = np.random.default_rng(4)
        for width in (1, 3, 8):
            n = harness._CSV_BLOCK_CELLS // width * 2 + 3
            floats = rng.uniform(-1, 1, n)
            floats[:4] = [math.nan, math.inf, -math.inf, -0.0]
            late_nan = rng.uniform(-1e300, 1e300, n)
            late_nan[-1] = math.nan
            columns = {
                "f": floats,
                "i": np.arange(n, dtype=np.int64) - 5,
                "nan": np.full(n, math.nan),
                "b": rng.uniform(size=n) < 0.5,
                "late_nan": late_nan,
                "u": np.arange(n, dtype=np.uint32),
                "tiny": rng.uniform(size=n) * 5e-324,
                "inf": np.full(n, -math.inf),
            }
            columns = dict(list(columns.items())[:width])
            lists = {k: v.tolist() for k, v in columns.items()}
            want = cell_by_cell(lists, fmt, {})
            step = harness._CSV_BLOCK_CELLS // width
            for table in (lists, columns, split(columns, 1, step + 1, n - 1)):
                got = io.StringIO(newline="")
                harness.write_records(table, got, fmt)
                assert got.getvalue() == want, (width, type(table))

    def test_numpy_columns_are_converted_a_block_at_a_time(self):
        # the eight estimate columns of a 20,000-row table: as whole lists of
        # Python scalars they take about 5 MB, as one JSON dict per row about
        # 10 MiB; block by block CSV peaks near 0.35 MiB and JSON near 1.7 MiB
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        rows = 20_000
        rng = np.random.default_rng(5)
        columns = {
            "i": np.arange(rows), "j": np.arange(rows) + 1,
            "shots": np.full(rows, 1000), "hits": rng.integers(0, 1000, rows),
            "p_hat": rng.uniform(size=rows), "overlap_sq_hat": rng.uniform(size=rows),
            "distance_hat": rng.uniform(size=rows), "clamped": rng.uniform(size=rows) < 0.1,
        }
        for fmt, bound in (("csv", 512 * 1024), ("json", 4 * 1024 * 1024)):
            sink = Sink()
            tracemalloc.start()
            try:
                harness.write_records(columns, sink, fmt)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sink.size > 80 * rows
            assert peak < bound, fmt

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_tables(self, fmt):
        # no rows: CSV writes a mapping's header only (an iterator of no
        # mappings has none), JSON an empty list under the metadata; rows
        # with no keys, in one block or more: CSV writes nothing, JSON each
        # row as {}; both as json.dump does
        metadata = {"nested": {"a": [1, 2]}, "s": "x\ny"}
        keyless = [{}] * (harness._CSV_BLOCK_CELLS + 1)
        cases = [([], None, ""), (iter([]), None, ""),
                 ({"a": [], "b": np.zeros(0)}, metadata, "a,b\r\n"),
                 ([{}, {}], None, ""), (keyless, metadata, "")]
        for table, meta, csv_text in cases:
            got = io.StringIO(newline="")
            harness.write_records(table, got, fmt, meta)
            if fmt == "csv":
                assert got.getvalue() == csv_text
            else:
                rows = table if isinstance(table, list) else []
                want = json.dumps({"metadata": meta or {}, "records": rows}, indent=2)
                assert got.getvalue() == want + "\n", len(rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unequal_columns_rejected_before_writing(self, tmp_path, fmt):
        path = tmp_path / f"out.{fmt}"
        table = {"a": [1, 2], "b": [3, 4], "c": [5]}
        with pytest.raises(ValueError, match=r"column 'c' has 1 entries, but column 'a' has 2"):
            harness.write_records(table, path, fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streamed_table_checked_before_its_rows(self, fmt):
        got = io.StringIO(newline="")
        tables = iter([{"a": [1], "b": [2]}, {"a": [3, 4], "b": [5]}])
        with pytest.raises(ValueError, match=r"column 'b' has 1 entries, but column 'a' has 2"):
            harness.write_records(tables, got, fmt)
        assert "3" not in got.getvalue() and "2" in got.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("later", [{"b": [3], "a": [4]}, {"x": [5.5]},
                                       {"a": [3], "b": [4], "c": [5]}])
    def test_streamed_table_keys_checked_before_its_rows(self, fmt, later):
        # a later mapping's columns would land under the first one's header
        got = io.StringIO(newline="")
        tables = iter([{"a": [1], "b": [2]}, later])
        named = (f"{fmt.upper()} table 1 has the columns {list(later)}, "
                 f"but table 0 has ['a', 'b']")
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            harness.write_records(tables, got, fmt)
        assert not {"3", "4", "5"} & set(got.getvalue()) and "2" in got.getvalue()

    def test_json_uneven_keys_rejected_before_writing(self):
        stream = io.StringIO()
        with pytest.raises(ValueError, match=r"JSON record 1 .* extra \['b'\], missing \[\]"):
            harness.write_records([{"a": 1}, {"a": 2, "b": 3}], stream, "json")
        assert stream.getvalue() == ""


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

    def test_one_state_at_a_time(self, monkeypatch):
        # at 26 qubits a state is 1 GiB: no trial's state may still be alive
        # while the next trial simulates
        simulate = circuits.simulate
        returned = []

        def spy(circuit, inputs):
            assert all(ref() is None for ref in returned)
            state = simulate(circuit, inputs)
            returned.append(weakref.ref(state))
            return state

        monkeypatch.setattr(circuits, "simulate", spy)
        harness.run_eq1_audit(4, trials=3, seed=2)
        assert len(returned) == 3


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

    @pytest.mark.parametrize(
        "n_values,ps,named",
        [
            ([1, 2, 0], None, "N must be a whole number >= 1, got 0"),
            ([3, 2.5], None, "got 2.5"),
            ([math.nan], None, "got nan"),
            ([4], [0.9, 1.5], "p must lie in (0, 1), got 1.5"),
            ([4], [math.nan, 0.9], "p must lie in (0, 1), got nan"),
        ],
    )
    def test_bad_value_rejected_before_first_cell(self, monkeypatch, n_values, ps,
                                                  named):
        cells = []
        monkeypatch.setattr(stats, "false_negative_exact",
                            lambda *args: cells.append(args) or 0.0)
        with pytest.raises(ValueError, match=re.escape(named)):
            harness.run_bounds_sweep(n_values, [0.5], ps)
        assert not cells

    def test_grids_taken_as_any_iterable(self):
        lists, _ = harness.run_bounds_sweep([3, 10], [0.5], [0.7, 0.9])
        arrays, _ = harness.run_bounds_sweep(
            np.array([3, 10]), np.array([0.5]), np.array([0.7, 0.9]))
        once, _ = harness.run_bounds_sweep(
            (N for N in [3, 10]), (a for a in [0.5]), (p for p in [0.7, 0.9]))
        assert arrays == lists and once == lists and len(lists) == 4
        assert type(arrays[0]["N"]) is int

    def test_default_grid_shape(self):
        records, _ = harness.run_bounds_sweep([5])
        alphas = sorted({r["alpha"] for r in records})
        assert alphas[0] == 0.05 and alphas[-1] == 0.95
        for rec in records:
            assert rec["alpha"] < rec["p"] <= 0.99

    def test_upper_holds_everywhere(self):
        records, _ = harness.run_bounds_sweep([1, 3, 17, 60])
        assert all(r["upper_ok"] for r in records)

    def test_threshold_aligned_once_per_n_and_alpha(self, monkeypatch):
        calls = []
        aligned = stats.threshold_aligned
        monkeypatch.setattr(stats, "threshold_aligned", lambda N, alpha: (
            calls.append((N, alpha)) or aligned(N, alpha)))
        records, _ = harness.run_bounds_sweep([3, 10], [0.3, 0.5], [0.6, 0.8, 0.9])
        assert len(records) == 12
        assert sorted(calls) == [(3, 0.3), (3, 0.5), (10, 0.3), (10, 0.5)]
        flags = [r["threshold_aligned"] for r in records]
        assert flags == [aligned(r["N"], r["alpha"]) for r in records]
        assert flags == [False] * 6 + [True] * 6

    def test_kl_once_per_alpha_and_p(self, monkeypatch):
        calls = []
        kl = stats.kl_bernoulli
        monkeypatch.setattr(stats, "kl_bernoulli", lambda alpha, p: (
            calls.append((alpha, p)) or kl(alpha, p)))
        records, _ = harness.run_bounds_sweep([3, 10, 60], [0.3, 0.5], [0.6, 0.9])
        assert len(records) == 12
        assert sorted(calls) == [(0.3, 0.6), (0.3, 0.9), (0.5, 0.6), (0.5, 0.9)]
        for r in records:
            assert r["kl"] == kl(r["alpha"], r["p"])
            assert r["upper"] == chernoff_upper(r["N"], r["alpha"], r["p"])
            assert r["lower"] == stats.chernoff_lower(r["N"], r["alpha"], r["p"])

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

    def test_repeated_n_writes_nan_exponent(self):
        records, _ = harness.run_scaling_curves([4, 4, 8, 8], gamma=0.1, eps=1.0)
        exponents = [rec["N_eq2_growth_exponent"] for rec in records]
        assert math.isnan(exponents[0]) and math.isnan(exponents[1])
        assert math.isnan(exponents[3])
        doubling, _ = harness.run_scaling_curves([4, 8], gamma=0.1, eps=1.0)
        assert exponents[2] == doubling[1]["N_eq2_growth_exponent"]
        assert [rec["N_eq2_ratio"] for rec in records][1::2] == [1.0, 1.0]


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

    @pytest.mark.parametrize(
        "n_list,error,problem",
        [
            ([4, 2**23], ResourceError,
             "building U_n and the full circuit for n=8388608, w=1 needs"),
            ([4, 6], ValueError, "power of two >= 4, got 6"),
            ([8, 2], ValueError, "power of two >= 4, got 2"),
        ],
    )
    def test_every_n_checked_before_any_build(self, monkeypatch, n_list, error, problem):
        builds = []
        for name in ("build_un", "build_multiswap_full", "build_swap_test"):
            monkeypatch.setattr(circuits, name, lambda *a, name=name: builds.append(name))
        with pytest.raises(error, match=problem):
            harness.run_gatecount_report(n_list)
        assert builds == []

    def test_battery_over_byte_ceiling_not_built(self, monkeypatch):
        # 2^14 inputs would make 134 million battery entries, about 16 GB;
        # the report counts them from one swap test, so only U_n and the full
        # circuit are built, and 2^23 inputs are refused for those alone
        monkeypatch.setattr(circuits, "combinations",
                            lambda *args: pytest.fail("battery built"))
        (record,), _ = harness.run_gatecount_report([2**14])
        assert record["naive_circuits"] == 2**14 * (2**14 - 1) // 2
        named = (f"building U_n and the full circuit for n={2**23}, w=1 needs "
                 f"{3 * 2**23 * harness._GATE_BYTES} bytes, over the ceiling of {2**32} bytes")
        with pytest.raises(ResourceError, match=f"^{named}$"):
            harness.run_gatecount_report([2**23])


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

    @pytest.mark.parametrize("shots", [math.inf, 1000])
    def test_peak_within_the_edges_and_one_tile(self, tmp_path, monkeypatch, shots):
        # 150 unit vectors within 30 degrees: at eps = sqrt(2) every pair is
        # an edge of both graphs, so the trial holds every list at its
        # longest, over 19 tiles of 8 rows
        n, pairs = 150, 11175
        monkeypatch.setattr(egraph, "_TILE_ELEMENTS", 8 * n)
        assert len(egraph._row_tiles(n)) == 19
        angles = np.linspace(0.0, math.radians(30), n)
        cloud = write_cloud(tmp_path / "cloud.csv",
                            np.column_stack([np.cos(angles), np.sin(angles)]).tolist())
        np.random.default_rng()  # numpy imports its random module, 0.7 MB, on first use
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reference, estimate, _ = harness.run_egraph_trial(
                cloud, math.sqrt(2), "quantum-standard", shots, 0, tmp_path / "out"
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert reference.codes.size == estimate.codes.size == pairs
        # 48 bytes an edge: both graphs' codes and the kept distances, 8
        # each, and the three columns of the edge list being written; 256
        # KiB for one tile of at most 1,200 Gram entries, or one block of
        # formatted rows (measured: 706-719 kB in all)
        assert peak <= 48 * pairs + 2**18

    @pytest.mark.parametrize("mode", ["brute", "kdtree"])
    def test_peak_within_the_edge_bytes(self, tmp_path, mode):
        # 300 points in the unit square, every pair an edge at eps = 2
        # (measured: 40 bytes an edge in brute mode, 77 in kdtree mode)
        n, pairs = 300, 44850
        points = np.random.default_rng(300).uniform(0, 1, (n, 2)).tolist()
        cloud = write_cloud(tmp_path / "cloud.csv", points)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, estimate, _ = harness.run_egraph_trial(
                cloud, 2.0, mode, math.inf, 0, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert estimate.codes.size == pairs
        assert peak <= pairs * egraph._EDGE_BYTES

    def test_unknown_mode(self, cloud_csv, tmp_path):
        with pytest.raises(ValueError):
            harness.run_egraph_trial(cloud_csv, 0.7, "psychic", 10, 0, tmp_path / "x")

    def test_missing_input(self, tmp_path):
        with pytest.raises(OSError):
            harness.run_egraph_trial(
                tmp_path / "nope.csv", 0.7, "brute", 10, 0, tmp_path / "y"
            )


def csv_edge_list(rows):
    """The edge-list bytes that the csv module writes for ``rows``."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["i", "j", "distance_estimate"], *rows])
    return buf.getvalue().encode()


def write_cloud(path, points):
    path.write_text("".join(",".join(map(repr, p)) + "\n" for p in points))
    return path


class TestEdgeListOutput:
    """reference_edges.csv and estimate_edges.csv, which write_records
    writes from the columns _edge_columns decodes from a graph."""

    def test_classical_rows_have_empty_estimate(self, tmp_path):
        # (0, 1) and (1, 2) are at distance 1, (0, 2) at 2
        cloud = write_cloud(tmp_path / "cloud.csv", [[0.0], [1.0], [2.0]])
        harness.run_egraph_trial(cloud, 1.5, "kdtree", math.inf, 0, tmp_path)
        want = b"i,j,distance_estimate\r\n0,1,\r\n1,2,\r\n"
        assert want == csv_edge_list([[0, 1, ""], [1, 2, ""]])
        for name in ("reference_edges.csv", "estimate_edges.csv"):
            assert (tmp_path / name).read_bytes() == want

    def test_empty_graph(self, tmp_path):
        cloud = write_cloud(tmp_path / "cloud.csv", [[0.0], [1.0], [2.0], [3.0]])
        harness.run_egraph_trial(cloud, 0.5, "brute", math.inf, 0, tmp_path)
        for name in ("reference_edges.csv", "estimate_edges.csv"):
            assert (tmp_path / name).read_bytes() == b"i,j,distance_estimate\r\n"

    def test_edge_list_spans_blocks(self, tmp_path):
        # a clique of more edges than two blocks of three-column rows
        rows = harness._CSV_BLOCK_CELLS // 3
        n = math.ceil(math.sqrt(4 * rows)) + 2
        assert n * (n - 1) // 2 > 2 * rows
        points = [[k / n, 0.0] for k in range(n)]
        cloud = write_cloud(tmp_path / "cloud.csv", points)
        reference, _, _ = harness.run_egraph_trial(
            cloud, 2.0, "kdtree", math.inf, 0, tmp_path
        )
        want = csv_edge_list([[i, j, ""] for i, j in sorted(edge_set(reference))])
        assert len(edge_set(reference)) == n * (n - 1) // 2
        assert (tmp_path / "estimate_edges.csv").read_bytes() == want

    @pytest.mark.parametrize("mode", ["kdtree", "brute"])
    def test_classical_estimate_list_is_the_reference_bytes(self, tmp_path,
                                                            monkeypatch, mode):
        # the estimate has the reference's edges and no estimate table, so
        # one edge list is formatted and the other file gets its bytes
        rng = np.random.default_rng(3)
        cloud = write_cloud(tmp_path / "cloud.csv", rng.uniform(0, 1, (200, 2)).tolist())
        written = []
        write_records = harness.write_records

        def spy(records, path_or_file, *args, **kwargs):
            written.append(os.path.basename(path_or_file))
            return write_records(records, path_or_file, *args, **kwargs)

        monkeypatch.setattr(harness, "write_records", spy)
        out = tmp_path / "out"
        reference, _, _ = harness.run_egraph_trial(cloud, 0.1, mode, math.inf, 0, out)
        assert written == ["reference_edges.csv"]
        want = csv_edge_list([[i, j, ""] for i, j in sorted(edge_set(reference))])
        assert len(edge_set(reference)) > 100
        assert (out / "reference_edges.csv").read_bytes() == want
        assert (out / "estimate_edges.csv").read_bytes() == want

    def test_kdtree_estimate_without_an_edge_writes_its_own_list(self, tmp_path,
                                                                 monkeypatch):
        kdtree_egraph = egraph.kdtree_egraph

        def drop_first_edge(cloud, eps):
            graph = kdtree_egraph(cloud, eps)
            return egraph.EpsilonGraph(graph.n, eps, graph.codes[1:])

        monkeypatch.setattr(egraph, "kdtree_egraph", drop_first_edge)
        # (0, 1), (1, 2) and (2, 3) are at distance 1, the other pairs farther
        cloud = write_cloud(tmp_path / "cloud.csv", [[0.0], [1.0], [2.0], [3.0]])
        _, _, diff = harness.run_egraph_trial(cloud, 1.5, "kdtree", math.inf, 0, tmp_path)
        assert diff.false_negatives.tolist() == [1] and diff.fp_count == 0
        assert json.loads((tmp_path / "summary.json").read_text())["fn_count"] == 1
        assert (tmp_path / "reference_edges.csv").read_bytes() == csv_edge_list(
            [[0, 1, ""], [1, 2, ""], [2, 3, ""]])
        assert (tmp_path / "estimate_edges.csv").read_bytes() == csv_edge_list(
            [[1, 2, ""], [2, 3, ""]])

    def test_quantum_rows_carry_estimates(self, tmp_path):
        # six unit vectors 12 degrees apart; eps between the 24- and
        # 36-degree chords, so some pairs are not edges
        angles = [math.radians(12 * k) for k in range(6)]
        cloud = write_cloud(tmp_path / "cloud.csv",
                            [[math.cos(a), math.sin(a)] for a in angles])
        _, graph, _ = harness.run_egraph_trial(
            cloud, 0.5, "quantum-standard", math.inf, 0, tmp_path
        )
        _, estimates = quantum_graph(
            egraph.load_point_cloud(cloud), 0.5, math.inf, "standard", 0
        )
        distance = dict(
            zip(zip(*np.triu_indices(6, 1)), estimates.distance_hat.tolist())
        )
        rows = [[i, j, f"{distance[i, j]:.17g}"] for i, j in sorted(edge_set(graph))]
        assert 0 < len(rows) < len(distance)
        assert (tmp_path / "estimate_edges.csv").read_bytes() == csv_edge_list(rows)


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
        # seed 3's draw clamps a sampled row, which the rows must cover
        seed = 3
        if mode == "quantum-standard":
            hits = per_pair_swap_tests(cloud, shots, seed)
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
        harness.run_egraph_trial(path, 0.7, mode, shots, seed, out, fmt)
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
