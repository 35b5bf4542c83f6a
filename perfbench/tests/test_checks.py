"""Each output check accepts swaplab's real output and rejects a corrupted
copy; the tracer's span trees are rooted at cli.main and add up.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import swaplab  # noqa: E402
import swaplab.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(unit):
    with contextlib.redirect_stdout(io.StringIO()):
        assert swaplab.cli.main(list(unit.argv)) == 0


def _edit_lines(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


def _egraph(tmp_path, mode, shots, n=40, dim=2):
    for sub in ("in", "out"):
        os.makedirs(tmp_path / sub, exist_ok=True)
    rng = np.random.default_rng(5)
    if mode == "kdtree":
        pts = rng.uniform(0, 1, (n, dim))
        eps = workloads._mid_gap_eps(pts, 0.2)
    else:
        pts, eps = workloads._unit_cloud(rng, n, dim, 0.2, 0.4)
    unit = workloads._egraph_unit(str(tmp_path), f"u_{mode}", pts, eps, mode, shots, 7, (1.0, 0.0))
    _run(unit)
    return unit


def _bounds(tmp_path, N=6):
    out = str(tmp_path / "b.csv")
    unit = workloads.Unit("b", ("bounds", "--n-list", str(N), "--out", out), out,
                          {"kind": "bounds", "n_values": [N], "sample_seed": 3})
    _run(unit)
    return unit


@pytest.mark.parametrize("mode,shots", [("kdtree", None), ("quantum-standard", "inf"),
                                        ("quantum-multi", "inf")])
def test_dropped_edge_is_rejected(tmp_path, mode, shots):
    unit = _egraph(tmp_path, mode, shots, n=6 if mode == "quantum-multi" else 40)
    assert checks.check(unit, {}) == []
    for name in ("reference_edges.csv", "estimate_edges.csv"):
        path = os.path.join(unit.out, name)
        with open(path) as fh:
            original = fh.read()
        _edit_lines(path, lambda lines: lines[:1] + lines[2:])
        assert checks.check(unit, {}), name
        with open(path, "w") as fh:
            fh.write(original)
    assert checks.check(unit, {}) == []


def test_sampled_error_count_outside_four_sigma_is_rejected(tmp_path):
    unit = _egraph(tmp_path, "quantum-standard", 1000)
    assert checks.check(unit, {}) == []
    pmf = checks.error_count_pmf(unit)
    assert pmf.min() >= 0 and pmf.sum() == pytest.approx(1.0, abs=1e-12)
    n = len(unit.spec["points"])
    # every pair declared an edge, with the summary kept consistent
    path = os.path.join(unit.out, "estimate_edges.csv")
    _edit_lines(path, lambda lines: lines[:1] + [f"{i},{j},0.1\n" for i in range(n)
                                                 for j in range(i + 1, n)])
    reference = checks.oracle_edges(unit.spec["points"], unit.spec["eps"])
    summary_path = os.path.join(unit.out, "summary.json")
    with open(summary_path) as fh:
        summary = json.load(fh)
    summary.update(fn_count=0, fp_count=n * (n - 1) // 2 - reference.size)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    assert any("wrong decisions" in p for p in checks.check(unit, {}))


def test_summary_counts_must_match_edge_lists(tmp_path):
    unit = _egraph(tmp_path, "quantum-naive", 1000)
    path = os.path.join(unit.out, "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["fn_count"] += 1
    with open(path, "w") as fh:
        json.dump(summary, fh)
    assert any("summary fn/fp" in p for p in checks.check(unit, {}))


def test_bounds_corruptions_are_rejected(tmp_path):
    unit = _bounds(tmp_path)
    cache = {}
    assert checks.check(unit, cache) == []
    with open(unit.out) as fh:
        original = fh.read()
    row = cache["b"]["rows"][0] + 1  # line index of a sampled row

    def perturb_xi(lines):
        cells = lines[row].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-9))
        lines[row] = ",".join(cells)
        return lines

    def upper_not_ok(lines):
        lines[1] = lines[1].replace("true", "false", 1)
        return lines

    for edit in (perturb_xi, upper_not_ok, lambda lines: lines[:-1]):
        _edit_lines(unit.out, edit)
        assert checks.check(unit, cache), edit
        with open(unit.out, "w") as fh:
            fh.write(original)
    assert checks.check(unit, cache) == []


def test_tail_oracle_matches_exact_rationals():
    from fractions import Fraction
    from math import comb

    N, alpha, p = 12, 0.35, 0.6
    k = checks.tail_threshold(N, alpha)
    q = 1 - Fraction(p)
    exact = sum(comb(N, i) * q**i * (1 - q) ** (N - i) for i in range(k, N + 1))
    assert checks.tail_mpmath(N, alpha, p) == pytest.approx(float(exact), rel=1e-15)
    # decimal-intent snap: 20 * (1 - 0.95) is 1, not a hair above it
    assert checks.tail_threshold(20, 0.95) == 1


def test_rerun_with_different_bytes_is_a_failure(tmp_path):
    unit = _bounds(tmp_path)
    ledger = worker.Ledger()
    assert ledger.record(unit, None)
    _edit_lines(unit.out, lambda lines: lines + [lines[-1]])
    assert not ledger.record(unit, None)  # row count and digest both off
    _run(unit)
    assert ledger.record(unit, None)
    # same values, other bytes: alpha written as 0.050 instead of 0.05
    _edit_lines(unit.out, lambda lines: lines[:1] + [lines[1].replace(",0.05,", ",0.050,", 1)]
                + lines[2:])
    cache = ledger.cache
    assert checks.check(unit, cache) == []  # content checks still pass ...
    assert not ledger.record(unit, None)  # ... but the bytes changed
    assert (ledger.attempted, ledger.failed) == (4, 2)


def test_span_trees_rooted_at_cli_main(tmp_path):
    units = [_egraph(tmp_path, "kdtree", None), _bounds(tmp_path, N=3),
             _egraph(tmp_path, "quantum-multi", 100, n=5)]
    original = swaplab.egraph.KDTree.range_query
    tracer = spans.Tracer()
    tracer.install(swaplab)
    try:
        for k, unit in enumerate(units):
            tracer.begin_unit(k)
            _run(unit)
            tracer.end_unit()
        _run(units[0])  # outside a unit: no spans
    finally:
        tracer.uninstall()
    assert swaplab.egraph.KDTree.range_query is original
    a = tracer.arrays()
    assert spans.check_trees(a, tracer.names, "cli.main") == []
    assert sorted(set(a["unit"].tolist())) == [0, 1, 2]
    names = {tracer.names[i] for i in a["name_id"]}
    assert {"egraph.KDTree.range_query", "stats.false_negative_exact",
            "statevec.apply_cswap", "harness.write_records"} <= names
    m = spans.layer_metrics(a, tracer.names, tracer.counters, len(units))
    n = len(units[0].spec["points"])
    assert m["egraph.KDTree.range_query.calls"][0] == n / 3
    assert m["stats.false_negative_exact.calls"][0] == checks.CELLS_PER_N / 3
    assert m["statevec.max_qubits"][0] == 15
    assert m["statevec.shots_drawn"][0] == 100 / 3
    module_self = sum(m[f"{mod}.self_s"][0] for mod in spans.MODULES)
    roots = a["parent"] < 0
    assert module_self == pytest.approx((a["end"] - a["start"])[roots].sum() / 3)


def test_nearest_rank_stays_in_the_slow_stratum():
    values = [0.01] * 8 + [5.0]
    for passes in (1, 2, 3, 7):
        assert run.nearest_rank(values * passes, 0.9) == 5.0
        assert run.nearest_rank(values * passes, 0.5) == 0.01


def test_unit_latency_is_its_least_time_over_passes():
    passes = [{"unit_ref_s": [0.01, 5.0, 0.02]}, {"unit_ref_s": [0.03, 7.0, 0.02]}]
    assert run.unit_latencies(passes, "unit_ref_s") == [0.01, 5.0, 0.02]


def test_reference_seconds_follow_the_probes_around_the_unit():
    py, vec = hostspeed.PROBE_REF_S, hostspeed.VECTOR_REF_S
    # the parts before and after average twice their reference times
    before, after = (1.5 * py, 3 * vec), (2.5 * py, vec)
    assert hostspeed.reference_s(3.0, before, after, (1.0, 0.0)) == pytest.approx(1.5)
    assert hostspeed.reference_s(3.0, before, after, (0.0, 1.0)) == pytest.approx(1.5)
    assert hostspeed.reference_s(3.0, before, after, (0.5, 0.5)) == pytest.approx(1.5)
    assert hostspeed.reference_s(3.0, (9 * py, vec), (py, vec), (0.0, 0.0)) == 3.0
