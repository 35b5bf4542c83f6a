"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; artifacts (scaling CSVs, egraph outputs) land in pytest tmp dirs.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from oracles import build_naive_multiswap, edge_set, quantum_graph, xi_mpmath
from swaplab import circuits, egraph, harness, statevec, stats
from swaplab.cli import main as cli_main


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def ring_cloud(num, step_deg=12.0):
    angles = [math.radians(step_deg * k) for k in range(num)]
    return egraph.PointCloud(
        np.array([[math.cos(a), math.sin(a)] for a in angles])
    )


def test_criterion_1_swap_test_law():
    """Exact simulated P(0) equals (1 + |<phi|psi>|^2)/2 for 1000 random
    single-qubit pairs within 1e-12; parallel -> 1, orthogonal -> 0.5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    circuit = circuits.build_swap_test(1)
    worst = 0.0
    for _ in range(1000):
        a = statevec.make_qubit_state(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        )
        b = statevec.make_qubit_state(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        )
        state = circuits.simulate(circuit, [a, b])
        p0 = statevec.exact_marginal(state, 1)[0]
        expected = 0.5 + 0.5 * abs(statevec.inner_product(a, b)) ** 2
        worst = max(worst, abs(p0 - expected))
    phi = statevec.make_qubit_state(1.234, 0.77)
    parallel = statevec.exact_marginal(
        circuits.simulate(circuit, [phi, phi]), 1
    )[0]
    orthogonal = statevec.exact_marginal(
        circuits.simulate(
            circuit, [statevec.make_basis_state(1, 0), statevec.make_basis_state(1, 1)]
        ),
        1,
    )[0]
    elapsed = time.perf_counter() - t0
    ok = (
        worst < 1e-12
        and abs(parallel - 1.0) < 1e-12
        and abs(orthogonal - 0.5) < 1e-12
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"swap-test law: max |P(0) - theory| = {worst:.2e} over 1000 pairs, "
        f"parallel delta {abs(parallel - 1.0):.1e}, orthogonal delta "
        f"{abs(orthogonal - 0.5):.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_gate_and_ancilla_counts():
    """Recounted CSWAP/ancilla totals match 3n/2-3 and 3log2(n/2) exactly,
    width scaling is linear, and the naive battery has n(n-1)/2 circuits."""
    failures = []
    for n in (4, 8, 16, 32):
        for d in (1, 2, 3):
            circuit = circuits.build_un(n, d)
            cswaps, ancillas = circuit.cswap_count, circuit.layout.ancilla_count
            if cswaps != (3 * n // 2 - 3) * d:
                failures.append(f"U_{n} d={d} cswaps {cswaps}")
            if ancillas != 3 * int(math.log2(n / 2)):
                failures.append(f"U_{n} d={d} ancillas {ancillas}")
        battery = build_naive_multiswap(n, 1)
        if len(battery) != n * (n - 1) // 2:
            failures.append(f"naive battery n={n}: {len(battery)} circuits")
    _report(
        2,
        not failures,
        "gate/ancilla counts exact for n in {4,8,16,32}, d in {1,2,3}"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_3_joint_probability_audit():
    """Per-outcome law (1+overlap^2)/2^(d+1) within 1e-10 over 50 random
    input sets for n in {4,8}; full pair coverage; per-pair constants
    reported against the nominal 2^3/n^3."""
    t0 = time.perf_counter()
    summaries = []
    ok = True
    for n in (4, 8):
        records, _ = harness.run_eq1_audit(n, trials=50, seed=314159)
        pm = circuits.derive_pair_map(n)
        covered = {(r["i"], r["j"]) for r in records}
        ok &= covered == set(combinations(range(1, n + 1), 2))
        worst = max(r["max_outcome_delta"] for r in records)
        worst_total = max(abs(r["marginal_total"] - 1.0) for r in records)
        ok &= worst < 1e-10 and worst_total < 1e-10
        ratios = sorted({round(r["ratio_empirical_to_nominal"], 9) for r in records})
        summaries.append(
            f"n={n}: max outcome delta {worst:.1e}, c_n/nominal ratios {ratios} "
            f"(nominal 2^3/n^3 = {8 / n**3:.6f}, multiplicity-2 pairs match it)"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(3, ok, "; ".join(summaries) + f"; {elapsed:.1f}s")


def test_criterion_4_worked_sharpness_example():
    """KL(0.5||0.9) = 0.5108 +/- 1e-4, gamma_tilde = 0.7746 +/- 5e-3, and
    the lower bound equals gamma_tilde at N(gamma_tilde) within 1e-12."""
    (rec,), _ = harness.run_lemma1_example()
    ok = (
        abs(rec["kl"] - 0.5108) <= 1e-4
        and abs(rec["gamma_tilde"] - 0.7746) <= 5e-3
        and rec["sharpness_error"] <= 1e-12
    )
    _report(
        4,
        ok,
        f"KL = {rec['kl']:.6f}, gamma_tilde = {rec['gamma_tilde']:.6f}, "
        f"sharpness error = {rec['sharpness_error']:.2e}",
    )


SPOT_CELLS = [
    (1, 0.5, 0.9), (2, 0.5, 0.52), (3, 0.05, 0.99), (5, 0.25, 0.45),
    (10, 0.5, 0.9), (10, 0.9, 0.95), (20, 0.95, 0.99), (25, 0.4, 0.6),
    (40, 0.625, 0.75), (50, 0.05, 0.07), (60, 0.3, 0.9), (75, 0.15, 0.35),
    (100, 0.5, 0.9), (100, 0.95, 0.99), (137, 0.35, 0.62), (150, 0.6, 0.8),
    (180, 0.45, 0.55), (200, 0.05, 0.25), (200, 0.5, 0.52), (200, 0.95, 0.99),
]


def test_criterion_5_bound_sandwich_full_grid():
    """chernoff_lower <= xi_exact <= chernoff_upper over the full grid
    N in 1..200, alpha in {0.05..0.95}, p in {alpha+0.02..0.99}; exact tail
    validated against the arbitrary-precision oracle at 20 spot cells.

    The exact tail and the upper bound verify cleanly.  The lower-bound side
    of the sandwich is mathematically false off the integer-aligned
    threshold lattice (ceil(N(1-alpha)) > N(1-alpha) shrinks the exact tail
    below exp(-N*KL)/sqrt(2N); minimal counterexample N=1, alpha=0.5, p=0.9:
    exact 0.1 vs claimed lower bound 0.424), so this criterion fails in
    those cells and is reported honestly rather than weakened.
    """
    oracle_worst = 0.0
    for N, alpha, p in SPOT_CELLS:
        got = stats.false_negative_exact(N, alpha, p)
        want = float(xi_mpmath(N, alpha, p))
        rel = abs(got - want) / want if want else abs(got - want)
        oracle_worst = max(oracle_worst, rel)
    oracle_ok = oracle_worst <= 1e-12

    records, _ = harness.run_bounds_sweep(list(range(1, 201)))
    upper_bad = [r for r in records if not r["upper_ok"]]
    lower_bad = [r for r in records if not r["lower_ok"]]
    aligned_bad = [r for r in lower_bad if r["threshold_aligned"]]
    sandwich_ok = not upper_bad and not lower_bad

    detail = (
        f"oracle check: max rel err {oracle_worst:.2e} over 20 spot cells "
        f"({'ok' if oracle_ok else 'FAILED'}); grid {len(records)} cells: "
        f"upper bound violated in {len(upper_bad)}, lower bound violated in "
        f"{len(lower_bad)} (of which {len(aligned_bad)} integer-aligned); "
        "lower-bound failures occur exactly off the aligned threshold "
        "lattice, e.g. N=1 alpha=0.5 p=0.9: exact 0.1 < bound 0.424"
    )
    _report(5, oracle_ok and sandwich_ok, detail)


def test_criterion_6_monte_carlo_agreement():
    """Empirical false-negative frequency at (N=10, alpha=0.5, p=0.9) over
    10^6 seeded repetitions matches the exact tail within 4 sigma."""
    # the simulated swap test realizes p = 0.9 for overlap_sq = 0.8
    a = statevec.make_qubit_state(0.0, 0.0)
    b = statevec.make_qubit_state(2 * math.acos(math.sqrt(0.8)), 0.0)
    state = circuits.simulate(circuits.build_swap_test(1), [a, b])
    p0 = statevec.exact_marginal(state, 1)[0]
    circuit_ok = abs(p0 - 0.9) < 1e-12

    xi = stats.false_negative_exact(10, 0.5, 0.9)
    reps = 10**6
    rng = np.random.default_rng(271828)
    failures = rng.binomial(10, 0.1, size=reps)
    threshold = stats.tail_threshold(10, 0.5)
    freq = float(np.mean(failures >= threshold))
    sigma = math.sqrt(xi * (1 - xi) / reps)
    ok = circuit_ok and abs(freq - xi) <= 4 * sigma
    _report(
        6,
        ok,
        f"freq = {freq:.6e} vs xi = {xi:.6e} (|delta| = {abs(freq - xi):.2e}, "
        f"4 sigma = {4 * sigma:.2e}); designed pair gives p = {p0:.12f}",
    )


def test_criterion_7_scaling_curves(tmp_path):
    """N(gamma=0.1) doubling ratio in [7, 9] for n >= 64 (cubic growth);
    the oracle-call curve ratio is exactly 64; both emitted as CSV."""
    n_list = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    records, meta = harness.run_scaling_curves(n_list, gamma=0.1, eps=1.0)
    out = tmp_path / "scaling.csv"
    harness.write_records(records, out, "csv", meta)
    ok = out.exists()
    ratio_report = []
    for rec in records:
        if rec["n"] >= 128:
            ratio_report.append((rec["n"], rec["N_eq2_ratio"]))
            ok &= 7.0 <= rec["N_eq2_ratio"] <= 9.0
        if rec["n"] > 4:
            ok &= rec["thm1_ratio"] == 64.0
    exponents = [
        f"{rec['N_eq2_growth_exponent']:.3f}" for rec in records if rec["n"] >= 128
    ]
    _report(
        7,
        ok,
        f"N(2n)/N(n) for n >= 64: {[(n, round(r, 3)) for n, r in ratio_report]}, "
        f"empirical growth exponents per doubling {exponents} (the stated "
        f"1/ln(n) refinement is emitted for comparison, not asserted); "
        f"CSV at {out}",
    )


def test_criterion_8_kdtree_oracle_equivalence():
    """kd-tree edge sets equal brute force on 20 seeded clouds (n=1000,
    dim in {2,3,5}, three eps regimes each), within 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    mismatches = 0
    graphs = 0
    for c in range(20):
        dim = [2, 3, 5][c % 3]
        pts = rng.uniform(0, 1, (1000, dim))
        cloud = egraph.PointCloud(pts)
        flat = np.sort(pdist(pts))
        for q in (0.005, 0.05, 0.20):
            k = int(q * flat.size)
            eps = (flat[k] + flat[k + 1]) / 2  # mid-gap: margin >> float noise
            if eps <= flat[k]:
                k += 1
                eps = (flat[k] + flat[k + 1]) / 2
            bf = egraph.brute_force_egraph(cloud, eps)
            kd = egraph.kdtree_egraph(cloud, eps)
            graphs += 1
            mismatches += edge_set(bf) != edge_set(kd)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        8,
        ok,
        f"{graphs} graphs compared, {mismatches} edge-set mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_end_to_end_quantum_egraph():
    """8-point unit-norm cloud: exact-mode recovery in every quantum mode,
    and finite-shot standard-mode false-negative rate <= 0.1 + 4 sigma."""
    cloud = ring_cloud(8)
    eps = 0.7
    reference = egraph.brute_force_egraph(cloud, eps)
    margins = [
        abs(float(np.linalg.norm(cloud.points[i] - cloud.points[j])) - eps)
        for i, j in combinations(range(8), 2)
    ]
    exact_ok = min(margins) >= 1e-3
    mode_results = {}
    for mode in ("standard", "naive", "multi"):
        graph, _ = quantum_graph(cloud, eps, egraph.EXACT_SHOTS, mode, 0)
        mode_results[mode] = edge_set(graph) == edge_set(reference)
        exact_ok &= mode_results[mode]

    # designed neighbour pair (12-degree ring indices 0 and 2, 24 degrees apart)
    alpha = stats.alpha_eps_standard(eps)
    a = egraph.encode_point(cloud.points[0])
    b = egraph.encode_point(cloud.points[2])
    state = circuits.simulate(circuits.build_swap_test(1), [a, b])
    p_pair = statevec.exact_marginal(state, 1)[0]
    assert p_pair > alpha  # a true neighbour
    N = math.ceil(stats.n_gamma(0.1, alpha, p_pair))
    trials = 10**4
    fn = 0
    for stream in np.random.SeedSequence(987654).spawn(trials):
        counts = statevec.sample_outcomes(state, 1, N, np.random.default_rng(stream))
        fn += (counts[0] / N) <= alpha
    rate = fn / trials
    bound = 0.1 + 4 * math.sqrt(0.1 * 0.9 / trials)
    rate_ok = rate <= bound
    _report(
        9,
        exact_ok and rate_ok,
        f"exact-mode recovery: {mode_results} (min distance margin "
        f"{min(margins):.3f}); finite-shot N={N}: FN rate {rate:.4f} <= "
        f"{bound:.4f}",
    )


def test_criterion_10_determinism(tmp_path):
    """Rerunning harness subcommands with the same config and seed produces
    byte-identical outputs."""
    cloud = tmp_path / "cloud.csv"
    angles = [math.radians(12 * k) for k in range(6)]
    cloud.write_text(
        "\n".join(f"{math.cos(a)!r},{math.sin(a)!r}" for a in angles) + "\n"
    )
    checked = []
    ok = True
    jobs = [
        ("bounds", ["bounds", "--n-list", "1..30", "--format", "csv"]),
        ("eq1-audit", ["eq1-audit", "--n", "4", "--trials", "5", "--seed", "42",
                       "--format", "json"]),
        ("scaling", ["scaling", "--n-list", "4,8,16,32", "--format", "csv"]),
    ]
    for name, args in jobs:
        out1 = tmp_path / f"{name}-1.out"
        out2 = tmp_path / f"{name}-2.out"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        same = out1.read_bytes() == out2.read_bytes()
        checked.append((name, same))
        ok &= same
    for rerun in ("ega", "egb"):
        assert cli_main([
            "egraph", "--points", str(cloud), "--eps", "0.7",
            "--mode", "quantum-multi", "--shots", "20000", "--seed", "5",
            "--out", str(tmp_path / rerun),
        ]) == 0
    for fname in ("reference_edges.csv", "estimate_edges.csv",
                  "estimates.csv", "summary.json"):
        same = (
            (tmp_path / "ega" / fname).read_bytes()
            == (tmp_path / "egb" / fname).read_bytes()
        )
        checked.append((f"egraph/{fname}", same))
        ok &= same
    _report(10, ok, f"byte-identical reruns: {checked}")
