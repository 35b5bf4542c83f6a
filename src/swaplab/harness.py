"""Experiment runners and report writers.

Every table runner returns (records, metadata): records are flat dicts (one
per experiment unit, deterministically ordered by parameter tuple), metadata
names the source formula behind each theory column.  run_egraph_trial writes
a whole output directory instead.  CSV is the canonical output format
(header row, '.' decimal separator, 17 significant digits for reals); JSON
mirrors the records and carries the metadata.  The CLI calls each runner
with its parsed flags as keyword arguments, so a runner's keyword names are
its flags' destinations.

Reproducibility: a runner re-invoked with the same parameters and seed
produces byte-identical output files.  Per-trial RNG streams are derived
from the master seed as SeedSequence([seed, trial, ...]), so rows do not
depend on execution order.  Computational failures raise; statistical
findings (graph diffs, bound gaps) are recorded as data.
"""

from __future__ import annotations

import json
import math
import os
from typing import Sequence

import numpy as np

from . import circuits, egraph, statevec, stats

Record = dict

# write_records formats and writes CSV rows a block at a time, so the
# formatted fields of only this many rows are held at once
_CSV_BLOCK_ROWS = 256


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _csv_field(text: str) -> str:
    """csv.writer's minimal quoting: a field holding a comma, a quote or a
    line break is wrapped in quotes, with its quotes doubled."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt_column(values: list) -> list[str]:
    """The CSV fields of one column, by _fmt_cell's rules.  A column of plain
    floats, bools or ints is formatted in one comprehension; none of their
    fields needs quoting."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        # format() writes infinities as inf/-inf, _fmt_cell's spelling
        return ["" if v != v else format(v, ".17g") for v in values]
    if kinds <= {bool}:
        return ["true" if v else "false" for v in values]
    if kinds <= {int}:
        return list(map(str, values))
    return [_csv_field(_fmt_cell(v)) for v in values]


def _csv_lines(rows) -> str:
    # csv.writer quotes a lone empty field, so that the row is not blank
    return "".join((",".join(row) or '""') + "\r\n" for row in rows)


def _jsonable(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def write_records(records: Sequence[Record], path_or_file, fmt: str = "csv",
                  metadata: dict | None = None) -> None:
    """Write records as CSV (data only) or JSON (data plus metadata).
    ``path_or_file`` may be a filesystem path or an open text stream."""
    own = not hasattr(path_or_file, "write")
    if fmt == "csv":
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            if records:
                header = list(records[0].keys())
                fh.write(_csv_lines([map(_csv_field, header)]))
                for start in range(0, len(records), _CSV_BLOCK_ROWS):
                    block = records[start:start + _CSV_BLOCK_ROWS]
                    columns = [_fmt_column([rec[k] for rec in block]) for k in header]
                    fh.write(_csv_lines(zip(*columns)))
        finally:
            if own:
                fh.close()
    elif fmt == "json":
        payload = {
            "metadata": metadata or {},
            "records": [
                {k: _jsonable(v) for k, v in rec.items()} for rec in records
            ],
        }
        fh = open(path_or_file, "w") if own else path_or_file
        try:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        finally:
            if own:
                fh.close()
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _random_qubit_states(rng: np.random.Generator, count: int):
    thetas = rng.uniform(0.0, math.pi, count)
    phis = rng.uniform(0.0, 2.0 * math.pi, count)
    return [statevec.make_qubit_state(t, f) for t, f in zip(thetas, phis)]


def run_swap_test(
    theta1: float = 0.0,
    phi1: float = 0.0,
    theta2: float = 0.0,
    phi2: float = 0.0,
    vec1: Sequence[float] | None = None,
    vec2: Sequence[float] | None = None,
    shots=egraph.EXACT_SHOTS,
    seed: int = 0,
) -> tuple[list[Record], dict]:
    """Single two-state swap test: exact ancilla law plus (optionally
    sampled) estimates.  Inputs are either Bloch angles or two raw vectors
    of one length."""
    if (vec1 is None) != (vec2 is None):
        raise ValueError("provide both vectors or neither")
    if vec1 is not None:
        if len(vec1) != len(vec2):
            raise ValueError(
                f"vec1 has {len(vec1)} entries and vec2 has {len(vec2)}: "
                f"the swap test compares vectors of one length"
            )
        a = egraph.encode_point(vec1)
        b = egraph.encode_point(vec2)
    else:
        a = statevec.make_qubit_state(theta1, phi1)
        b = statevec.make_qubit_state(theta2, phi2)
    shots = statevec.check_shots(shots)
    circuit = circuits.build_swap_test(a.num_qubits)
    state = circuits.simulate(circuit, [a, b])
    p_exact = statevec.exact_marginal(state, [0])[0].item()
    overlap_sq_true = abs(statevec.inner_product(a, b)) ** 2
    value = p_exact
    if math.isfinite(shots):
        value = statevec.sample_outcomes(
            state, [0], shots, np.random.default_rng(np.random.SeedSequence([seed]))
        )[0]
    est = stats.estimate_overlaps(value, shots)
    record = {
        "w": a.num_qubits,
        "shots": shots,
        "seed": seed,
        "p_exact": p_exact,
        "p_hat": est.p_hat.item(),
        "overlap_sq_true": overlap_sq_true,
        "overlap_sq_hat": est.overlap_sq_hat.item(),
        "distance_true": stats.overlap_to_distance(math.sqrt(overlap_sq_true)),
        "distance_hat": est.distance_hat.item(),
        "clamped": est.clamped.item(),
    }
    metadata = {
        "p_exact": "ancilla-0 probability (1 + |<a|b>|^2)/2 from exact simulation",
        "overlap_sq_hat": "2*p_hat - 1, clamped to [0, 1]",
        "distance_hat": "sqrt(2*(1 - sqrt(overlap_sq_hat)))",
    }
    return [record], metadata


def run_pair_map(
    n: int, w: int = 1, dump_circuit=None
) -> tuple[list[Record], dict]:
    """Outcome -> pair table of the n-state circuit, one row per mid-ancilla
    outcome, plus per-pair multiplicities and calibration constants.  With
    ``dump_circuit`` set, the circuit U_n of width ``w`` is also written to
    that path as JSON."""
    if w < 1:
        raise ValueError(f"register width must be >= 1, got {w}")
    pm = circuits.derive_pair_map(n)
    records = []
    for outcome, (i, j) in enumerate(pm.pairs.tolist()):
        records.append(
            {
                "outcome": format(outcome, f"0{pm.d}b"),
                "i": i,
                "j": j,
                "multiplicity": pm.multiplicity[min(i, j), max(i, j)],
                "pair_constant": pm.pair_constant(i, j),
            }
        )
    metadata = {
        "outcome": "mid-ancilla measurement bits, wire order",
        "i,j": "input register labels (1-based) left in registers 1 and 2",
        "pair_constant": "multiplicity / 2^(d_n + 1); exact coefficient in "
        "P(pair, top=0) = c * (1 + overlap_sq)",
        "nominal_constant": 8.0 / float(n) ** 3,
        "w": w,
    }
    if dump_circuit:
        dump = circuits.circuit_to_json(circuits.build_un(n, w))
        with open(dump_circuit, "w") as fh:
            json.dump(dump, fh, indent=2)
            fh.write("\n")
    return records, metadata


def run_eq1_audit(n: int, trials: int, seed: int = 0) -> tuple[list[Record], dict]:
    """Audit the per-pair probability law of the full multi-state circuit.

    For each trial, random single-qubit inputs are run through the exact
    simulator; every (top=0, outcome) cell must equal
    (1 + |<phi_i|phi_j>|^2) / 2^{d_n + 1} for the outcome's mapped pair, and
    the per-pair aggregate is reported against both the calibrated constant
    multiplicity/2^{d_n+1} and the nominal 2^3/n^3.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    circuit = circuits.build_multiswap_full(n, 1)
    pm = circuits.derive_pair_map(n)
    d = pm.d
    measured = circuit.layout.measured_qubits
    pair_i, pair_j = np.triu_indices(n, 1)  # the pair order of reduce_by_pair
    labels_i, labels_j = (pair_i + 1).tolist(), (pair_j + 1).tolist()
    records = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        inputs = _random_qubit_states(rng, n)
        state = circuits.simulate(circuit, inputs)
        table = statevec.exact_marginal(state, measured)
        # a sequential sum in outcome order (ndarray.sum adds pairwise)
        total = sum(table.tolist())
        if abs(total - 1.0) > 1e-10:
            raise RuntimeError(f"marginal does not normalize: {total}")
        overlaps = np.zeros((n, n))
        for i, j in zip(pair_i.tolist(), pair_j.tolist()):
            ovl = abs(statevec.inner_product(inputs[i], inputs[j])) ** 2
            overlaps[i, j] = overlaps[j, i] = ovl
        # the top ancilla is the most significant bit: top = 0 is the first half
        top0 = table[: 2**d]
        mapped = overlaps[pm.pairs[:, 0] - 1, pm.pairs[:, 1] - 1]
        outcome_delta = np.abs(top0 - (1.0 + mapped) / 2.0 ** (d + 1))
        max_delta = outcome_delta.max()
        if max_delta > 1e-10:
            raise RuntimeError(
                f"per-outcome probability law violated by {max_delta:.3e}"
            )
        columns = zip(
            labels_i, labels_j, overlaps[pair_i, pair_j].tolist(),
            pm.reduce_by_pair(top0).tolist(),
            pm.reduce_by_pair(outcome_delta, np.maximum).tolist(),
        )
        for i, j, ovl, p_agg, pair_delta in columns:
            c_emp = p_agg / (1.0 + ovl)
            c_paper = 8.0 / float(n) ** 3
            records.append(
                {
                    "trial": trial,
                    "i": i,
                    "j": j,
                    "multiplicity": pm.multiplicity[(i, j)],
                    "overlap_sq_true": ovl,
                    "p_agg_measured": p_agg,
                    "p_pair_calibrated": pm.pair_constant(i, j) * (1.0 + ovl),
                    "p_eq1_nominal": stats.p0ij_theory(ovl, n),
                    "c_pair_empirical": c_emp,
                    "c_nominal": c_paper,
                    "ratio_empirical_to_nominal": c_emp / c_paper,
                    "max_outcome_delta": pair_delta,
                    "marginal_total": total,
                }
            )
    metadata = {
        "p_pair_calibrated": "multiplicity * (1 + overlap_sq) / 2^(d_n+1)",
        "p_eq1_nominal": "2^3 * (1 + overlap_sq) / n^3",
        "c_pair_empirical": "p_agg_measured / (1 + overlap_sq)",
        "c_nominal": "2^3 / n^3",
        "note": "the nominal constant matches only multiplicity-2 pairs; "
        "the empirical per-pair constant is multiplicity / 2^(d_n+1)",
    }
    return records, metadata


def default_alpha_grid() -> list[float]:
    return [c / 100.0 for c in range(5, 96, 5)]


def p_grid_for(alpha: float) -> list[float]:
    cents = round(alpha * 100)
    return [c / 100.0 for c in range(cents + 2, 100, 2)]


def run_bounds_sweep(
    n_values: Sequence[int],
    alphas: Sequence[float] | None = None,
    ps: Sequence[float] | None = None,
) -> tuple[list[Record], dict]:
    """Exact tail against the bound pair over a (N, alpha, p) grid.

    When ``ps`` is None the p grid is alpha-dependent (alpha+0.02 to 0.99 in
    steps of 0.02).  sandwich_ok records whether
    lower <= xi_exact <= upper + 1e-12 held in the cell; the lower side is
    only guaranteed where N*(1-alpha) is an integer (recorded separately).
    Cells with p <= alpha are skipped.  Raises ValueError for an alpha
    outside (0, 1), and when no (alpha, p) cell is left.
    """
    alphas = list(alphas) if alphas is not None else default_alpha_grid()
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    cells = [
        (alpha, p)
        for alpha in alphas
        for p in (ps if ps is not None else p_grid_for(alpha))
        if alpha < p < 1.0
    ]
    if not cells:
        p_grid = "alpha+0.02..0.99" if ps is None else list(ps)
        raise ValueError(
            f"no (alpha, p) cell with alpha < p < 1: alpha grid {alphas}, "
            f"p grid {p_grid}"
        )
    records = []
    for N in n_values:
        for alpha, p in cells:
            xi = stats.false_negative_exact(N, alpha, p)
            upper = stats.chernoff_upper(N, alpha, p)
            lower = stats.chernoff_lower(N, alpha, p)
            aligned = stats.threshold_aligned(N, alpha)
            records.append(
                {
                    "N": N,
                    "alpha": alpha,
                    "p": p,
                    "kl": stats.kl_bernoulli(alpha, p),
                    "xi_exact": xi,
                    "upper": upper,
                    "lower": lower,
                    "upper_ok": xi <= upper + 1e-12,
                    "lower_ok": lower <= xi,
                    "sandwich_ok": lower <= xi <= upper + 1e-12,
                    "threshold_aligned": aligned,
                }
            )
    metadata = {
        "xi_exact": "sum_{i=ceil(N(1-alpha))}^{N} C(N,i)(1-p)^i p^(N-i)",
        "upper": "exp(-N*KL(alpha||p))",
        "lower": "exp(-N*KL(alpha||p)) / sqrt(2N)",
        "threshold_aligned": "true when N*(1-alpha) is an integer, the regime "
        "in which the lower bound is guaranteed",
    }
    return records, metadata


def run_lemma1_example() -> tuple[list[Record], dict]:
    """The worked sharpness example at (alpha, p) = (0.5, 0.9)."""
    alpha, p = 0.5, 0.9
    kl = stats.kl_bernoulli(alpha, p)
    g_tilde = stats.gamma_tilde(alpha, p)
    n_at = stats.n_gamma(g_tilde, alpha, p)
    lower_at = stats.chernoff_lower(n_at, alpha, p)
    record = {
        "alpha": alpha,
        "p": p,
        "kl": kl,
        "gamma_tilde": g_tilde,
        "n_gamma": n_at,
        "chernoff_lower_at_n_gamma": lower_at,
        "sharpness_error": abs(lower_at - g_tilde),
    }
    metadata = {
        "kl": "alpha*ln(alpha/p) + (1-alpha)*ln((1-alpha)/(1-p))",
        "gamma_tilde": "exp(-KL/2), the error level where the lower bound is tight",
        "n_gamma": "ln(1/gamma_tilde)/KL (real-valued; equals 1/2 here)",
    }
    return [record], metadata


def run_scaling_curves(
    n_list: Sequence[int], gamma: float = 0.1, eps: float = 1.0
) -> tuple[list[Record], dict]:
    """Formula-evaluated repetition curves against n (no simulation).

    N_eq2 evaluates ln(1/gamma)/KL(alpha_multi || p) at the parallel-state
    endpoint p = 2^4/n^3 of the per-pair probability range.  The standard
    per-pair count uses the same eps threshold with a fixed reference overlap
    halfway between the decision boundary and 1.
    """
    alpha_std = stats.alpha_eps_standard(eps)
    o2_ref = (stats.prob_to_overlap_sq(alpha_std) + 1.0) / 2.0
    p_std = (1.0 + o2_ref) / 2.0
    n_std = stats.n_gamma(gamma, alpha_std, p_std)
    records = []
    prev = None
    prev_prop = None
    prev_n = None
    for n in n_list:
        alpha_multi = stats.alpha_eps_multi(eps, n)
        p_min = 8.0 / float(n) ** 3
        p_max = 16.0 / float(n) ** 3
        n_eq2 = stats.n_gamma(gamma, alpha_multi, p_max)
        prop = stats.proposition1_lower(n, gamma)
        thm1 = stats.theorem1_calls(n, gamma)
        ratio = float("nan") if prev is None else n_eq2 / prev
        prop_ratio = float("nan") if prev_prop is None else prop / prev_prop
        records.append(
            {
                "n": n,
                "alpha_multi": alpha_multi,
                "p0_min": p_min,
                "p0_max": p_max,
                "kl_multi": stats.kl_bernoulli(alpha_multi, p_max),
                "N_eq2": n_eq2,
                "N_eq2_ratio": ratio,
                "N_eq2_growth_exponent": (
                    float("nan")
                    if prev is None
                    else math.log2(n_eq2 / prev) / math.log2(n / prev_n)
                ),
                "prop1_curve": prop,
                "prop1_ratio": prop_ratio,
                "thm1_curve": thm1,
                "thm1_ratio": float("nan") if prev_n is None else (n / prev_n) ** 6,
                "naive_per_pair_N": math.ceil(n_std),
                "naive_total_queries": n * (n - 1) // 2 * math.ceil(n_std),
            }
        )
        prev = n_eq2
        prev_prop = prop
        prev_n = n
    metadata = {
        "alpha_multi": "((1-eps^2/2)^2 + 1) * 2^3 / n^3",
        "N_eq2": "ln(1/gamma) / KL(alpha_multi || p0_max)",
        "prop1_curve": "n^3 * ln(1/gamma) / ln(n)",
        "thm1_curve": "n^6 / (2^6 * gamma^2)",
        "naive_per_pair_N": "ceil(ln(1/gamma)/KL(alpha_std || p_std)) with "
        f"alpha_std={alpha_std!r}, p_std={p_std!r} (reference overlap halfway "
        "between the decision boundary and 1)",
        "N_eq2_growth_exponent": "log(N_eq2 / previous N_eq2) / log(n / previous n), "
        "the exponent of n between consecutive rows; cubic growth gives 3",
        "note": "the stated prop1_curve carries a 1/ln(n) factor that direct "
        "evaluation of N_eq2 does not reproduce; both are emitted for "
        "comparison, neither is asserted",
    }
    return records, metadata


def run_gatecount_report(
    n_list: Sequence[int], w: int = 1
) -> tuple[list[Record], dict]:
    """Resource counts per design, recounted from built circuits (the
    formula columns are provided for comparison, never trusted alone)."""
    records = []
    for n in n_list:
        un = circuits.build_un(n, w)
        un_cswaps, un_anc, un_qubits = circuits.count_resources(un)
        full = circuits.build_multiswap_full(n, w)
        full_cswaps, full_anc, full_qubits = circuits.count_resources(full)
        battery = circuits.build_naive_multiswap(n, w)
        naive_cswaps = sum(circuits.count_resources(c)[0] for _, c in battery)
        records.append(
            {
                "n": n,
                "w": w,
                "un_cswaps": un_cswaps,
                "un_cswaps_formula": (3 * n // 2 - 3) * w,
                "un_mid_ancillas": un_anc,
                "un_ancillas_formula": 3 * int(math.log2(n // 2)),
                "un_total_qubits": un_qubits,
                "full_cswaps": full_cswaps,
                "full_ancillas": full_anc,
                "full_total_qubits": full_qubits,
                "naive_circuits": len(battery),
                "naive_cswaps_per_round": naive_cswaps,
                "naive_ancillas": 1,
                "counts_match_formula": un_cswaps == (3 * n // 2 - 3) * w
                and un_anc == 3 * int(math.log2(n // 2)),
            }
        )
    metadata = {
        "un_cswaps_formula": "(3n/2 - 3) * w",
        "un_ancillas_formula": "3 * log2(n/2)",
        "naive_cswaps_per_round": "n(n-1)/2 circuits of w CSWAPs each, "
        "recounted from the built battery",
        "naive_ancillas": "single reusable ancilla",
    }
    return records, metadata


def run_egraph_trial(
    points_path,
    eps: float,
    mode: str,
    shots,
    seed: int,
    out_dir,
    fmt: str = "csv",
) -> tuple[egraph.EpsilonGraph, egraph.EpsilonGraph, egraph.GraphDiff]:
    """Build reference (brute force) and estimate graphs, write edge lists,
    the per-pair estimate table and a diff summary.  The diff is data, not a
    failure."""
    cloud = egraph.load_point_cloud(points_path)
    reference = egraph.brute_force_egraph(cloud, eps)
    estimates = None
    if mode == "brute":
        estimate = reference
    elif mode == "kdtree":
        estimate = egraph.kdtree_egraph(cloud, eps)
    elif mode in ("quantum-standard", "quantum-naive", "quantum-multi"):
        qmode = mode.split("-", 1)[1]
        estimate, estimates = egraph.quantum_egraph(cloud, eps, shots, qmode, seed)
    else:
        raise ValueError(f"unknown egraph mode {mode!r}")
    diff = egraph.compare_graphs(reference, estimate)

    os.makedirs(out_dir, exist_ok=True)
    egraph.write_edge_list(os.path.join(out_dir, "reference_edges.csv"), reference)
    egraph.write_edge_list(
        os.path.join(out_dir, "estimate_edges.csv"), estimate, estimates
    )
    if estimates is not None and estimates.p_hat.size:
        # Python scalars from .tolist(): _fmt_cell writes bools as true/false
        # and json.dump rejects numpy bools
        columns = {
            "i": estimates.pairs[:, 0],
            "j": estimates.pairs[:, 1],
            "shots": estimates.shots_total,
            "hits": estimates.hits,
            "p_hat": estimates.p_hat,
            "overlap_sq_hat": estimates.overlap_sq_hat,
            "distance_hat": estimates.distance_hat,
            "clamped": estimates.clamped,
        }
        rows = zip(*(column.tolist() for column in columns.values()))
        est_records = [dict(zip(columns, row)) for row in rows]
        write_records(
            est_records,
            os.path.join(out_dir, f"estimates.{fmt}"),
            fmt,
            {"p_hat": "hits/shots (exact probability when shots=0 rows appear)"},
        )
    summary = {
        "n": len(cloud),
        "eps": eps,
        "mode": mode,
        "shots": "inf" if not math.isfinite(float(shots)) else int(shots),
        "seed": seed,
        "fn_count": diff.fn_count,
        "fp_count": diff.fp_count,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return reference, estimate, diff
