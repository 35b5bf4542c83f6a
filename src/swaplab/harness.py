"""Experiment runners and report writers.

Every table runner returns (records, metadata): records are flat dicts (one
per experiment unit, deterministically ordered by parameter tuple), metadata
names the source formula behind each theory column.  run_egraph_trial writes
a whole output directory instead: both edge lists, as the columns i, j and
distance_estimate decoded from each graph's pair codes, and the per-pair
estimate table, as i and j from np.triu_indices(n, 1), its row order, and
the numpy columns of stats.OverlapEstimate.  This module
owns every output format, and write_records is the one CSV writer: it
formats every table from columns, after one transpose of row dicts, one
block of rows at a time, a CSV block with one % operation and a JSON block
with one encoder call.  CSV is the canonical output format (header row,
CRLF line ends, '.' decimal separator, 17 significant digits for reals,
the csv module's quoting); JSON mirrors the records and carries the
metadata.  The CLI calls each runner with its parsed flags as keyword
arguments, so a runner's keyword names are its flags' destinations.

Reproducibility: a runner re-invoked with the same parameters and seed
produces byte-identical output files.  Sampled counts (``swap-test`` and
the quantum egraph modes) come from one Generator per run, seeded
SeedSequence([seed]), drawn in a fixed order: pair order i < j in the
egraph, so a pair's count changes when points are added to the cloud.
eq1-audit draws each trial's random inputs from SeedSequence([seed, trial]),
so its rows do not depend on the trial count.  Computational failures raise;
statistical findings (graph diffs, bound gaps) are recorded as data.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from typing import Mapping, Sequence

import numpy as np

from . import circuits, egraph, statevec, stats

# write_records formats max(1, _CSV_BLOCK_CELLS // width) rows at a time,
# so the fields of only this many cells are held at once
_CSV_BLOCK_CELLS = 6144


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


def _conversion(column, empty: str):
    """A column's % conversion, by _fmt_cell's rules (%.17g writes
    format(v, ".17g")), and the function that turns a block of the column
    into its arguments.  An all-NaN numpy column is the literal ``empty``,
    with no function; a field that would be empty is written ``empty``."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu":
            return "%d", np.ndarray.tolist
        if column.dtype.kind == "f":
            nan = np.isnan(column)
            if nan.all():
                return empty, None
            if not nan.any():
                return "%.17g", np.ndarray.tolist
        bools = column.dtype.kind == "b"
    else:
        kinds = set(map(type, column))
        if kinds <= {float} and not any(map(math.isnan, column)):
            return "%.17g", list
        if kinds <= {int}:
            return "%d", list
        bools = kinds <= {bool}
    if bools:
        return "%s", lambda block: ["true" if v else "false" for v in _as_list(block)]
    return "%s", lambda block: [_csv_field(_fmt_cell(v)) or empty
                                for v in _as_list(block)]


def _jsonable(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _as_list(values):
    # numpy entries as Python scalars: _fmt_cell writes bools as true/false,
    # and json.dump rejects numpy bools
    return values.tolist() if isinstance(values, np.ndarray) else values


def write_records(records: Sequence[dict] | Mapping[str, Sequence],
                  path_or_file, fmt: str = "csv",
                  metadata: dict | None = None) -> None:
    """Write a table as CSV (data only) or JSON (data plus metadata), both
    formatted from its columns a block of rows at a time: one % operation
    per CSV block, one encoder call per JSON block, in the bytes of
    json.dump(indent=2).  ``records`` is a sequence of row dicts or a
    mapping from column name to an equal-length sequence or 1-D numpy
    array; either gives the same bytes.  ``path_or_file`` may be a
    filesystem path or an open text stream.  Rows take their header from
    the first record; a record with other keys, or a column of another
    length, raises ValueError naming it before anything is written."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    if isinstance(records, Mapping):
        header, columns = list(records), list(records.values())
    else:
        header = list(records[0].keys()) if records else []
        keys = set(header)
        for row, rec in enumerate(records):
            if rec.keys() != keys:
                extra = [k for k in rec if k not in keys]
                missing = [k for k in header if k not in rec]
                raise ValueError(
                    f"{fmt.upper()} record {row} does not have the header's keys "
                    f"(those of record 0): extra {extra}, missing {missing}"
                )
        columns = [[rec[k] for rec in records] for k in header]
    # row dicts with no keys are rows of no columns: JSON writes each as {}
    nrows = len(columns[0]) if columns else len(records)
    for name, column in zip(header, columns):
        if len(column) != nrows:
            raise ValueError(f"column {name!r} has {len(column)} entries, but "
                             f"column {header[0]!r} has {nrows}")
    step = max(1, _CSV_BLOCK_CELLS // max(len(columns), 1))
    own = not hasattr(path_or_file, "write")
    newline = "" if fmt == "csv" else None
    fh = open(path_or_file, "w", newline=newline) if own else path_or_file
    try:
        if fmt == "csv":
            if header:
                fh.write((",".join(map(_csv_field, header)) or '""') + "\r\n")
            # csv.writer quotes a lone empty field, so that its row is not blank
            empty = '""' if len(columns) == 1 else ""
            conversions = [_conversion(c, empty) for c in columns]
            line = ",".join(spec for spec, _ in conversions) + "\r\n"
            args = [(c, f) for c, (_, f) in zip(columns, conversions) if f is not None]
            # a table with no columns writes no CSV lines
            for start in range(0, nrows if columns else 0, step):
                rows = min(step, nrows - start)
                cells = [None] * (len(args) * rows)
                for k, (column, f) in enumerate(args):
                    cells[k::len(args)] = f(column[start:start + step])
                fh.write(line * rows % tuple(cells))
        else:
            # the metadata and each block's rows are encoded at the top level,
            # then re-indented one level; a block's list loses its brackets
            encoder = json.JSONEncoder(indent=2)
            meta = encoder.encode(metadata or {}).replace("\n", "\n  ")
            fh.write('{\n  "metadata": ' + meta + ',\n  "records": [')
            for start in range(0, nrows, step):
                cells = [map(_jsonable, _as_list(c[start:start + step]))
                         for c in columns]
                rows = zip(*cells) if columns else [()] * min(step, nrows - start)
                text = encoder.encode([dict(zip(header, r)) for r in rows])
                fh.write("," * (start > 0) + text[1:-2].replace("\n", "\n  "))
            fh.write("\n  ]\n}\n" if nrows else "]\n}\n")
    finally:
        if own:
            fh.close()


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
) -> tuple[list[dict], dict]:
    """Single two-state swap test: exact ancilla law plus (optionally
    sampled) estimates.  Inputs are either Bloch angles or two raw vectors
    of one length.  A bad input raises ValueError naming its argument (the
    CLI flag of the same name) before any state is built."""
    angles = {"theta1": theta1, "phi1": phi1, "theta2": theta2, "phi2": phi2}
    for name, angle in angles.items():
        if not math.isfinite(angle):
            raise ValueError(f"{name} must be finite, got {angle}")
    if (vec1 is None) != (vec2 is None):
        given = "vec1" if vec2 is None else "vec2"
        raise ValueError(f"provide both vec1 and vec2 or neither, got only {given}")
    if vec1 is not None:
        if len(vec1) != len(vec2):
            raise ValueError(
                f"vec1 has {len(vec1)} entries and vec2 has {len(vec2)}: "
                f"the swap test compares vectors of one length"
            )
        encoded = []
        for name, vec in (("vec1", vec1), ("vec2", vec2)):
            try:
                encoded.append(egraph.encode_point(vec))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        a, b = encoded
    else:
        a = statevec.make_qubit_state(theta1, phi1)
        b = statevec.make_qubit_state(theta2, phi2)
    shots = statevec.check_shots(shots)
    circuit = circuits.build_swap_test(a.num_qubits)
    state = circuits.simulate(circuit, [a, b])
    p_exact = statevec.exact_marginal(state, 1)[0].item()
    overlap_sq_true = abs(statevec.inner_product(a, b)) ** 2
    value = p_exact
    if math.isfinite(shots):
        value = statevec.sample_outcomes(
            state, 1, shots, np.random.default_rng(np.random.SeedSequence([seed]))
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
) -> tuple[list[dict], dict]:
    """Outcome -> pair table of the n-state circuit, one row per mid-ancilla
    outcome, plus per-pair multiplicities and calibration constants.  The
    circuit U_n of width ``w`` is built either way, which checks n and then
    w, and with ``dump_circuit`` set it is written to that path as JSON."""
    pm = circuits.derive_pair_map(n)
    un = circuits.build_un(n, w)
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
        with open(dump_circuit, "w") as fh:
            json.dump(circuits.circuit_to_json(un), fh, indent=2)
            fh.write("\n")
    return records, metadata


def run_eq1_audit(n: int, trials: int, seed: int = 0) -> tuple[list[dict], dict]:
    """Audit the per-pair probability law of the full multi-state circuit.

    For each trial, random single-qubit inputs are run through the exact
    simulator; every (top=0, outcome) cell must equal
    (1 + |<phi_i|phi_j>|^2) / 2^{d_n + 1} for the outcome's mapped pair, and
    the per-pair aggregate is reported against both the calibrated constant
    multiplicity/2^{d_n+1} and the nominal 2^3/n^3.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # the pair map's cap rejects a large n before its circuit is built
    pm = circuits.derive_pair_map(n)
    circuit = circuits.build_multiswap_full(n, 1)
    d = pm.d
    measured = circuit.layout.ancilla_count
    pair_i, pair_j = np.triu_indices(n, 1)  # the pair order of reduce_by_pair
    labels_i, labels_j = (pair_i + 1).tolist(), (pair_j + 1).tolist()
    records = []
    # one state buffer for every trial, checked in bytes before it is made:
    # a trial after the first refills memory the first one already touched
    buffer = np.empty(circuits.state_bytes(circuit) // 16, dtype=np.complex128)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        inputs = _random_qubit_states(rng, n)
        table = statevec.exact_marginal(
            circuits.simulate(circuit, inputs, out=buffer), measured
        )
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
) -> tuple[list[dict], dict]:
    """Exact tail against the bound pair over a (N, alpha, p) grid.

    When ``ps`` is None the p grid is alpha-dependent (alpha+0.02 to 0.99 in
    steps of 0.02).  sandwich_ok records whether
    lower <= xi_exact <= upper + 1e-12 held in the cell; the lower side is
    only guaranteed where N*(1-alpha) is an integer (recorded separately).
    Cells with p <= alpha are skipped.  Before the first cell, raises
    ValueError naming the value for an N that is not a whole number >= 1 or
    an alpha or p outside (0, 1), and when no (alpha, p) cell is left.
    """
    n_values = [stats._check_count(N) for N in n_values]
    alphas = list(alphas) if alphas is not None else default_alpha_grid()
    ps = list(ps) if ps is not None else None
    for name, grid in (("alpha", alphas), ("p", ps or ())):
        for value in grid:
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
    cells = [
        (alpha, p)
        for alpha in alphas
        for p in (ps if ps is not None else p_grid_for(alpha))
        if alpha < p
    ]
    if not cells:
        p_grid = "alpha+0.02..0.99" if ps is None else list(ps)
        raise ValueError(
            f"no (alpha, p) cell with alpha < p < 1: alpha grid {alphas}, "
            f"p grid {p_grid}"
        )
    # the kl column once per (alpha, p), not once per N; the bounds are
    # chernoff_upper's and chernoff_lower's own expressions on it, bit for bit
    kls = [stats.kl_bernoulli(alpha, p) for alpha, p in cells]
    records = []
    for N in n_values:
        aligned = {alpha: stats.threshold_aligned(N, alpha) for alpha in alphas}
        for (alpha, p), kl in zip(cells, kls):
            xi = stats.false_negative_exact(N, alpha, p)
            upper = math.exp(-N * kl)
            lower = upper / math.sqrt(2.0 * N)
            records.append(
                {
                    "N": N,
                    "alpha": alpha,
                    "p": p,
                    "kl": kl,
                    "xi_exact": xi,
                    "upper": upper,
                    "lower": lower,
                    "upper_ok": xi <= upper + 1e-12,
                    "lower_ok": lower <= xi,
                    "sandwich_ok": lower <= xi <= upper + 1e-12,
                    "threshold_aligned": aligned[alpha],
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


def run_lemma1_example() -> tuple[list[dict], dict]:
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
) -> tuple[list[dict], dict]:
    """Formula-evaluated repetition curves against n (no simulation).

    N_eq2 evaluates ln(1/gamma)/KL(alpha_multi || p) at the parallel-state
    endpoint p = 2^4/n^3 of the per-pair probability range.  The standard
    per-pair count uses the same eps threshold with a fixed reference overlap
    halfway between the decision boundary and 1.  The ratio and exponent
    columns compare each row with the one before; the exponent is NaN on
    the first row and on a row whose n repeats the previous n.
    """
    alpha_std = stats.alpha_eps_standard(eps)
    if alpha_std == 1.0:
        raise ValueError(
            f"eps is too small, got {eps}: its threshold ((1 - eps^2/2)^2 + 1)/2 "
            f"rounds to 1"
        )
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
                    if prev is None or n == prev_n
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


# Peak traced bytes per gate of build_un + build_multiswap_full, 3n*w gates
# together: 258-266 at w = 1 (n = 2^10 to 2^17), 206 at w = 4, 192 at w = 28
_GATE_BYTES = 272


def run_gatecount_report(
    n_list: Sequence[int], w: int = 1
) -> tuple[list[dict], dict]:
    """Resource counts per design, recounted from built circuits (the
    formula columns are provided for comparison, never trusted alone).  The
    naive battery's n(n-1)/2 circuits are all one swap test, so that circuit
    is built once and its count scaled.  Every n is checked, as a power of
    two >= 4 whose U_n and full circuit fit the byte ceiling at 3n*w gates
    of _GATE_BYTES each, before the first circuit is built."""
    for n in n_list:
        circuits.require_power_of_two(n)
        what = f"building U_n and the full circuit for n={n}, w={w}"
        statevec.check_bytes(3 * n * w * _GATE_BYTES, what)
    records = []
    for n in n_list:
        un = circuits.build_un(n, w)
        un_cswaps, un_anc = un.cswap_count, un.layout.ancilla_count
        full = circuits.build_multiswap_full(n, w)
        pairs = n * (n - 1) // 2
        records.append(
            {
                "n": n,
                "w": w,
                "un_cswaps": un_cswaps,
                "un_cswaps_formula": (3 * n // 2 - 3) * w,
                "un_mid_ancillas": un_anc,
                "un_ancillas_formula": 3 * int(math.log2(n // 2)),
                "un_total_qubits": un.layout.total_qubits,
                "full_cswaps": full.cswap_count,
                "full_ancillas": full.layout.ancilla_count,
                "full_total_qubits": full.layout.total_qubits,
                "naive_circuits": pairs,
                "naive_cswaps_per_round": pairs * circuits.build_swap_test(w).cswap_count,
                "naive_ancillas": 1,
                "counts_match_formula": un_cswaps == (3 * n // 2 - 3) * w
                and un_anc == 3 * int(math.log2(n // 2)),
            }
        )
    metadata = {
        "un_cswaps_formula": "(3n/2 - 3) * w",
        "un_ancillas_formula": "3 * log2(n/2)",
        "naive_cswaps_per_round": "n(n-1)/2 circuits of w CSWAPs each, "
        "recounted from one built swap-test circuit",
        "naive_ancillas": "single reusable ancilla",
    }
    return records, metadata


def _edge_columns(graph: egraph.EpsilonGraph,
                  estimates: stats.OverlapEstimate | None = None) -> dict:
    """Columns i, j, distance_estimate of the edges of ``graph``.  The
    distance is NaN (an empty field) without ``estimates``, else that of the
    edge's table row: the table holds every pair i < j in order, so pair
    (i, j) is row i*(2n - i - 1)/2 + (j - i - 1)."""
    n = graph.n
    i, j = np.divmod(graph.codes, n)
    if estimates is None:
        distance = np.full(graph.codes.size, math.nan)
    else:
        distance = estimates.distance_hat[i * (2 * n - i - 1) // 2 + (j - i - 1)]
    return {"i": i, "j": j, "distance_estimate": distance}


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
    failure.  An estimate with no estimate table and the reference's edges
    (every brute run, and a kd-tree run that finds them all) has the
    reference's edge-list bytes, so its list is a copy of the reference
    file; any other estimate list is formatted from its own graph."""
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
    reference_path = os.path.join(out_dir, "reference_edges.csv")
    estimate_path = os.path.join(out_dir, "estimate_edges.csv")
    write_records(_edge_columns(reference), reference_path)
    if estimates is None and np.array_equal(estimate.codes, reference.codes):
        # the same edges with an empty distance column: the same bytes
        shutil.copyfile(reference_path, estimate_path)
    else:
        write_records(_edge_columns(estimate, estimates), estimate_path)
    if estimates is not None and estimates.p_hat.size:
        i, j = np.triu_indices(len(cloud), 1)
        columns = {
            "i": i,
            "j": j,
            "shots": estimates.shots_total,
            "hits": estimates.hits,
            "p_hat": estimates.p_hat,
            "overlap_sq_hat": estimates.overlap_sq_hat,
            "distance_hat": estimates.distance_hat,
            "clamped": estimates.clamped,
        }
        write_records(
            columns,
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
