"""Output checks for benchmark units, against oracles that avoid swaplab.

Every check returns a list of problems; an empty list means the unit's
output is correct.  Oracles:

* epsilon graphs: ``scipy.spatial.distance.pdist`` edge sets (d < eps);
* sampled quantum graphs: the distribution of the number of wrong
  decisions, from the exact per-pair success probabilities and
  ``scipy.stats.binom`` with pairs taken as independent; counts beyond its
  4-sigma-equivalent tails fail;
* bounds tables: the row count of the default alpha/p grid, the upper bound
  column, and an mpmath binomial tail on sampled rows.

The multi-state mode's per-pair probability is multiplicity/2^(d+1) times
(1 + overlap^2); the multiplicities come from ``swaplab.circuits.
derive_pair_map``, which the tier-1 suite certifies cell by cell against
full state-vector simulation.  Nothing here uses ``swaplab.stats``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.spatial.distance import pdist
from scipy.stats import binom

BOUNDS_HEADER = ["N", "alpha", "p", "kl", "xi_exact", "upper", "lower",
                 "upper_ok", "lower_ok", "sandwich_ok", "threshold_aligned"]
# cells per N on the default grid: alpha = 0.05..0.95 step 0.05, and for
# each alpha, p = alpha + 0.02 .. 0.99 step 0.02
CELLS_PER_N = sum(len(range(c + 2, 100, 2)) for c in range(5, 96, 5))
TAIL_ROWS_CHECKED = 3
TAIL_RTOL = 1e-12
# tails below the double range are compared in absolute terms only
TAIL_ATOL = 1e-300
# one-sided tail of a normal beyond 4 sigma; the error count is judged on
# its exact distribution, whose small means make a +-4 sigma band too narrow
FOUR_SIGMA_TAIL = 0.5 * math.erfc(4.0 / math.sqrt(2.0))


def digest(unit) -> str:
    """sha256 over the bytes of a unit's output file, or over the names and
    bytes of every file in its output directory."""
    h = hashlib.sha256()
    if os.path.isdir(unit.out):
        names = sorted(os.listdir(unit.out))
        paths = [os.path.join(unit.out, f) for f in names]
    else:
        names, paths = [""], [unit.out]
    for name, path in zip(names, paths):
        h.update(name.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check(unit, cache: dict) -> list[str]:
    """Problems with ``unit``'s output.  ``cache`` keeps per-unit oracle
    values between passes; it is keyed by unit key."""
    try:
        if unit.spec["kind"] == "egraph":
            return _check_egraph(unit, cache)
        return _check_bounds(unit, cache)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------- egraphs

def oracle_edges(points: np.ndarray, eps: float) -> np.ndarray:
    """Sorted edge codes i*n + j (i < j) of the pairs at distance < eps."""
    n = len(points)
    c = np.flatnonzero(pdist(points) < eps)
    i = np.arange(n, dtype=np.int64)
    starts = i * n - i * (i + 1) // 2  # condensed index of pair (i, i+1)
    row = np.searchsorted(starts, c, side="right") - 1
    return row * n + (c - starts[row] + row + 1)


def read_edges(path: str, n: int) -> np.ndarray:
    """Edge codes in file order from an ``i,j,distance_estimate`` CSV."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
        if header != "i,j,distance_estimate":
            raise ValueError(f"{path}: bad header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # header-only file
            pairs = np.loadtxt(fh, delimiter=",", usecols=(0, 1),
                               dtype=np.int64, ndmin=2)
    return pairs[:, 0] * n + pairs[:, 1]


def _success_probabilities(unit, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-pair probability of a hit, and the pair's decision
    threshold on hits/shots, for a quantum unit."""
    pts = unit.spec["points"]
    u = pts / np.linalg.norm(pts, axis=1)[:, None]
    overlap_sq = np.einsum("ij,ij->i", u[pairs[:, 0]], u[pairs[:, 1]]) ** 2
    eps = unit.spec["eps"]
    c = 1.0 - eps * eps / 2.0
    scale = c * c + 1.0
    if unit.spec["mode"] != "quantum-multi":
        return (1.0 + overlap_sq) / 2.0, np.full(len(pairs), scale / 2.0)
    from swaplab import circuits

    m = 4
    while m < len(pts):
        m *= 2
    pm = circuits.derive_pair_map(m)
    const = np.array([pm.multiplicity[(i + 1, j + 1)] for i, j in pairs]) / 2.0 ** (pm.d + 1)
    return const * (1.0 + overlap_sq), const * scale


def error_count_pmf(unit) -> np.ndarray:
    """Distribution of the number of wrong edge decisions of a sampled
    quantum unit, as a Poisson-binomial over independent pairs: a pair is an
    edge iff hits/shots > threshold, hits ~ Bin(shots, pair probability).

    Exact for the standard and naive modes, which draw each pair's hits from
    its own generator.  The multi mode draws all pairs' counts from one
    multinomial, so its per-pair decisions are weakly correlated and this
    distribution is an approximation there."""
    pts = unit.spec["points"]
    n = len(pts)
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    prob, threshold = _success_probabilities(unit, pairs)
    shots = int(unit.spec["shots"])
    # smallest hit count h with h/shots > threshold, as swaplab decides
    h_min = np.floor(threshold * shots).astype(np.int64) + 1
    h_min -= (h_min - 1) / shots > threshold
    h_min += h_min / shots <= threshold
    p_edge = binom.sf(h_min - 1, shots, prob)
    truth = np.isin(pairs[:, 0] * n + pairs[:, 1],
                    oracle_edges(pts, unit.spec["eps"]))
    pmf = np.ones(1)
    for q in np.where(truth, 1.0 - p_edge, p_edge):
        pmf = np.append(pmf * (1.0 - q), 0.0) + np.insert(pmf * q, 0, 0.0)
    return pmf


def _check_egraph(unit, cache):
    spec = unit.spec
    n = len(spec["points"])
    problems = []
    with open(os.path.join(unit.out, "summary.json")) as fh:
        summary = json.load(fh)
    want = {"n": n, "eps": spec["eps"], "mode": spec["mode"], "seed": spec["seed"],
            "shots": "inf" if spec["shots"] in (None, "inf") else spec["shots"]}
    for key, value in want.items():
        if summary.get(key) != value:
            problems.append(f"summary {key}={summary.get(key)!r}, expected {value!r}")

    if unit.key not in cache:
        cache[unit.key] = {"edges": oracle_edges(spec["points"], spec["eps"])}
    oracle = cache[unit.key]
    reference = read_edges(os.path.join(unit.out, "reference_edges.csv"), n)
    if not np.array_equal(reference, oracle["edges"]):
        problems.append(f"reference graph differs from pdist: {reference.size} "
                        f"edges written, {oracle['edges'].size} expected")
    estimate = read_edges(os.path.join(unit.out, "estimate_edges.csv"), n)
    if np.any(np.diff(estimate) <= 0):
        problems.append("estimate edges not sorted and unique")
    fn = np.setdiff1d(oracle["edges"], estimate).size
    fp = np.setdiff1d(estimate, oracle["edges"]).size
    if (summary.get("fn_count"), summary.get("fp_count")) != (fn, fp):
        problems.append(f"summary fn/fp {summary.get('fn_count')}/"
                        f"{summary.get('fp_count')}, edge lists give {fn}/{fp}")

    if spec["mode"].startswith("quantum"):
        with open(os.path.join(unit.out, "estimates.csv"), newline="") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n * (n - 1) // 2:
            problems.append(f"{rows} estimate rows, expected {n * (n - 1) // 2}")
    if spec["shots"] in (None, "inf"):
        if fn or fp:
            problems.append(f"exact graph has {fn} false negatives, {fp} false positives")
    else:
        if "errors" not in oracle:
            oracle["errors"] = error_count_pmf(unit)
        pmf = oracle["errors"]
        wrong = fn + fp
        below, above = pmf[: wrong + 1].sum(), pmf[wrong:].sum()
        if min(below, above) < FOUR_SIGMA_TAIL:
            mean = float(np.arange(pmf.size) @ pmf)
            problems.append(f"{wrong} wrong decisions, expected {mean:.2f}; "
                            f"P(<= {wrong}) = {below:.2e}, P(>= {wrong}) = {above:.2e}")
    return problems


# ----------------------------------------------------------------- bounds

def tail_threshold(N: int, alpha: float) -> int:
    """ceil(N*(1-alpha)) in exact rationals, snapped to the nearest integer
    within N*1e-12: the decimal-intent boundary that defines the tail."""
    x = Fraction(N) * (1 - Fraction(alpha))
    nearest = round(x)
    if abs(float(x) - nearest) <= 1e-12 * max(1, N):
        return int(nearest)
    return math.ceil(x)


def tail_mpmath(N: int, alpha: float, p: float, dps: int = 40) -> float:
    """P(Bin(N, 1-p) >= tail_threshold(N, alpha)) summed term by term in
    arbitrary precision, from the threshold outward."""
    k = tail_threshold(N, alpha)
    if k <= 0:
        return 1.0
    if k > N:
        return 0.0
    with mp.workdps(dps):
        q = 1 - mp.mpf(p)
        ratio = q / mp.mpf(p)
        term = mp.binomial(N, k) * q**k * mp.mpf(p) ** (N - k)
        total = term
        for i in range(k, N):
            term *= ratio * (N - i) / (i + 1)
            total += term
            if i + 1 > N * q and term < total * mp.mpf(10) ** (-dps):
                break
        return float(total)


def _check_bounds(unit, cache):
    block = unit.spec["n_values"]
    with open(unit.out, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != BOUNDS_HEADER:
        return [f"bad header {rows[:1]}"]
    col = {name: k for k, name in enumerate(BOUNDS_HEADER)}
    body = rows[1:]
    problems = []
    if len(body) != CELLS_PER_N * len(block):
        problems.append(f"{len(body)} rows, expected {CELLS_PER_N * len(block)}")
    n_col = sorted(int(r[col["N"]]) for r in body)
    if n_col != sorted(block * CELLS_PER_N):
        problems.append("N column does not match the requested block")
    bad = sum(r[col["upper_ok"]] != "true" for r in body)
    if bad:
        problems.append(f"{bad} rows with upper_ok false")

    oracle = cache.setdefault(unit.key, {})
    if "rows" not in oracle:
        rng = np.random.default_rng(unit.spec["sample_seed"])
        oracle["rows"] = rng.choice(len(body), min(TAIL_ROWS_CHECKED, len(body)),
                                    replace=False).tolist()
    for k in oracle["rows"]:
        if k >= len(body):
            continue
        cell = (int(body[k][col["N"]]), float(body[k][col["alpha"]]),
                float(body[k][col["p"]]))
        if cell not in oracle:
            oracle[cell] = tail_mpmath(*cell)
        got, want = float(body[k][col["xi_exact"]]), oracle[cell]
        if abs(got - want) > TAIL_RTOL * want + TAIL_ATOL:
            problems.append(f"row {k + 2}: xi_exact {got!r}, mpmath {want!r} at {cell}")
    return problems
