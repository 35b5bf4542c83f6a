"""Seeded inputs and unit schedules for the four benchmark workloads.

A *unit* is one ``swaplab`` subcommand call.  ``build`` draws every input
from the workload seed, writes the point clouds into the work directory and
returns one pass: the ordered units that the benchmark repeats.  swaplab sees
only the written files and the argv of each unit; the in-memory copy of the
inputs in ``Unit.spec`` is for the output checks.

Every pass of a workload has the same structure for every seed (sizes,
dimensions, eps quantiles, modes and shot counts are fixed or stratified);
the seed moves the coordinates and the N values inside their strata.  That
keeps per-run figures comparable across seeds.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

WORKLOADS = ("classical_egraph", "bounds_sweep", "quantum_pairs", "quantum_multi")

# eps of the quantum clouds sits mid-gap with every pairwise distance at
# least this far away, so infinite-shot decisions are not float ties.
QUANTUM_EPS_MARGIN = 1e-3

# Unit.host_sensitivity by kind of unit: the log-log slopes of wall time on
# the pure-Python and the numpy part of the host-speed probe (see
# hostspeed.py), fitted jointly over 24 runs on the 2-vCPU guest, on
# executions whose probes before and after agreed within 15 %.
SENSITIVITY = {
    "kdtree": (0.5, 0.2),
    "bounds_small": (0.3, 0.65),  # N <= 200: Fraction thresholds, call overhead
    "bounds_1e4": (0.1, 0.9),
    "bounds_1e5": (0.25, 0.45),  # long numpy vectors
    "pairs": (0.5, 0.55),
    "multi_15q": (0.3, 0.95),
    # a 128 MiB state, beyond the last-level cache: fitted (0.35, 0.1), but
    # with a probe on either side of a 6-7 s unit that fit tripled its
    # spread in a later set, and (0.1, 0.1) kept both sets near 0.04
    "multi_23q": (0.1, 0.1),
}


@dataclass(frozen=True)
class Unit:
    """One swaplab call.  ``out`` is the output directory (egraph) or CSV
    file (bounds); ``spec`` carries what the checks need.
    ``host_sensitivity`` holds the log-log slopes of the unit's wall time on
    the two parts of the host-speed probe (see hostspeed.py)."""

    key: str
    argv: tuple[str, ...]
    out: str
    spec: dict = field(repr=False)
    host_sensitivity: tuple[float, float] = (1.0, 0.0)


def with_out(unit: Unit, out: str) -> Unit:
    """The same call writing to another output path; the key stays, so the
    checks treat it as a rerun whose bytes must match."""
    argv = list(unit.argv)
    argv[argv.index("--out") + 1] = out
    return dataclasses.replace(unit, argv=tuple(argv), out=out)


def _write_cloud(path: str, points: np.ndarray) -> None:
    # 17 significant digits round-trip every float64 exactly
    with open(path, "w") as fh:
        for row in points:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def _mid_gap_eps(points: np.ndarray, q: float) -> float:
    """Criterion-8 recipe: eps halfway between the pairwise distances at
    quantile q, moved up to the first gap wider than 1e-9 relative so that
    squared and rooted distance comparisons agree."""
    flat = np.sort(pdist(points))
    k = int(q * flat.size)
    while flat[k + 1] - flat[k] <= 1e-9 * flat[k + 1]:
        k += 1
    return float((flat[k] + flat[k + 1]) / 2)


def _widest_gap_eps(points: np.ndarray, lo: float, hi: float) -> float | None:
    """eps at the middle of the widest distance gap between quantiles lo and
    hi, or None when that gap leaves less than QUANTUM_EPS_MARGIN each side."""
    flat = np.sort(pdist(points))
    a = int(lo * (flat.size - 1))
    b = max(a + 1, int(hi * (flat.size - 1)))
    gaps = np.diff(flat[a : b + 1])
    k = a + int(np.argmax(gaps))
    if flat[k + 1] - flat[k] < 2 * QUANTUM_EPS_MARGIN:
        return None
    return float((flat[k] + flat[k + 1]) / 2)


def _euclidean_cloud(rng, n: int, dim: int, shape: str) -> np.ndarray:
    if shape == "uniform":
        return rng.uniform(0.0, 1.0, (n, dim))
    centers = rng.uniform(0.0, 1.0, (8, dim))
    return centers[rng.integers(0, 8, n)] + rng.normal(0.0, 0.05, (n, dim))


def _unit_cloud(rng, n: int, dim: int, lo: float, hi: float):
    """Unit-norm, non-negative cloud (classical and quantum distances agree)
    and an eps with the margin above; redraws until such a gap exists."""
    while True:
        pts = np.abs(rng.normal(size=(n, dim)))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        eps = _widest_gap_eps(pts, lo, hi)
        if eps is not None:
            return pts, eps


def _egraph_unit(work, key, points, eps, mode, shots, seed, sensitivity) -> Unit:
    path = os.path.join(work, "in", f"{key}.csv")
    _write_cloud(path, points)
    out = os.path.join(work, "out", key)
    argv = ["egraph", "--points", path, "--eps", repr(eps), "--mode", mode,
            "--seed", str(seed), "--out", out]
    if shots is not None:
        argv += ["--shots", str(shots)]
    spec = {"kind": "egraph", "points": points, "eps": eps, "mode": mode,
            "shots": shots, "seed": seed}
    return Unit(key, tuple(argv), out, spec, sensitivity)


def _classical_egraph(rng, work):
    # n = 1000 over dim x eps quantile, uniform and clustered in a checker
    # pattern, plus one n = 2500 cloud that takes the row-by-row brute force.
    # The 20 % quantile is uniform only: there eps cuts through the distances
    # between the eight random cluster centres, and the kd-tree work varied
    # by +-13 % with where they fell (188k-246k nodes visited over six seeds
    # at dim 3), which put the seed rather than the code into unit_ms_p90.
    units = []
    for a, dim in enumerate((2, 3, 5)):
        for b, q in enumerate((0.005, 0.05, 0.20)):
            shape = "clustered" if (a + b) % 2 == 1 and q < 0.2 else "uniform"
            pts = _euclidean_cloud(rng, 1000, dim, shape)
            units.append(_egraph_unit(work, f"kd_d{dim}_q{q}_{shape}", pts,
                                      _mid_gap_eps(pts, q), "kdtree", None, 0,
                                      SENSITIVITY["kdtree"]))
    pts = _euclidean_cloud(rng, 2500, 3, "uniform")
    units.append(_egraph_unit(work, "kd_n2500_d3_q0.005", pts,
                              _mid_gap_eps(pts, 0.005), "kdtree", None, 0,
                              SENSITIVITY["kdtree"]))
    return units


def _bounds_sweep(rng, work):
    # 8 single-N blocks, one N from each eighth of 1..200, then four units
    # at N = 10^4 and one at N = 10^5, all on the default alpha/p grid.  Of
    # the 13 units, ranks 1-8 are small-N blocks and 9-12 the N = 10^4
    # ones, so p50 (rank 7) is a small-N block and p90 (rank 12) an
    # N = 10^4 block, each a mean over passes.  A pass stays under 16 s on
    # a slow host, so that a run holds two; with 16 small blocks it did not.
    small = [int(rng.choice(s)) for s in np.array_split(np.arange(1, 201), 8)]
    units = []
    for k, N in enumerate(small + [10**4] * 4 + [10**5]):
        key = f"bounds_{k:02d}_N{N}"
        out = os.path.join(work, "out", f"{key}.csv")
        argv = ("bounds", "--n-list", str(N), "--out", out)
        spec = {"kind": "bounds", "n_values": [N],
                "sample_seed": int(rng.integers(2**32))}
        kind = "bounds_small" if N <= 200 else f"bounds_1e{len(str(N)) - 1}"
        units.append(Unit(key, argv, out, spec, SENSITIVITY[kind]))
    return units


def _quantum_pairs(rng, work, seed):
    # n = 60 unit-norm clouds, w = 1..3; per dimension a sampled standard
    # and naive unit and one exact unit (naive at dim 3, standard otherwise).
    units = []
    for dim in (2, 3, 6):
        for mode, shots in (("quantum-standard", 1000), ("quantum-naive", 1000),
                            ("quantum-standard" if dim != 3 else "quantum-naive",
                             "inf")):
            pts, eps = _unit_cloud(rng, 60, dim, 0.2, 0.4)
            key = f"pairs_d{dim}_{mode.split('-')[1]}_{shots}"
            units.append(_egraph_unit(work, key, pts, eps, mode, shots,
                                      seed * 100 + len(units), SENSITIVITY["pairs"]))
    return units


def _quantum_multi(rng, work, seed):
    # eight 15-qubit units (dim 2, n = 5..8, sampled and exact) and one
    # 23-qubit unit (dim 3 or 4), so the large state is 1/9 of the units
    # and sets unit_ms_p90.  That unit has one shape (n = 8, 10^5 shots)
    # for every seed, so p90 does not move with the shape a seed picks.
    units = []
    for n in (5, 6, 7, 8):
        for shots in (100000, "inf"):
            pts, eps = _unit_cloud(rng, n, 2, 0.3, 0.7)
            units.append(_egraph_unit(work, f"multi_d2_n{n}_{shots}", pts, eps,
                                      "quantum-multi", shots, seed * 100 + len(units),
                                      SENSITIVITY["multi_15q"]))
    dim = int(rng.choice((3, 4)))
    n, shots = 8, 100000
    pts, eps = _unit_cloud(rng, n, dim, 0.3, 0.7)
    units.append(_egraph_unit(work, f"multi_d{dim}_n{n}_{shots}", pts, eps,
                              "quantum-multi", shots, seed * 100 + len(units),
                              SENSITIVITY["multi_23q"]))
    return units


def build(workload: str, seed: int, work: str) -> list[Unit]:
    """Draw the inputs of ``workload`` from ``seed``, write them under
    ``work`` and return one pass of units."""
    for sub in ("in", "out"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    if workload == "classical_egraph":
        return _classical_egraph(rng, work)
    if workload == "bounds_sweep":
        return _bounds_sweep(rng, work)
    if workload == "quantum_pairs":
        return _quantum_pairs(rng, work, seed)
    if workload == "quantum_multi":
        return _quantum_multi(rng, work, seed)
    raise ValueError(f"unknown workload {workload!r}")
