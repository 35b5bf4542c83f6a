"""Point clouds, their quantum encodings, and epsilon-graph constructors.

Three routes produce the same graph object: exact brute force over all
n(n-1)/2 distances, one tile of rows against every later point at a time, a
kd-tree fixed-radius search (identical edge set, different work pattern,
instrumented with visited-node counters), and the quantum pipeline.  Brute
force and the kd leaf test take their squared distances from one kernel,
``_sq_dists``, which adds the squared coordinate differences in axis order,
so the two classical routes decide every pair, ties included, by the same
arithmetic.  A graph holds its edges as one sorted int64 array of pair codes
i*n + j with i < j.

The quantum modes reduce their pairs to columns (a hit count or an exact
probability at infinite shots, and a constant c) in the pair order of
np.triu_indices(n, 1), their only key, which one estimate table carries to
the edge lists and the estimates file; one mask decides every pair: edge
iff p_hat > c * ((1 - eps^2/2)^2 + 1).  The standard and naive modes
(per-pair swap tests, the naive battery) take c = 1/2 and read each pair's
probability from the closed-form swap-test law
p = (1 + |<a|b>|^2)/2 over one Gram product of the encodings; the multi
mode takes the pair's calibrated constant and still simulates the recursive
multi-state circuit on the state vector, as do the ``swap-test`` and
``eq1-audit`` runners.

Edges use the strict inequality distance < eps.  The quantum routes operate
on amplitude-encoded *normalized* points and estimate sqrt(2*(1-|u.w|)), so
classical and quantum targets coincide exactly on unit-norm clouds with
non-negative pairwise dot products; tests use such clouds.

The module reads point clouds from CSV and writes no file: harness owns
every output format, the edge lists too.

Constructors are pure given (inputs, seed).  A sampled quantum run draws
every count from one Generator seeded SeedSequence([seed]), in the fixed pair
order i < j, so a pair's count depends on its place in that order and changes
when points are added to the cloud.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import circuits, statevec, stats
from .statevec import StateVector


@dataclass(frozen=True)
class PointCloud:
    """Finite set of d-dimensional real points (rows of ``points``)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
        if pts.shape[1] < 1:
            raise ValueError("points must have dimension >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must have finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_point_cloud(path) -> PointCloud:
    """Read a CSV point cloud: one point per row, ``dim`` float columns, and
    an optional single header row whose cells are all non-numeric.  Ragged
    rows and cells that are not finite numbers, in a part-numeric first row
    too, are rejected with row/column diagnostics."""
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if not cells:
                continue
            if width is None:
                width = len(cells)
                if not any(map(_is_number, cells)):
                    continue  # header row
            if len(cells) != width:
                raise ValueError(
                    f"{path}: row {lineno} has {len(cells)} columns, expected {width}"
                )
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {lineno}, column {col}: "
                        f"not a finite number: {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return PointCloud(np.array(rows))


@dataclass(frozen=True, eq=False)
class EpsilonGraph:
    """Undirected graph with edges exactly between points at distance < eps.

    ``codes`` holds each edge (i, j), i < j, once as the pair code i*n + j,
    in increasing order; it is kept as a read-only int64 array."""

    n: int
    eps: float
    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64).view()
        if codes.ndim != 1:
            raise ValueError(f"edge codes must be 1-D, got shape {codes.shape}")
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError("edge codes must be strictly increasing")
        n = max(self.n, 1)
        for code in codes[[0, -1]] if codes.size else ():  # the least and greatest
            if not 0 <= code < n * n:
                raise ValueError(f"edge code {code} invalid for n={self.n}")
        # then code = i*n + j has i < j iff i*(n + 1) < code, with no overflow
        scaled = codes // n
        scaled *= n + 1
        bad = np.flatnonzero(scaled >= codes)
        if bad.size:
            raise ValueError(f"edge code {codes[bad[0]]} invalid for n={self.n}")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (i, j) pairs with i < j."""
        i, j = np.divmod(self.codes, self.n)
        return frozenset(zip(i.tolist(), j.tolist()))


@dataclass(frozen=True)
class GraphDiff:
    """Edges missing from the estimate (false negatives) and spurious edges
    present only in the estimate (false positives), each as a sorted,
    read-only int64 array of pair codes i*n + j."""

    false_negatives: np.ndarray
    false_positives: np.ndarray

    @property
    def fn_count(self) -> int:
        return self.false_negatives.size

    @property
    def fp_count(self) -> int:
        return self.false_positives.size


# brute_force_egraph takes max(1, _TILE_ELEMENTS // n) rows per tile, so a
# tile's squared distances (and the kernel's scratch tile beside them) hold
# at most this many float64 entries while n <= _TILE_ELEMENTS
_TILE_ELEMENTS = 1 << 16


def _sq_dists(block, points):
    """Squared distances of every row of ``block`` to every row of
    ``points``, a (len(block), len(points)) array.  The squared coordinate
    differences are added one dimension at a time, in axis order, so each
    entry is the left-to-right float sum over its coordinates whatever the
    shapes; numpy's own reductions switch to pairwise summation at 8 or more
    terms.  Every classical decision reads this kernel."""
    out = block[:, 0, None] - points[:, 0]
    out *= out
    diff = np.empty_like(out)
    for k in range(1, block.shape[1]):
        np.subtract(block[:, k, None], points[:, k], out=diff)
        diff *= diff
        out += diff
    return out


# Peak traced bytes per edge of run_egraph_trial with every pair an edge
# (tracemalloc, n = 500 to 2000, dims 2 and 5): 41-43 in brute mode, 91-92 in
# kdtree mode, whose per-point hit lists hold every edge twice
_EDGE_BYTES = 96


def brute_force_egraph(cloud: PointCloud, eps: float) -> EpsilonGraph:
    """All n(n-1)/2 squared distances against eps^2, strict inequality, from
    _sq_dists over tiles of max(1, _TILE_ELEMENTS // n) rows against every
    later point, so memory stays bounded by a constant while
    n <= _TILE_ELEMENTS and linear in n beyond.  Within a tile whose first
    row is point r0, entry (r, c) pairs r0 + r with r0 + 1 + c, a pair i < j
    exactly when c >= r.  Hits come out row by row, so the codes are sorted
    as emitted; the edges found are checked in bytes after every tile."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    pts = cloud.points
    n = len(cloud)
    eps_sq = eps * eps
    rows = max(1, _TILE_ELEMENTS // max(n, 1))
    codes = [np.zeros(0, dtype=np.int64)]
    found = 0
    for r0 in range(0, n - 1, rows):
        r, c = np.nonzero(_sq_dists(pts[r0 : r0 + rows], pts[r0 + 1 :]) < eps_sq)
        keep = c >= r
        codes.append((r[keep] + r0) * n + (c[keep] + r0 + 1))
        found += codes[-1].size
        what = f"the edge list for n={n} points at eps={eps}, at {found} edges,"
        statevec.check_bytes(found * _EDGE_BYTES, what)
    return EpsilonGraph(n, eps, np.concatenate(codes))


# A box test in the Python walk costs about 1 us, about what _sq_dists takes
# to decide 64 candidate points, so leaves of 64 trade node visits for
# vectorised point tests; at 128 the leaves prune too little on clustered
# clouds
LEAF_SIZE = 64

# Relative margin, per dimension, by which a box's squared gap must exceed
# radius**2 before the box is pruned.  It covers the rounding of any
# summation order, so a pruned box never holds a point that the leaf test
# (_sq_dists's order) would accept.
_PRUNE_SLACK = 4.0 * np.finfo(float).eps


class KDTree:
    """Bucketed kd-tree held in flat arrays.

    Median splits on cycling axes stop at leaves of at most ``LEAF_SIZE``
    (64) points.  ``order`` permutes the point indices and ``pts`` is the
    permuted copy of the points; each node owns a slice of ``pts`` and keeps
    its bounding box.  Per query, ``last_visited`` counts the nodes whose
    box was tested; ``queries`` and ``total_visited`` sum over queries.
    """

    def __init__(self, cloud: PointCloud):
        points = cloud.points
        self.dim = cloud.dim
        self.n = len(cloud)
        self.order = np.arange(self.n)
        self._depth = 0
        # per node (lo, hi, left, right, slots), node 0 the root, held as
        # Python values for the walk, which reads one node at a time; a leaf
        # has children -1 and its slots, the indices of its rows in pts
        self._nodes: list[tuple] = []

        def build(start: int, stop: int, level: int) -> int:
            self._depth = max(self._depth, level + 1)
            node = len(self._nodes)
            self._nodes.append(())
            left = right = -1
            slots = None
            if stop - start > LEAF_SIZE:
                seg = self.order[start:stop]
                seg[:] = seg[np.argsort(points[seg, level % self.dim], kind="stable")]
                mid = (start + stop) // 2
                left = build(start, mid, level + 1)
                right = build(mid, stop, level + 1)
            else:
                slots = np.arange(start, stop)
            box = points[self.order[start:stop]]
            lo, hi = box.min(axis=0).tolist(), box.max(axis=0).tolist()
            self._nodes[node] = (lo, hi, left, right, slots)
            return node

        if self.n:
            build(0, self.n, 0)
        self.pts = points[self.order]
        self.queries = 0
        self.total_visited = 0
        self.last_visited = 0

    def depth(self) -> int:
        return self._depth

    def range_query(self, center: Sequence[float], radius: float) -> np.ndarray:
        """Indices of the points at strict distance < radius from center, as
        an int array in tree order.

        A depth-first walk prunes every node whose box lies at distance
        >= radius (by the margin of ``_PRUNE_SLACK``), then tests the points
        of the surviving leaves with one _sq_dists call, the kernel
        brute_force_egraph uses, so the two constructors decide every pair
        alike.
        """
        if not 0.0 < radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {radius}")
        c = np.asarray(center, dtype=float).reshape(-1)
        if c.size != self.dim:
            raise ValueError(
                f"query point has dimension {c.size}, tree has {self.dim}"
            )
        r_sq = radius * radius
        prune_sq = r_sq * (1.0 + _PRUNE_SLACK * self.dim)
        coords = c.tolist()
        nodes = self._nodes
        leaves = []
        stack = [0] if self.n else []
        visited = 0
        while stack:
            node = stack.pop()
            visited += 1
            lo, hi, left, right, leaf_slots = nodes[node]
            gap_sq = 0.0
            for x, a, b in zip(coords, lo, hi):
                if x < a:
                    gap_sq += (a - x) * (a - x)
                elif x > b:
                    gap_sq += (x - b) * (x - b)
            if gap_sq >= prune_sq:
                continue
            if left < 0:
                leaves.append(leaf_slots)
            else:
                stack.append(right)
                stack.append(left)
        slots = np.concatenate(leaves) if leaves else np.zeros(0, dtype=np.intp)
        hit = _sq_dists(c[None], self.pts[slots])[0] < r_sq
        self.queries += 1
        self.last_visited = visited
        self.total_visited += visited
        return self.order[slots[hit]]


def kdtree_egraph(cloud: PointCloud, eps: float) -> EpsilonGraph:
    """Same edge set as brute_force_egraph, built with one range query per
    point i; the hit arrays are joined once and the hits j > i kept."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    tree = KDTree(cloud)
    n = len(cloud)
    hits = [tree.range_query(point, eps) for point in cloud.points]
    i = np.repeat(np.arange(n), [h.size for h in hits])
    j = np.concatenate([np.zeros(0, dtype=np.int64), *hits])
    keep = j > i
    return EpsilonGraph(n, eps, np.sort(i[keep] * n + j[keep]))


def encode_point(v: Sequence[float]) -> StateVector:
    """Amplitude encoding of v/||v|| into ceil(log2 len(v)) qubits (one qubit
    for length <= 2), padding with zero amplitudes up to a power of two.
    Inner products of encodings equal normalized dot products exactly."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    if vec.size < 1:
        raise ValueError("cannot encode an empty vector")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not math.isfinite(norm):
        if not (np.isfinite(vec).all() and vec.any()):
            raise ValueError("cannot encode a zero or non-finite vector")
        # a finite, nonzero vector whose squares under- or overflowed: scale
        # its largest entry to 1
        vec = vec / np.abs(vec).max()
        norm = float(np.linalg.norm(vec))
    num_qubits = max(1, math.ceil(math.log2(vec.size)))
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[: vec.size] = vec / norm
    return StateVector(num_qubits, amps)


# Peak traced bytes per pair of a standard or naive run_egraph_trial, CSV
# output, n = 200 to 2000, exact and 1000 shots: 68-77 with a fifth of the
# pairs edges, 89-98 with every pair an edge, where the estimate table and
# both edge lists' columns set it (tracemalloc; quantum_egraph alone peaks
# at 66.5).  At 112 the 4 GiB ceiling takes clouds of up to 8,758 points.
_PAIR_TABLE_BYTES = 112

# picked up by tests and reports: quantum runs with an infinite shot budget
# use exact marginals instead of sampling
EXACT_SHOTS = math.inf


def quantum_egraph(
    cloud: PointCloud,
    eps: float,
    shots,
    mode: Literal["standard", "naive", "multi"] = "standard",
    seed: int = 0,
) -> tuple[EpsilonGraph, stats.OverlapEstimate]:
    """Build the epsilon graph by simulated quantum distance estimation;
    return it with its stats.OverlapEstimate table, whose row k is the k-th
    pair of np.triu_indices(n, 1).

    Every mode yields columns (value, c) in that pair order: hits out of
    ``shots`` or the exact probability, and c with p = c * (1 + |<a|b>|^2).
    One mask decides all pairs: edge iff p_hat > c * ((1 - eps^2/2)^2 + 1),
    strictly.  eps must lie in (0, sqrt(2)], the range of the estimated
    distance sqrt(2*(1 - |<a|b>|)).

    standard/naive: one swap test per pair, ``shots`` repetitions each, and
    c = 1/2, so the threshold is alpha_eps_standard(eps).  No circuit is
    simulated: p_ij = (1 + G_ij)/2 comes from one Gram product
    G = |A* A^T|^2 of the stacked encodings, clipped to [0, 1], and a sampled
    run draws every pair's Binomial(shots, p_ij) count in one call, in pair
    order.  The two modes differ only in gate-count accounting.

    multi: one padded multi-state circuit, ``shots`` total executions; counts
    of (top=0, mid outcome) are aggregated per pair through the derived
    outcome map, and c is the pair's calibrated pair_constant, so the
    infinite-shot limit reproduces the brute-force graph regardless of
    outcome multiplicities.  Pairs involving padding registers, which come
    after the inputs, are discarded, so the rest keep their pair order.

    ``shots`` is a whole number >= 1, or math.inf for exact (infinite-shot)
    decisions.  Every mode samples from the one stream SeedSequence([seed]),
    so the output is deterministic for a given seed.
    """
    if mode not in ("standard", "naive", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    # 2 * alpha_eps_standard is the law's scale (1 - eps^2/2)^2 + 1; the
    # call rejects eps outside (0, sqrt(2)]
    scale = 2.0 * stats.alpha_eps_standard(eps)
    shots = statevec.check_shots(shots)
    encoded = []
    for i, point in enumerate(cloud.points):
        try:
            encoded.append(encode_point(point))
        except ValueError as exc:
            raise ValueError(f"point {i}: {exc}") from None
    n = len(encoded)
    if n < 2:
        return EpsilonGraph(n, eps, []), stats.estimate_overlaps([], shots)
    pair_values = _multi_values if mode == "multi" else _swap_test_values
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    values, c = pair_values(encoded, shots, rng)
    estimates = stats.estimate_overlaps(values, shots, c)
    edge = estimates.p_hat > c * scale
    # pair (i, j)'s code i*n + j is its flat index in an n x n array
    codes = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))[edge]
    return EpsilonGraph(n, eps, codes), estimates


def _swap_test_values(encoded, shots, rng):
    """(values, 1/2) over the pairs i < j in order, from the
    swap-test law p_ij = (1 + |<a_i|a_j>|^2)/2 over one Gram product; the
    clip catches duplicate points, whose |G|^2 can round a hair above 1.
    A finite budget draws every pair's hit count from ``rng`` in one
    binomial call, in pair order.  The Gram matrix and the pair columns are
    checked in bytes against statevec.MAX_STATE_BYTES before either is
    allocated."""
    n = len(encoded)
    statevec.check_bytes(
        n * (n - 1) // 2 * _PAIR_TABLE_BYTES, f"the pair table for n={n} points"
    )
    amps = np.stack([state.amplitudes for state in encoded])
    probs = np.clip((1.0 + np.abs(amps.conj() @ amps.T) ** 2) / 2.0, 0.0, 1.0)
    values = probs[np.triu_indices(n, 1)]
    if math.isfinite(shots):
        values = rng.binomial(shots, values)
    return values, 0.5


def _multi_values(encoded, shots, rng):
    """(values, pair_constants) over the pairs i < j of real inputs, in
    order: the (top=0) outcome counts or probabilities of the multi-state
    circuit, summed per pair through the pair map."""
    w = encoded[0].num_qubits
    padded = circuits.pad_inputs(encoded, w)
    m = len(padded)
    pair_map = circuits.derive_pair_map(m)
    circuit = circuits.build_multiswap_full(m, w)
    state = circuits.simulate(circuit, padded)
    measured = circuit.layout.ancilla_count
    if math.isfinite(shots):
        table = statevec.sample_outcomes(state, measured, shots, rng)
    else:
        table = statevec.exact_marginal(state, measured)
    # the top ancilla is the most significant bit: top = 0 is the first half
    values = pair_map.reduce_by_pair(table[: table.size // 2])
    real = np.triu_indices(m, 1)[1] < len(encoded)  # padding comes last
    # each pair's pair_constant, multiplicity / 2^(d+1): the multiplicity is
    # its count of outcomes, an exact small integer over a power of two
    ones = np.ones(len(pair_map.pairs))
    constants = pair_map.reduce_by_pair(ones)[real] / 2.0 ** (pair_map.d + 1)
    return values[real], constants


def compare_graphs(reference: EpsilonGraph, estimate: EpsilonGraph) -> GraphDiff:
    """Exact edge-set differences: reference-only edges are false negatives,
    estimate-only edges are false positives.  Equal edge sets, as every
    correct classical run gives, skip the set differences."""
    if reference.n != estimate.n:
        raise ValueError(
            f"graphs have different vertex counts: {reference.n} vs {estimate.n}"
        )
    if np.array_equal(reference.codes, estimate.codes):
        missing, spurious = np.zeros((2, 0), dtype=np.int64)
    else:
        missing = np.setdiff1d(reference.codes, estimate.codes, assume_unique=True)
        spurious = np.setdiff1d(estimate.codes, reference.codes, assume_unique=True)
    missing.flags.writeable = spurious.flags.writeable = False
    return GraphDiff(false_negatives=missing, false_positives=spurious)
