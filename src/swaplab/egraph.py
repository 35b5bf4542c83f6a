"""Point clouds, their quantum encodings, and epsilon-graph constructors.

Three routes produce the same graph object: exact brute force over all
n(n-1)/2 distances, a kd-tree fixed-radius search (identical edge set,
different work pattern, instrumented with visited-node counters), and the
quantum pipeline.  Its standard and naive modes (per-pair swap tests, the
naive battery) decide each pair from the closed-form swap-test law
p = (1 + |<a|b>|^2)/2 over one Gram product of the encodings; the multi mode
still simulates the recursive multi-state circuit on the state vector, as do
the ``swap-test`` and ``eq1-audit`` runners.

Edges use the strict inequality distance < eps.  The quantum routes operate
on amplitude-encoded *normalized* points and estimate sqrt(2*(1-|u.w|)), so
classical and quantum targets coincide exactly on unit-norm clouds with
non-negative pairwise dot products; tests use such clouds.

Constructors are pure given (inputs, seed).  Per-pair sampling streams are
derived from the master seed as SeedSequence([seed, i, j]), so results are
independent of evaluation order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Sequence

import numpy as np

from . import circuits, statevec, stats
from .statevec import ResourceError, StateVector


@dataclass(frozen=True)
class PointCloud:
    """Finite set of d-dimensional real points (rows of ``points``)."""

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
        if pts.shape[1] < 1:
            raise ValueError("points must have dimension >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must have finite coordinates")
        if self.labels is not None and len(self.labels) != pts.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {pts.shape[0]} points"
            )
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


@dataclass(frozen=True)
class EpsilonGraph:
    """Undirected graph with edges exactly between points at distance < eps.
    Edges are stored canonically as (i, j) with i < j."""

    n: int
    eps: float
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) invalid for n={self.n}")


@dataclass(frozen=True)
class GraphDiff:
    """Edges missing from the estimate (false negatives) and spurious edges
    present only in the estimate (false positives)."""

    false_negatives: frozenset[tuple[int, int]]
    false_positives: frozenset[tuple[int, int]]

    @property
    def fn_count(self) -> int:
        return len(self.false_negatives)

    @property
    def fp_count(self) -> int:
        return len(self.false_positives)


def brute_force_egraph(cloud: PointCloud, eps: float) -> EpsilonGraph:
    """All n(n-1)/2 squared distances against eps^2, strict inequality."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    pts = cloud.points
    n = len(cloud)
    eps_sq = eps * eps
    if n <= 2000:
        ii, jj = np.triu_indices(n, 1)
        d_sq = ((pts[ii] - pts[jj]) ** 2).sum(axis=1)
        mask = d_sq < eps_sq
        edges = frozenset(zip(ii[mask].tolist(), jj[mask].tolist()))
        return EpsilonGraph(n, eps, edges)
    # row-by-row variant keeps memory linear for large clouds
    edges = set()
    for i in range(n):
        d_sq = np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1)
        hits = np.nonzero(d_sq < eps_sq)[0]
        edges.update(zip([i] * hits.size, (hits + i + 1).tolist()))
    return EpsilonGraph(n, eps, frozenset(edges))


LEAF_SIZE = 32

# Relative margin, per dimension, by which a box's squared gap must exceed
# radius**2 before the box is pruned.  It covers the rounding of any
# summation order, so a pruned box never holds a point that the leaf test
# (numpy's own summation order) would accept.
_PRUNE_SLACK = 4.0 * np.finfo(float).eps


class KDTree:
    """Bucketed kd-tree held in flat arrays.

    Median splits on cycling axes stop at leaves of at most ``LEAF_SIZE``
    points.  ``order`` permutes the point indices and ``pts`` is the
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

    def __len__(self) -> int:
        return self.n

    def range_query(self, center: Sequence[float], radius: float) -> list[int]:
        """Indices of the points at strict distance < radius from center.

        A depth-first walk prunes every node whose box lies at distance
        >= radius (by the margin of ``_PRUNE_SLACK``), then tests the points
        of the surviving leaves in one expression, the squared-distance form
        brute_force_egraph uses, so the two constructors decide every pair
        alike.
        """
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
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
        hit = ((self.pts[slots] - c) ** 2).sum(axis=1) < r_sq
        self.queries += 1
        self.last_visited = visited
        self.total_visited += visited
        return self.order[slots[hit]].tolist()


def kdtree_egraph(cloud: PointCloud, eps: float) -> EpsilonGraph:
    """Same edge set as brute_force_egraph, built with one range query per
    point, keeping the hits j > i."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    tree = KDTree(cloud)
    edges = []
    for i, point in enumerate(cloud.points):
        edges.extend((i, j) for j in tree.range_query(point, eps) if j > i)
    return EpsilonGraph(len(cloud), eps, frozenset(edges))


def encode_point(v: Sequence[float]) -> StateVector:
    """Amplitude encoding of v/||v|| into ceil(log2 len(v)) qubits (one qubit
    for length <= 2), padding with zero amplitudes up to a power of two.
    Inner products of encodings equal normalized dot products exactly."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    if vec.size < 1:
        raise ValueError("cannot encode an empty vector")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("cannot encode a zero or non-finite vector")
    num_qubits = max(1, math.ceil(math.log2(vec.size)))
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[: vec.size] = vec / norm
    return StateVector(num_qubits, amps)


GraphMode = Literal["standard", "naive", "multi"]

# picked up by tests and reports: quantum runs with a non-finite shot budget
# use exact marginals instead of sampling
EXACT_SHOTS = math.inf


def _is_exact(shots) -> bool:
    return not math.isfinite(shots)


def quantum_egraph(
    cloud: PointCloud,
    eps: float,
    shots,
    mode: GraphMode = "standard",
    seed: int = 0,
) -> tuple[EpsilonGraph, list[stats.OverlapEstimate]]:
    """Build the epsilon graph by simulated quantum distance estimation.

    standard/naive: one swap test per pair, ``shots`` repetitions each, edge
    iff p_hat > alpha_eps_standard(eps) (strictly).  No circuit is simulated:
    the ancilla-0 probability p_ij = (1 + G_ij)/2 comes from one Gram product
    G = |A* A^T|^2 of the stacked encodings, clipped to [0, 1], and a sampled
    pair draws Binomial(shots, p_ij) from its own stream.  The two modes share
    the decision path; they differ only in gate-count accounting.

    multi: one padded multi-state circuit, ``shots`` total executions; counts
    of (top=0, mid outcome) are aggregated per pair through the derived
    outcome map and compared against the pair's own calibrated threshold
    pair_constant * ((1-eps^2/2)^2 + 1), so the infinite-shot limit
    reproduces the brute-force graph regardless of outcome multiplicities.
    Pairs involving padding registers are discarded.

    Pass shots = math.inf for exact (infinite-shot) decisions.  Deterministic
    for a given seed.
    """
    if mode not in ("standard", "naive", "multi"):
        raise ValueError(f"unknown mode {mode!r}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not _is_exact(shots):
        shots = int(shots)
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
    encoded = []
    for i, point in enumerate(cloud.points):
        try:
            encoded.append(encode_point(point))
        except ValueError as exc:
            raise ValueError(f"point {i}: {exc}") from None
    n = len(encoded)
    if n < 2:
        return EpsilonGraph(n, eps, frozenset()), []
    if mode == "multi":
        return _multi_egraph(cloud, encoded, eps, shots, seed)

    alpha = stats.alpha_eps_standard(eps)
    # swap-test law p_ij = (1 + |<a_i|a_j>|^2)/2 over one Gram product; the
    # clip catches duplicate points, whose |G|^2 can round a hair above 1
    amps = np.stack([state.amplitudes for state in encoded])
    probs = np.clip((1.0 + np.abs(amps.conj() @ amps.T) ** 2) / 2.0, 0.0, 1.0)
    edges = set()
    estimates = []
    for i, j in combinations(range(n), 2):
        p = float(probs[i, j])
        if _is_exact(shots):
            est = stats.estimate_from_probability(p, "standard", pair=(i, j))
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
            hits = int(rng.binomial(shots, p))
            est = stats.estimate_from_counts(hits, shots, "standard", pair=(i, j))
        estimates.append(est)
        if est.p_hat > alpha:
            edges.add((i, j))
    return EpsilonGraph(n, eps, frozenset(edges)), estimates


def _multi_egraph(cloud, encoded, eps, shots, seed):
    w = encoded[0].num_qubits
    padded = circuits.pad_inputs(encoded, w)
    m = len(padded)
    circuit = circuits.build_multiswap_full(m, w)
    if circuit.layout.total_qubits > statevec.MAX_QUBITS:
        raise ResourceError(
            f"multi-state circuit needs {circuit.layout.total_qubits} qubits "
            f"for {m} padded inputs of width {w}"
        )
    pair_map = circuits.derive_pair_map(m)
    state = circuits.simulate(circuit, padded)
    measured = circuit.layout.measured_qubits
    threshold_scale = (1.0 - eps * eps / 2.0) ** 2 + 1.0
    if _is_exact(shots):
        table = statevec.exact_marginal(state, measured)
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        table = statevec.sample_outcomes(state, measured, shots, rng)

    n = len(cloud)
    hits_by_pair: dict[tuple[int, int], float] = {}
    for bits, value in table.items():
        if bits[0] != 0:
            continue
        a, b = pair_map.entries[bits[1:]]
        key = (min(a, b), max(a, b))
        hits_by_pair[key] = hits_by_pair.get(key, 0.0) + value

    edges = set()
    estimates = []
    for a, b in sorted(hits_by_pair):
        i, j = a - 1, b - 1  # register labels are 1-based
        if j >= n:
            continue  # padding register
        c_pair = pair_map.pair_constant(a, b)
        alpha_pair = c_pair * threshold_scale
        if _is_exact(shots):
            p_hat = hits_by_pair[(a, b)]
            est = stats.estimate_from_probability(
                p_hat, "multi", n=m, constant=c_pair, pair=(i, j)
            )
        else:
            hits = int(hits_by_pair[(a, b)])
            est = stats.estimate_from_counts(
                hits, shots, "multi", n=m, constant=c_pair, pair=(i, j)
            )
        estimates.append(est)
        if est.p_hat > alpha_pair:
            edges.add((i, j))
    return EpsilonGraph(n, eps, frozenset(edges)), estimates


def compare_graphs(reference: EpsilonGraph, estimate: EpsilonGraph) -> GraphDiff:
    """Exact edge-set differences: reference-only edges are false negatives,
    estimate-only edges are false positives."""
    if reference.n != estimate.n:
        raise ValueError(
            f"graphs have different vertex counts: {reference.n} vs {estimate.n}"
        )
    return GraphDiff(
        false_negatives=frozenset(reference.edges - estimate.edges),
        false_positives=frozenset(estimate.edges - reference.edges),
    )


def write_edge_list(
    path,
    graph: EpsilonGraph,
    estimates: Sequence[stats.OverlapEstimate] = (),
) -> None:
    """CSV edge list: columns i, j, distance_estimate (empty when no
    estimate exists for the pair, as in the classical modes)."""
    by_pair = {est.pair: est for est in estimates if est.pair is not None}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "distance_estimate"])
        for i, j in sorted(graph.edges):
            est = by_pair.get((i, j))
            writer.writerow(
                [i, j, "" if est is None else f"{est.distance_hat:.17g}"]
            )
