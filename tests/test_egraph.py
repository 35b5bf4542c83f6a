import math
import re
import tempfile
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial.distance import pdist

from swaplab import circuits
from swaplab import egraph as eg
from swaplab import statevec as sv
from swaplab import stats

from oracles import (
    chernoff_upper,
    edge_set,
    multi_pair_probabilities,
    per_pair_swap_tests,
    quantum_graph,
    whole_gram_swap_tests,
)


def ring_cloud(num, step_deg=12.0):
    """Unit vectors fanned over a sub-90-degree arc: classical and quantum
    distance notions coincide (all dot products non-negative)."""
    angles = [math.radians(step_deg * k) for k in range(num)]
    return eg.PointCloud(np.array([[math.cos(a), math.sin(a)] for a in angles]))


class TestPointCloud:
    def test_dim_and_len(self):
        cloud = eg.PointCloud(np.zeros((3, 2)))
        assert cloud.dim == 2 and len(cloud) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eg.PointCloud(np.array([[1.0, np.nan]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            eg.PointCloud(np.array([1.0, 2.0]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y\n1.0,2.0\n3.5,-1.25\n")
        cloud = eg.load_point_cloud(path)
        assert cloud.dim == 2 and len(cloud) == 2
        assert np.allclose(cloud.points, [[1.0, 2.0], [3.5, -1.25]])

    def test_csv_no_header(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("1,2,3\n4,5,6\n")
        assert len(eg.load_point_cloud(path)) == 2

    def test_csv_ragged_row_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            eg.load_point_cloud(path)

    def test_csv_non_numeric_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            eg.load_point_cloud(path)

    def test_csv_part_numeric_first_row_is_data(self, tmp_path):
        # a first row with some numeric cells is a bad data row, not a header
        path = tmp_path / "bad.csv"
        path.write_text("1.0,abc\n2,3\n4,5\n")
        with pytest.raises(ValueError, match="row 1, column 2: not a finite number: 'abc'"):
            eg.load_point_cloud(path)

    def test_csv_non_finite_cell_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n3,nan\n")
        with pytest.raises(ValueError, match="row 3, column 2: not a finite number: 'nan'"):
            eg.load_point_cloud(path)

    def test_csv_part_numeric_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,2\n2,3\n4,5\n")
        with pytest.raises(ValueError, match="row 1, column 1"):
            eg.load_point_cloud(path)

    def test_csv_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("\nx,y,z\n1,2,3\n4,5,6\n7,8,9\n")
        cloud = eg.load_point_cloud(path)
        assert np.array_equal(cloud.points, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def _not_a_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return True
    return False


@st.composite
def cloud_csv(draw):
    """A finite point cloud and its CSV text: .17g cells, and with or
    without a header row of non-numeric cells."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 4))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=n * dim, max_size=n * dim,
        )
    )
    points = np.array(values).reshape(n, dim)
    lines = [",".join(format(v, ".17g") for v in row) for row in points]
    names = st.text(st.characters(whitelist_categories=("L",)), min_size=1,
                    max_size=5).filter(_not_a_number)
    if draw(st.booleans()):
        lines.insert(0, ",".join(draw(st.lists(names, min_size=dim, max_size=dim))))
    return points, "\n".join(lines) + "\n"


@given(cloud_csv())
@settings(max_examples=200, deadline=None)
def test_load_point_cloud_round_trip(case):
    points, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cloud.csv"
        path.write_text(text)
        loaded = eg.load_point_cloud(path).points
    assert loaded.shape == points.shape
    assert np.array_equal(loaded, points)


class TestBruteForce:
    def test_collinear(self):
        cloud = eg.PointCloud(np.array([[0.0], [1.0], [2.0]]))
        graph = eg.brute_force_egraph(cloud, 1.5)
        assert edge_set(graph) == {(0, 1), (1, 2)}

    def test_antipodal_within_sqrt2(self):
        cloud = eg.PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]) / math.sqrt(2))
        graph = eg.brute_force_egraph(cloud, math.sqrt(2) * 1.01)
        assert edge_set(graph) == {(0, 1)}

    def test_single_point(self):
        graph = eg.brute_force_egraph(eg.PointCloud(np.zeros((1, 3))), 1.0)
        assert edge_set(graph) == frozenset()

    def test_strict_inequality(self):
        cloud = eg.PointCloud(np.array([[0.0], [1.0]]))
        assert not edge_set(eg.brute_force_egraph(cloud, 1.0))
        assert edge_set(eg.brute_force_egraph(cloud, 1.0 + 1e-9))

    @pytest.mark.parametrize("n", [1, 2, 150, 2100])
    def test_matches_pdist_at_mid_gap_eps(self, n):
        assert_brute_force_matches_pdist(np.random.default_rng(n).uniform(0, 1, (n, 3)))


def assert_brute_force_matches_pdist(pts):
    # eps halfway between two neighbouring distinct distances, so no pair
    # sits within rounding of the threshold
    n = len(pts)
    dist = pdist(pts)
    gaps = np.unique(np.concatenate([dist, [0.0, 2.0]]))
    k = gaps.size // 2
    eps = (gaps[k - 1] + gaps[k]) / 2
    ii, jj = np.triu_indices(n, 1)
    graph = eg.brute_force_egraph(eg.PointCloud(pts), eps)
    assert np.array_equal(graph.codes, (ii * n + jj)[dist < eps])


def lr_sq_dist(a, b) -> float:
    """Squared distance as a left-to-right Python float sum over the
    coordinates, the order that egraph._sq_dists pins."""
    total = 0.0
    for x, y in zip(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()):
        total += (x - y) * (x - y)
    return total


def tie_eps(d_sq: float) -> float | None:
    """An eps with eps * eps == d_sq exactly, if a float near sqrt(d_sq) has one."""
    root = math.sqrt(d_sq)
    ties = [e for e in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf))
            if e * e == d_sq]
    return ties[0] if ties else None


class TestBruteForceTiles:
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_tiles_of_few_rows_match_pdist_and_a_pair_loop(self, monkeypatch, rows):
        # tiles of `rows` rows, with n around multiples of the tile height so
        # that the last tile is whole, one row short or one row long
        sizes = sorted({rows * k + d for k in (1, 2, 3, 7) for d in (-1, 0, 1)} - {0})
        for n in sizes:
            monkeypatch.setattr(eg, "_TILE_ELEMENTS", rows * n)
            rng = np.random.default_rng(1000 * rows + n)
            assert_brute_force_matches_pdist(rng.uniform(0, 1, (n, 3)))
            # a per-pair loop at a tie eps, dim 9, where the order of the sum
            # matters
            pts = rng.uniform(-1, 1, (n, 9)).round(2)
            d_sq = {(i, j): lr_sq_dist(pts[i], pts[j]) for i, j in combinations(range(n), 2)}
            eps = next(filter(None, map(tie_eps, d_sq.values())), 1.0)
            want = [i * n + j for (i, j), d in d_sq.items() if d < eps * eps]
            assert eg.brute_force_egraph(eg.PointCloud(pts), eps).codes.tolist() == want

    def test_peak_is_one_tile(self):
        # two float64 tiles, the distances and the kernel's scratch: 16 bytes
        # per entry of a tile of _TILE_ELEMENTS // n rows against n - 1 points
        n = 3000
        cloud = eg.PointCloud(np.random.default_rng(3).uniform(0, 1, (n, 3)))
        rows = eg._TILE_ELEMENTS // n
        tracemalloc.start()
        try:
            graph = eg.brute_force_egraph(cloud, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < graph.codes.size < 1000
        assert peak < 16 * rows * (n - 1) + 64 * 1024

    def test_edges_checked_in_bytes_tile_by_tile(self, monkeypatch):
        # 300 points within eps of each other hold 44,850 edges in two tiles;
        # under a 1 MiB ceiling the first tile's edges already exceed it
        n, pairs = 300, 44850
        cloud = eg.PointCloud(np.random.default_rng(4).uniform(0, 1, (n, 2)))
        monkeypatch.setattr(sv, "MAX_STATE_BYTES", 2**20)
        rows = eg._TILE_ELEMENTS // n
        found = sum(n - 1 - r for r in range(rows))
        named = (f"the edge list for n={n} points at eps=10.0, at {found} edges, "
                 f"needs {found * eg._EDGE_BYTES} bytes, over the ceiling of "
                 f"{2**20} bytes")
        with pytest.raises(sv.ResourceError, match=f"^{re.escape(named)}$"):
            eg.brute_force_egraph(cloud, 10.0)
        # one edge short of the whole list: each tile fits, the two do not
        monkeypatch.setattr(sv, "MAX_STATE_BYTES", (pairs - 1) * eg._EDGE_BYTES)
        with pytest.raises(sv.ResourceError, match=f", at {pairs} edges, needs"):
            eg.brute_force_egraph(cloud, 10.0)
        # a list of exactly the ceiling's bytes is built
        monkeypatch.setattr(sv, "MAX_STATE_BYTES", pairs * eg._EDGE_BYTES)
        assert eg.brute_force_egraph(cloud, 10.0).codes.size == pairs

    @pytest.mark.parametrize("dim", range(8, 13))
    def test_kernel_is_the_left_to_right_sum(self, dim):
        rng = np.random.default_rng(dim)
        block = rng.uniform(-1, 1, (30, dim)).round(3)
        points = rng.uniform(-1, 1, (40, dim)).round(3)
        got = eg._sq_dists(block, points)
        want = [[lr_sq_dist(a, b) for b in points] for a in block]
        assert got.tolist() == want
        # numpy's pairwise sum differs on some entry, so the test sees order
        pairwise = ((block[:, None, :] - points[None]) ** 2).sum(axis=2)
        assert not np.array_equal(got, pairwise)


@pytest.mark.parametrize("build", [eg.brute_force_egraph, eg.kdtree_egraph])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_eps_must_be_finite_and_positive(build, eps):
    cloud = eg.PointCloud(np.array([[0.0, 0.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match=f"eps must be finite and positive, got {eps}"):
        build(cloud, eps)


class TestKDTree:
    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
    def test_radius_must_be_finite_and_positive(self, radius):
        tree = eg.KDTree(eg.PointCloud(np.zeros((4, 2))))
        with pytest.raises(ValueError, match=f"finite and positive, got {radius}"):
            tree.range_query([0.0, 0.0], radius)

    def test_single_point(self):
        tree = eg.KDTree(eg.PointCloud(np.zeros((1, 2))))
        assert tree.depth() == 1
        assert tree.order.tolist() == [0]

    def test_eight_collinear_depth(self):
        tree = eg.KDTree(eg.PointCloud(np.arange(8.0).reshape(-1, 1)))
        assert tree.depth() <= 4

    def test_depth_bound_random(self):
        rng = np.random.default_rng(0)
        n = 200
        tree = eg.KDTree(eg.PointCloud(rng.uniform(0, 1, (n, 3))))
        assert tree.depth() <= math.ceil(math.log2(n)) + 1

    def test_in_order_recovers_every_point(self):
        rng = np.random.default_rng(5)
        cloud = eg.PointCloud(rng.normal(size=(137, 4)))
        tree = eg.KDTree(cloud)
        assert sorted(tree.order.tolist()) == list(range(137))

    def test_query_at_data_point_tiny_radius(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, (50, 3))
        tree = eg.KDTree(eg.PointCloud(pts))
        assert tree.range_query(pts[17], 1e-12).tolist() == [17]

    def test_radius_beyond_diameter_returns_all(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, (64, 2))
        tree = eg.KDTree(eg.PointCloud(pts))
        assert sorted(tree.range_query([0.5, 0.5], 10.0)) == list(range(64))

    def test_random_queries_match_brute_scan(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, (1000, 3))
        tree = eg.KDTree(eg.PointCloud(pts))
        for _ in range(50):
            center = rng.uniform(-0.1, 1.1, 3)
            radius = float(rng.uniform(0.05, 0.9))
            got = sorted(tree.range_query(center, radius))
            want = np.nonzero(((pts - center) ** 2).sum(axis=1) < radius**2)[0]
            assert got == want.tolist()

    def test_duplicates_supported(self):
        pts = np.array([[0.5, 0.5]] * 5 + [[0.1, 0.1]])
        tree = eg.KDTree(eg.PointCloud(pts))
        assert sorted(tree.range_query([0.5, 0.5], 0.01)) == [0, 1, 2, 3, 4]

    def test_dimension_mismatch(self):
        tree = eg.KDTree(eg.PointCloud(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            tree.range_query([0.0, 0.0, 0.0], 1.0)

    def test_egraph_equals_brute_force(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 5):
            pts = rng.uniform(0, 1, (300, dim))
            cloud = eg.PointCloud(pts)
            for eps in (0.1, 0.3, 0.8):
                assert (
                    edge_set(eg.kdtree_egraph(cloud, eps))
                    == edge_set(eg.brute_force_egraph(cloud, eps))
                )

    def test_clustered_cloud_prunes(self):
        # two far clusters, small eps: queries touch a small part of the tree
        rng = np.random.default_rng(15)
        pts = np.vstack(
            [rng.normal(0, 0.05, (500, 3)), rng.normal(100, 0.05, (500, 3))]
        )
        cloud = eg.PointCloud(pts)
        tree = eg.KDTree(cloud)
        visited = []
        for i in range(0, 1000, 37):
            tree.range_query(pts[i], 0.05)
            visited.append(tree.last_visited)
        avg_visited = sum(visited) / len(visited)
        # a ball that holds every box visits every node; the far cluster
        # alone is half of them
        tree.range_query(pts[0], 1e6)
        assert avg_visited < tree.last_visited / 2

    def test_queries_read_the_cloud_and_return_tree_order(self):
        # the tree holds no copy of the points, and a query's hits are the
        # cloud's indices of a brute scan, in the order tree.order lists them
        rng = np.random.default_rng(17)
        pts = np.vstack([rng.normal(0, 0.05, (300, 3)), rng.normal(1, 0.05, (300, 3))])
        pts = pts[rng.permutation(600)]
        cloud = eg.PointCloud(pts)
        tree = eg.KDTree(cloud)
        assert np.shares_memory(tree.points, cloud.points)
        floats = [v for v in vars(tree).values()
                  if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
        assert all(np.shares_memory(v, cloud.points) for v in floats)
        sizes = []
        for i in range(0, 600, 29):
            hits = tree.range_query(pts[i], 0.08)
            inside = eg._sq_dists(pts[i][None], pts)[0] < 0.08**2
            assert hits.tolist() == tree.order[inside[tree.order]].tolist()
            sizes.append(hits.size)
        assert min(sizes) > 1 and max(sizes) > eg.LEAF_SIZE

    def test_nearest_pair_across_leaves_just_inside_eps(self):
        # two leaves on a line, the last point of the first at 1 and the
        # first point of the second at 1 + d: at eps a hair above d each
        # leaf's box sits just inside the other point's ball, which a prune
        # rule stricter than radius**2 cuts
        L, d = eg.LEAF_SIZE, 0.25
        line = np.linspace(0.0, 1.0, L)
        pts = np.concatenate([line, 1.0 + d + line])[:, None]
        cloud = eg.PointCloud(pts)
        tree = eg.KDTree(cloud)
        assert sorted(tree.order[:L].tolist()) == list(range(L))  # a leaf per side
        eps = d * (1.0 + 1e-11)
        edges = edge_set(eg.kdtree_egraph(cloud, eps))
        assert (L - 1, L) in edges
        assert edges == edge_set(eg.brute_force_egraph(cloud, eps))
        assert L in tree.range_query(pts[L - 1], eps).tolist()
        assert L - 1 in tree.range_query(pts[L], eps).tolist()


def around_leaf_size(*kept):
    """Cloud sizes one below, at and one above a kd leaf, L = eg.LEAF_SIZE,
    and 2L + 1, past two leaves, with the sizes ``kept``."""
    L = eg.LEAF_SIZE
    return sorted({*kept, L - 1, L, L + 1, 2 * L + 1})


@st.composite
def lattice_cloud_and_tie_eps(draw):
    """Integer-lattice cloud in dims 1-5 (small sides make duplicates), with
    n around the leaf size, and eps equal to one of its pairwise distances,
    so some pairs sit exactly on the strict-< boundary."""
    dim = draw(st.integers(1, 5))
    sizes = around_leaf_size(31, 32, 33, 64, 65, 66, 130)
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from(sizes)))
    side = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(0, side + 1, (n, dim)).astype(float)
    d_sq = sorted({int(v) for v in ((pts[:, None] - pts[None]) ** 2).sum(axis=2).ravel()})
    eps = math.sqrt(draw(st.sampled_from([v for v in d_sq if v > 0] or [1])))
    return pts, eps


@st.composite
def rounded_cloud_and_tie_eps(draw):
    """Cloud in dims 8-12 with coordinates rounded to 1-3 decimals, which are
    not binary fractions, so squared differences round and a sum of 8 or
    more of them depends on its order (numpy's pairwise sum against a sum
    column by column).  eps*eps equals one pair's squared distance exactly,
    as the left-to-right sum gives it, so that pair sits on the strict-<
    boundary."""
    dim = draw(st.integers(8, 12))
    sizes = around_leaf_size(33, 65, 130)
    n = draw(st.one_of(st.integers(2, 40), st.sampled_from(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, (n, dim)).round(draw(st.integers(1, 3)))
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 1, n - 1))
    d_sq = lr_sq_dist(pts[i], pts[j])
    eps = tie_eps(d_sq)
    assume(d_sq > 0.0 and eps is not None)
    return pts, eps


class TestKDTreeTies:
    @staticmethod
    def _assert_kdtree_matches_brute_force(pts, eps):
        cloud = eg.PointCloud(pts)
        assert edge_set(eg.kdtree_egraph(cloud, eps)) == edge_set(eg.brute_force_egraph(cloud, eps))
        tree = eg.KDTree(cloud)
        for center in pts[:: max(1, len(pts) // 8)]:
            want = [k for k, p in enumerate(pts) if lr_sq_dist(p, center) < eps * eps]
            assert sorted(tree.range_query(center, eps).tolist()) == want

    @given(lattice_cloud_and_tie_eps())
    @settings(max_examples=150, deadline=None)
    def test_kdtree_matches_brute_force_at_ties(self, case):
        self._assert_kdtree_matches_brute_force(*case)

    @given(rounded_cloud_and_tie_eps())
    @settings(max_examples=150, deadline=None)
    def test_kdtree_matches_brute_force_at_rounded_ties_in_dims_8_to_12(self, case):
        self._assert_kdtree_matches_brute_force(*case)


class TestEncodePoint:
    def test_basis(self):
        assert np.allclose(eg.encode_point([1.0, 0.0]).amplitudes, [1, 0])

    def test_diagonal(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(eg.encode_point([1.0, 1.0]).amplitudes, [s, s])

    def test_normalizes(self):
        state = eg.encode_point([3.0, 4.0])
        assert np.allclose(state.amplitudes, [0.6, 0.8])

    def test_dot_products_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            u = rng.normal(size=6)
            w = rng.normal(size=6)
            got = abs(sv.inner_product(eg.encode_point(u), eg.encode_point(w)))
            want = abs(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
            assert got == pytest.approx(want, abs=1e-12)

    def test_pads_to_power_of_two(self):
        state = eg.encode_point([1.0, 2.0, 3.0, 4.0, 5.0])
        assert state.num_qubits == 3
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            eg.encode_point([0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e307, 1e-310])
    def test_squares_out_of_range(self, scale):
        # finite, nonzero vectors whose squared norm over- or underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = eg.encode_point([3.0 * scale, -4.0 * scale])
        assert np.allclose(state.amplitudes, [0.6, -0.8])

    def test_encoding_isometry(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            w = rng.normal(size=4)
            w /= np.linalg.norm(w)
            quantum = stats.overlap_to_distance(
                abs(sv.inner_product(eg.encode_point(u), eg.encode_point(w)))
            )
            classical = math.sqrt(2 * (1 - abs(u @ w)))
            assert quantum == pytest.approx(classical, abs=1e-10)


class TestQuantumEgraphExact:
    @pytest.mark.parametrize("mode", ["standard", "naive", "multi"])
    def test_exact_mode_reproduces_brute_force(self, mode):
        cloud = ring_cloud(8)
        reference = eg.brute_force_egraph(cloud, 0.7)
        graph, estimates = quantum_graph(cloud, 0.7, eg.EXACT_SHOTS, mode, seed=0)
        assert edge_set(graph) == edge_set(reference)
        assert len(estimates.p_hat) == 28

    def test_exact_mode_distance_estimates(self):
        cloud = ring_cloud(8)
        _, estimates = quantum_graph(cloud, 0.7, eg.EXACT_SHOTS, "standard", 0)
        pts = cloud.points
        i, j = np.triu_indices(len(cloud), 1)
        assert estimates.distance_hat == pytest.approx(
            np.linalg.norm(pts[i] - pts[j], axis=1), abs=1e-9
        )

    def test_multi_exact_distance_estimates(self):
        cloud = ring_cloud(8)
        _, estimates = quantum_graph(cloud, 0.7, eg.EXACT_SHOTS, "multi", 0)
        pts = cloud.points
        assert len(estimates.p_hat) == 28
        i, j = np.triu_indices(len(cloud), 1)
        assert estimates.distance_hat == pytest.approx(
            np.linalg.norm(pts[i] - pts[j], axis=1), abs=1e-9
        )

    def test_padding_pairs_dropped(self):
        cloud = ring_cloud(5)  # padded to 8 registers internally
        graph, estimates = quantum_graph(cloud, 0.7, eg.EXACT_SHOTS, "multi", 0)
        assert graph.n == 5
        assert len(estimates.p_hat) == 10
        # the real pairs keep their order: row k is the k-th pair of the 5
        oracle = multi_pair_probabilities(cloud)
        assert list(oracle) == list(zip(*np.triu_indices(5, 1)))
        assert estimates.p_hat.tolist() == [p for p, _ in oracle.values()]
        assert edge_set(graph) == edge_set(eg.brute_force_egraph(cloud, 0.7))

    def test_exact_mode_dim3_wide_registers(self):
        # 3-D points need width-2 registers; per-qubit swap expansion must
        # preserve the decision law
        pts = np.array(
            [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
        )
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cloud = eg.PointCloud(pts)
        reference = eg.brute_force_egraph(cloud, 0.8)
        assert edge_set(reference) == {(0, 1), (1, 2), (1, 3)}
        for mode in ("standard", "multi"):
            graph, _ = quantum_graph(cloud, 0.8, eg.EXACT_SHOTS, mode, 0)
            assert edge_set(graph) == edge_set(reference)

    def test_symmetry_and_no_loops(self):
        cloud = ring_cloud(6)
        for mode in ("standard", "multi"):
            graph, _ = quantum_graph(cloud, 0.9, eg.EXACT_SHOTS, mode, 0)
            for i, j in edge_set(graph):
                assert i < j < graph.n


class TestQuantumEgraphSampled:
    def test_same_seed_same_graph(self):
        cloud = ring_cloud(6)
        a, ea = quantum_graph(cloud, 0.7, 200, "standard", seed=5)
        b, eb = quantum_graph(cloud, 0.7, 200, "standard", seed=5)
        assert edge_set(a) == edge_set(b)
        assert ea.hits.tolist() == eb.hits.tolist()

    def test_different_seed_can_differ(self):
        cloud = ring_cloud(6)
        results = {
            edge_set(quantum_graph(cloud, 0.7, 20, "standard", seed=s)[0])
            for s in range(8)
        }
        assert len(results) > 1  # 20 shots is noisy on purpose

    @pytest.mark.parametrize("mode", ["standard", "naive", "multi"])
    def test_one_generator_per_run(self, monkeypatch, mode):
        # every sampled count of a run comes from one Generator, seeded
        # SeedSequence([seed])
        real_default_rng = np.random.default_rng
        seeds = []

        def spy(seed=None):
            seeds.append(getattr(seed, "state", seed))  # a SeedSequence's state
            return real_default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        quantum_graph(ring_cloud(6), 0.7, 100, mode, seed=9)
        assert seeds == [np.random.SeedSequence([9]).state]

    def test_naive_shares_decision_path(self):
        cloud = ring_cloud(5)
        a, _ = quantum_graph(cloud, 0.7, 300, "standard", seed=2)
        b, _ = quantum_graph(cloud, 0.7, 300, "naive", seed=2)
        assert edge_set(a) == edge_set(b)

    def test_multi_sampled_converges(self):
        cloud = ring_cloud(8)
        reference = eg.brute_force_egraph(cloud, 0.7)
        graph, estimates = quantum_graph(cloud, 0.7, 2_000_000, "multi", seed=11)
        assert edge_set(graph) == edge_set(reference)
        total_hits = int(estimates.hits.sum())
        assert 0 < total_hits <= 2_000_000

    def test_no_false_positives_on_separated_cloud(self):
        """Well-separated pairs with a shot budget sized by the bound
        machinery: no spurious edges in >= 95 of 100 seeded runs."""
        angles = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        cloud = eg.PointCloud(
            np.array([[math.cos(a), math.sin(a)] for a in angles])
        )
        eps = 0.4
        alpha = stats.alpha_eps_standard(eps)
        worst_p = 0.75  # largest pair success probability in this cloud
        shots = 2 * math.ceil(
            math.log(1 / 0.05) / stats.kl_bernoulli(alpha, worst_p)
        )
        clean = 0
        for run in range(100):
            graph, _ = quantum_graph(cloud, eps, shots, "standard", seed=run)
            clean += not edge_set(graph)
        assert clean >= 95

    def test_false_negative_rate_within_bounds(self):
        """Designed neighbour pair at aligned threshold: the observed
        false-negative frequency over 10^4 sampled trials stays inside
        [lower - 4 sigma, upper + 4 sigma]."""
        alpha = stats.alpha_eps_standard(1.0)  # 0.625
        a = sv.make_qubit_state(0.0, 0.0)
        b = sv.make_qubit_state(math.pi / 2, 0.0)
        state = circuits.simulate(circuits.build_swap_test(1), [a, b])
        p_pair = sv.exact_marginal(state, 1)[0]
        N = 40  # N*(1-alpha) = 15: aligned, so both bounds apply
        assert stats.threshold_aligned(N, alpha)
        trials = 10**4
        fn = 0
        for stream in np.random.SeedSequence(424242).spawn(trials):
            counts = sv.sample_outcomes(state, 1, N, np.random.default_rng(stream))
            fn += (counts[0] / N) <= alpha
        freq = fn / trials
        xi = stats.false_negative_exact(N, alpha, p_pair)
        sigma = math.sqrt(xi * (1 - xi) / trials)
        assert abs(freq - xi) <= 4 * sigma
        assert stats.chernoff_lower(N, alpha, p_pair) - 4 * sigma <= freq
        assert freq <= chernoff_upper(N, alpha, p_pair) + 4 * sigma

    def test_zero_point_is_named(self):
        pts = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 0.0], [0.0, 1.0]])
        for mode in ("standard", "multi"):
            with pytest.raises(ValueError, match="point 2: cannot encode"):
                eg.quantum_egraph(eg.PointCloud(pts), 0.7, 100, mode, 0)

    @pytest.mark.parametrize("mode", ["standard", "naive", "multi"])
    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5, 2.0])
    def test_eps_beyond_sqrt2_is_rejected(self, mode, eps):
        # past sqrt(2) the threshold law no longer decides distance < eps:
        # at eps = 2 brute force joins all six pairs of this quarter circle,
        # while p_hat > c * ((1 - eps^2/2)^2 + 1) joins none
        cloud = eg.PointCloud(np.array([[1, 0], [0.8, 0.6], [0.6, 0.8], [0, 1]]))
        with pytest.raises(ValueError, match=rf"eps .*{eps}"):
            eg.quantum_egraph(cloud, eps, eg.EXACT_SHOTS, mode, 0)

    def test_shots_validation(self):
        cloud = ring_cloud(4)
        with pytest.raises(ValueError):
            eg.quantum_egraph(cloud, 0.7, 0, "standard", 0)
        with pytest.raises(ValueError):
            eg.quantum_egraph(cloud, 0.7, 100, "bogus", 0)


def unit_cloud(dim, seed, num=14, duplicates=False):
    """Seeded unit-norm cloud of non-negative points with every third point
    negated, so <a|b> takes both signs.  With ``duplicates``, copies of four
    points and rescaled copies of four more are appended: pairs whose
    |<a|b>|^2 rounds a hair above 1."""
    rng = np.random.default_rng(seed)
    pts = np.abs(rng.normal(size=(num, dim)))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[::3] *= -1.0
    if duplicates:
        pts = np.vstack([pts, pts[:4], 3.0 * pts[4:8]])
    return eg.PointCloud(pts)


class TestQuantumEgraphClosedForm:
    """The standard and naive modes against the per-pair state-vector route."""

    @pytest.mark.parametrize("dim", [2, 3, 6])  # register widths 1, 2, 3
    @pytest.mark.parametrize("mode", ["standard", "naive"])
    @pytest.mark.parametrize("shots", [eg.EXACT_SHOTS, 1000])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_per_pair_simulation(self, dim, mode, shots, duplicates):
        cloud = unit_cloud(dim, seed=dim, duplicates=duplicates)
        eps, seed = 0.8, 17
        graph, estimates = quantum_graph(cloud, eps, shots, mode, seed)
        oracle = per_pair_swap_tests(cloud, shots, seed)
        assert list(zip(*np.triu_indices(len(cloud), 1))) == list(oracle)
        if shots == eg.EXACT_SHOTS:
            assert np.all(np.abs(estimates.p_hat - list(oracle.values())) <= 1e-15)
        else:
            assert estimates.hits.tolist() == list(oracle.values())
        alpha = stats.alpha_eps_standard(eps)
        p_oracle = {
            pair: value if shots == eg.EXACT_SHOTS else value / shots
            for pair, value in oracle.items()
        }
        assert edge_set(graph) == {pair for pair, p in p_oracle.items() if p > alpha}
        assert 0 < len(edge_set(graph)) < len(oracle)

    @pytest.mark.parametrize("mode", ["standard", "naive"])
    @pytest.mark.parametrize("shots", [eg.EXACT_SHOTS, 50])
    def test_no_circuit_is_simulated(self, monkeypatch, mode, shots):
        def refuse(*args, **kwargs):
            raise AssertionError("circuits.simulate called")

        monkeypatch.setattr(circuits, "simulate", refuse)
        cloud = unit_cloud(3, seed=0, duplicates=True)
        _, estimates = quantum_graph(cloud, 0.8, shots, mode, seed=1)
        assert len(estimates.p_hat) == len(cloud) * (len(cloud) - 1) // 2

    @pytest.mark.parametrize("mode", ["standard", "naive"])
    @pytest.mark.parametrize("shots", [eg.EXACT_SHOTS, 50])
    def test_edges_checked_in_bytes_tile_by_tile(self, monkeypatch, mode, shots):
        # 300 unit vectors within 30 degrees, every pair an edge at
        # eps = sqrt(2): 44,850 edges in two tiles; under a 1 MiB ceiling the
        # first tile's edges already exceed it
        n, pairs, eps = 300, 44850, math.sqrt(2)
        angles = np.linspace(0.0, math.radians(30), n)
        cloud = eg.PointCloud(np.column_stack([np.cos(angles), np.sin(angles)]))
        monkeypatch.setattr(sv, "MAX_STATE_BYTES", 2**20)
        rows = eg._TILE_ELEMENTS // n
        found = sum(n - 1 - r for r in range(rows))
        named = (f"the edge list for n={n} points at eps={eps}, at {found} edges, "
                 f"needs {found * eg._EDGE_BYTES} bytes, over the ceiling of "
                 f"{2**20} bytes")
        tiles = eg.quantum_egraph(cloud, eps, shots, mode, seed=1)
        with pytest.raises(sv.ResourceError, match=f"^{re.escape(named)}$"):
            next(tiles)
        # one edge short of the whole list: each tile fits, the two do not
        monkeypatch.setattr(sv, "MAX_STATE_BYTES", (pairs - 1) * eg._EDGE_BYTES)
        tiles = eg.quantum_egraph(cloud, eps, shots, mode, seed=1)
        assert np.count_nonzero(next(tiles)[3]) == found
        with pytest.raises(sv.ResourceError, match=f", at {pairs} edges, needs"):
            next(tiles)
        # a list of exactly the ceiling's bytes is built
        monkeypatch.setattr(sv, "MAX_STATE_BYTES", pairs * eg._EDGE_BYTES)
        assert quantum_graph(cloud, eps, shots, mode, seed=1)[0].codes.size == pairs

    @pytest.mark.parametrize("shots", [eg.EXACT_SHOTS, 1000])
    def test_two_row_floor_keeps_the_whole_gram_bits(self, monkeypatch, shots):
        # _TILE_ELEMENTS = n would give tiles of one row, whose Gram product
        # takes numpy's matrix-vector path and other bits; the floor of two
        # rows keeps every tile on the matrix product of the whole Gram
        n = 200
        cloud = unit_cloud(7, seed=5, num=n)  # 8 amplitudes a point
        monkeypatch.setattr(eg, "_TILE_ELEMENTS", n)
        assert eg._TILE_ELEMENTS // n == 1 and eg._row_tiles(n)[0] == (0, 2)
        graph, estimates = quantum_graph(cloud, 0.8, shots, "standard", seed=3)
        codes, p_hat = whole_gram_swap_tests(cloud, 0.8, shots, seed=3)
        assert 0 < codes.size < n * (n - 1) // 2
        assert graph.codes.tolist() == codes.tolist()
        assert estimates.p_hat.tobytes() == p_hat.tobytes()


class TestMultiPairMapCap:
    @pytest.mark.parametrize("shots", [eg.EXACT_SHOTS, 50])
    def test_refused_before_the_circuit_is_built(self, monkeypatch, shots):
        # 65 points pad to 128 registers, past the pair map's cap of 64
        def refuse(*args, **kwargs):
            raise AssertionError("circuits.build_multiswap_full called")

        monkeypatch.setattr(circuits, "build_multiswap_full", refuse)
        cloud = unit_cloud(3, seed=4, num=65)
        with pytest.raises(sv.ResourceError, match="^pair map enumeration is capped at n=64"):
            eg.quantum_egraph(cloud, 0.8, shots, "multi", seed=1)


class TestCompareGraphs:
    def test_identical(self, monkeypatch):
        g = eg.EpsilonGraph(3, 1.0, [1])  # (0, 1)
        diff = eg.compare_graphs(g, g)
        assert diff.fn_count == 0 and diff.fp_count == 0
        # two graphs with equal codes answer without a set difference
        monkeypatch.setattr(eg.np, "setdiff1d", None)
        diff = eg.compare_graphs(eg.EpsilonGraph(3, 1.0, [1, 5]),
                                 eg.EpsilonGraph(3, 1.0, np.array([1, 5])))
        for edges in (diff.false_negatives, diff.false_positives):
            assert edges.size == 0 and edges.dtype == np.int64
            assert not edges.flags.writeable

    def test_false_negative(self):
        ref = eg.EpsilonGraph(2, 1.0, [1])
        est = eg.EpsilonGraph(2, 1.0, [])
        diff = eg.compare_graphs(ref, est)
        # (0, 1) at n = 2 is the pair code 1
        assert diff.false_negatives.tolist() == [1] and diff.fp_count == 0
        assert diff.false_negatives.dtype == np.int64
        assert not diff.false_negatives.flags.writeable

    def test_false_positive(self):
        ref = eg.EpsilonGraph(2, 1.0, [])
        est = eg.EpsilonGraph(2, 1.0, [1])
        diff = eg.compare_graphs(ref, est)
        assert diff.false_positives.tolist() == [1] and diff.fn_count == 0
        assert diff.false_positives.dtype == np.int64
        assert not diff.false_positives.flags.writeable

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            eg.compare_graphs(
                eg.EpsilonGraph(2, 1.0, []),
                eg.EpsilonGraph(3, 1.0, []),
            )

    def test_edge_validation(self):
        # n = 3: unsorted, duplicate, i > j, i = j, negative, n^2, beyond n^2,
        # and a code whose i*(n + 1) wraps past the int64 range
        for codes in ([5, 1], [1, 1], [3], [4], [-1], [9], [1, 10], [1, 2**63 - 1]):
            with pytest.raises(ValueError):
                eg.EpsilonGraph(3, 1.0, codes)

    def test_edges_view(self):
        graph = eg.EpsilonGraph(3, 1.0, [1, 2, 5])
        assert edge_set(graph) == {(0, 1), (0, 2), (1, 2)}
        assert graph.codes.dtype == np.int64 and not graph.codes.flags.writeable
