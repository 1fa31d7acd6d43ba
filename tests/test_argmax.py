import numpy as np
import pytest

from sst import (
    Graph,
    InfeasibleStructureError,
    InputError,
    StructureKind,
    StructureSpec,
    cle_max_arborescence,
    enumerate_vertices,
    hungarian_match,
    kruskal_max_tree,
    sample_arborescence_categorical,
    sample_topk_without_replacement,
    sample_tree_categorical,
    solve_map,
    topk_select,
)
from sst.argmax import _categorical_pick, _sampled_order
from sst.structures import _UnionFind

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
D3 = Graph(3, [(i, j) for i in range(3) for j in range(3) if i != j], directed=True)


def oracle_max(spec, u):
    return max(float(np.asarray(u) @ v) for v in enumerate_vertices(spec))


class TestSolveMap:
    def test_one_hot_max_coordinate(self):
        sol = solve_map(StructureSpec(StructureKind.ONE_HOT, n=3), np.array([0.1, 2.0, -1.0]))
        assert tuple(sol.vertex) == (0, 1, 0)
        assert sol.objective == pytest.approx(2.0)
        assert not sol.tie_broken

    def test_subsets_positive_threshold(self):
        sol = solve_map(StructureSpec(StructureKind.SUBSETS, n=3), np.array([1.0, -1.0, 0.5]))
        assert tuple(sol.vertex) == (1, 0, 1)

    def test_k3_tree(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K3)
        sol = solve_map(spec, np.array([3.0, 2.0, 1.0]))
        assert tuple(sol.vertex) == (1, 1, 0)
        assert sol.objective == pytest.approx(5.0)

    def test_objective_recomputed_from_inputs(self):
        rng = np.random.default_rng(0)
        spec = StructureSpec(StructureKind.MATCHING, n=3)
        u = rng.normal(size=9)
        sol = solve_map(spec, u)
        assert sol.objective == pytest.approx(float(u @ sol.vertex), abs=0)

    @pytest.mark.parametrize(
        "spec",
        [
            StructureSpec(StructureKind.ONE_HOT, n=6),
            StructureSpec(StructureKind.SUBSETS, n=5),
            StructureSpec(StructureKind.K_SUBSETS, n=6, k=3),
            StructureSpec(StructureKind.CORR_K_SUBSETS, n=5, k=2),
            StructureSpec(StructureKind.MATCHING, n=4),
            StructureSpec(StructureKind.SPANNING_TREE, graph=K4),
            StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=0),
        ],
    )
    def test_optimal_on_enumerable_instances(self, spec):
        rng = np.random.default_rng(42)
        for _ in range(25):
            u = rng.normal(size=spec.dim)
            sol = solve_map(spec, u)
            assert sol.objective == pytest.approx(oracle_max(spec, u), abs=1e-12)

    def test_uniqueness_proxy_tie_rate(self):
        """Ties are measure-zero under continuous noise."""
        rng = np.random.default_rng(1)
        spec = StructureSpec(StructureKind.ONE_HOT, n=5)
        ties = sum(
            solve_map(spec, rng.normal(size=5)).tie_broken for _ in range(100_000)
        )
        assert ties < 100  # < 0.1%

    def test_k_subsets_ties_at_the_boundary(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=5, k=2)
        sol = solve_map(spec, np.array([3.0, 1.0, 2.0, 2.0, 0.0]))
        assert tuple(sol.vertex) == (1, 0, 1, 0, 0)
        assert sol.tie_broken
        # a tie inside the chosen set or below the boundary is not one
        assert not solve_map(spec, np.array([3.0, 3.0, 2.0, 2.0, 0.0])).tie_broken
        assert not solve_map(spec, np.array([3.0, 1.0, 2.0, 1.0, 1.0])).tie_broken
        # against the flag read off a full descending sort, on small integers
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            u = rng.integers(-2, 3, size=n).astype(float)
            sol = solve_map(StructureSpec(StructureKind.K_SUBSETS, n=n, k=k), u)
            vals = np.sort(u)[::-1]
            assert sol.tie_broken == (vals[k - 1] == vals[k])
            assert np.array_equal(sol.vertex, topk_select(u, k))


class TestTopK:
    def test_two_largest(self):
        assert tuple(topk_select(np.array([5.0, 1.0, 4.0, 2.0]), 2)) == (1, 0, 1, 0)

    def test_k_must_be_less_than_n(self):
        with pytest.raises(InputError):
            topk_select(np.array([1.0, 1.0, 1.0]), 3)
        with pytest.raises(InputError):
            topk_select(np.array([1.0, 1.0]), 0)

    def test_lowest_index_tie_break(self):
        assert tuple(topk_select(np.array([0.3, 0.3, 0.1]), 1)) == (1, 0, 0)


class TestKruskal:
    def test_k3(self):
        assert tuple(kruskal_max_tree(K3, np.array([3.0, 2.0, 1.0]))) == (1, 1, 0)

    def test_path_graph_unique_tree(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert tuple(kruskal_max_tree(path, np.array([-5.0, 2.0, 0.0]))) == (1, 1, 1)

    def test_matches_enumeration_on_k4(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K4)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.normal(size=6)
            got = kruskal_max_tree(K4, u)
            assert float(u @ got) == pytest.approx(oracle_max(spec, u), abs=1e-12)

    def test_disconnected_raises(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleStructureError):
            kruskal_max_tree(g, np.zeros(2))

    def test_flat_utilities_break_ties_by_edge_index(self):
        assert tuple(kruskal_max_tree(K4, np.zeros(6))) == (1, 1, 1, 0, 0, 0)


class TestChuLiuEdmonds:
    def test_two_node(self):
        g = Graph(2, [(0, 1)], directed=True)
        assert tuple(cle_max_arborescence(g, 0, np.array([0.4]))) == (1,)

    def test_contraction_branch(self):
        """Greedy entering-edge picks form a 2-cycle, forcing a contraction."""
        # D3 edge order: (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
        u = np.array([0.1, 0.2, -9.0, 1.0, -9.0, 1.1])
        best_in_1 = max([(u[0], 0), (u[5], 5)])  # 2->1 wins
        best_in_2 = max([(u[1], 1), (u[3], 3)])  # 1->2 wins
        assert best_in_1[1] == 5 and best_in_2[1] == 3  # picks form the cycle 1<->2
        got = cle_max_arborescence(D3, 0, u)
        spec = StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=0)
        assert float(u @ got) == pytest.approx(oracle_max(spec, u), abs=1e-12)

    def test_matches_enumeration_on_random_digraphs(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            n = int(rng.integers(2, 6))
            edges = [
                (i, j) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.6
            ]
            root = int(rng.integers(n))
            try:
                g = Graph(n, edges, directed=True)
                spec = StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=root)
            except Exception:
                continue
            u = rng.normal(size=g.num_edges)
            got = cle_max_arborescence(g, root, u)
            assert float(u @ got) == pytest.approx(oracle_max(spec, u), abs=1e-12)
            checked += 1

    def test_infeasible_raises(self):
        g = Graph(3, [(0, 1), (2, 1)], directed=True)  # node 2 unreachable
        with pytest.raises(InfeasibleStructureError):
            cle_max_arborescence(g, 0, np.zeros(2))

    def test_nested_contractions(self):
        """Two contraction levels: the greedy picks close the cycle 1<->2,
        and in the contracted graph the supernode and node 3 close another."""
        g = Graph(
            4,
            [(0, 1), (0, 2), (0, 3), (1, 2), (2, 1), (2, 3), (3, 1)],
            directed=True,
        )
        u = np.array([-5.0, -6.0, -7.0, 10.0, 10.0, 8.0, 0.0])
        # level 1 picks: 2->1, 1->2, 2->3 (cycle {1,2}); after contraction
        # the best entering edges pair the supernode with node 3.
        got = cle_max_arborescence(g, 0, u)
        assert [g.edges[i] for i in np.flatnonzero(got)] == [(0, 1), (1, 2), (2, 3)]
        spec = StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=0)
        assert float(u @ got) == pytest.approx(oracle_max(spec, u), abs=1e-12)


class TestHungarian:
    def test_singleton(self):
        assert tuple(hungarian_match(np.array([[3.0]]))) == (1,)

    def test_diagonal_dominant(self):
        u = np.eye(3) * 10.0 + np.random.default_rng(0).normal(size=(3, 3)) * 0.1
        got = hungarian_match(u).reshape(3, 3)
        assert (got == np.eye(3)).all()

    def test_matches_brute_force(self):
        import itertools

        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.normal(size=(4, 4))
            got = hungarian_match(u)
            best = max(
                sum(u[i, p[i]] for i in range(4))
                for p in itertools.permutations(range(4))
            )
            assert float(u.reshape(-1) @ got) == pytest.approx(best, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            hungarian_match(np.zeros((2, 3)))


class TestSamplers:
    def test_topk_frequencies_match_softmax_chain(self):
        """First pick of without-replacement sampling follows softmax(theta)."""
        theta = np.array([0.0, np.log(2.0), np.log(3.0)])
        rng = np.random.default_rng(5)
        counts = np.zeros(3)
        n_draws = 20_000
        for _ in range(n_draws):
            counts += sample_topk_without_replacement(theta, 1, rng)
        freq = counts / n_draws
        target = np.array([1 / 6, 1 / 3, 1 / 2])
        se = np.sqrt(target * (1 - target) / n_draws)
        assert (np.abs(freq - target) <= 3 * se).all()

    def test_topk_pairs_symmetric(self):
        rng = np.random.default_rng(6)
        counts = {}
        n_draws = 15_000
        for _ in range(n_draws):
            key = tuple(sample_topk_without_replacement(np.zeros(3), 2, rng))
            counts[key] = counts.get(key, 0) + 1
        freq = np.array(sorted(counts.values())) / n_draws
        se = np.sqrt((1 / 3) * (2 / 3) / n_draws)
        assert (np.abs(freq - 1 / 3) <= 3 * se).all()

    def test_path_graph_tree_always_unique(self):
        path = Graph(3, [(0, 1), (1, 2)])
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert tuple(sample_tree_categorical(path, np.array([5.0, -3.0]), rng)) == (1, 1)

    def test_k3_flat_scores_uniform(self):
        rng = np.random.default_rng(8)
        counts = {}
        n_draws = 30_000
        for _ in range(n_draws):
            key = tuple(sample_tree_categorical(K3, np.zeros(3), rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        se = np.sqrt((1 / 3) * (2 / 3) / n_draws)
        for c in counts.values():
            assert abs(c / n_draws - 1 / 3) <= 3 * se

    def test_two_node_arborescence_deterministic(self):
        g = Graph(2, [(0, 1)], directed=True)
        rng = np.random.default_rng(0)
        assert tuple(sample_arborescence_categorical(g, 0, np.array([2.0]), rng)) == (1,)

    def test_equal_rates_arborescence_law(self):
        """Flat rates are not uniform over the 3 rooted trees: the two
        chain trees absorb the cycle-contraction branch.

        Hand enumeration of the process: the two entering-edge picks are
        independent fair coins (prob 1/4 per combination); three of the
        four combinations are already trees, and the cycle combination
        splits evenly between the two chain trees.  So the tree using
        both root edges has mass 1/4 and each chain tree 3/8.  Symmetry
        of the node relabeling only exchanges the two chain trees.
        """
        rng = np.random.default_rng(9)
        counts = {}
        n_draws = 30_000
        for _ in range(n_draws):
            key = tuple(sample_arborescence_categorical(D3, 0, np.ones(6), rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        both_from_root = (1, 1, 0, 0, 0, 0)  # edges (0,1) and (0,2)
        expected = {k: (0.25 if k == both_from_root else 0.375) for k in counts}
        from scipy.special import gammaincc
        stat = sum(
            (counts[k] - n_draws * p) ** 2 / (n_draws * p) for k, p in expected.items()
        )
        assert gammaincc(1.0, stat / 2.0) >= 0.01

    def test_infinite_rate_always_chosen(self):
        # entering node 1: edges 0->1 (inf) and 2->1 (finite); inf must win
        rng = np.random.default_rng(0)
        rates = np.array([np.inf, 1.0, 1.0, 1.0, 1.0, 1.0])
        for _ in range(50):
            bits = sample_arborescence_categorical(D3, 0, rates, rng)
            assert bits[0] == 1

    def test_rates_validated(self):
        with pytest.raises(InputError):
            sample_arborescence_categorical(
                D3, 0, np.array([1, 1, 1, 1, 1, -1.0]), np.random.default_rng(0)
            )


# --- the categorical processes against their former loops -----------------------------
#
# Both samplers now read one lazily sampled order (``argmax._sampled_order``):
# the tree sampler through Kruskal's scan, top-k as its first k indices.
# The loops below are the earlier implementations, kept as oracles: same
# vertices, same generator consumption.

def _old_sample_without_replacement(weights, count, rng):
    live = list(range(len(weights)))
    return [live.pop(_categorical_pick(weights, live, rng)) for _ in range(count)]


def _old_tree_sampler(graph, theta, rng):
    w = np.exp(theta - theta.max()).tolist()
    live = list(range(graph.num_edges))
    uf = _UnionFind(graph.num_nodes)
    bits = np.zeros(graph.num_edges, dtype=np.int8)
    taken = 0
    while live and taken < graph.num_nodes - 1:
        edge = live.pop(_categorical_pick(w, live, rng))
        t, h = graph.edges[edge]
        if uf.union(t, h):
            bits[edge] = 1
            taken += 1
    if taken < graph.num_nodes - 1:
        raise InfeasibleStructureError("graph is disconnected; no spanning tree exists")
    return bits


def _old_topk_sampler(theta, k, rng):
    w = np.exp(theta - theta.max()).tolist()
    bits = np.zeros(theta.shape[0], dtype=np.int8)
    bits[_old_sample_without_replacement(w, k, rng)] = 1
    return bits


K5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


@pytest.mark.parametrize("seed", [0, 1])
def test_tree_sampler_matches_its_former_loop(seed):
    theta = 2.0 * np.random.default_rng(100 + seed).normal(size=K5.num_edges)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.stack([sample_tree_categorical(K5, theta, a) for _ in range(3000)])
    want = np.stack([_old_tree_sampler(K5, theta, b) for _ in range(3000)])
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1])
def test_topk_sampler_matches_its_former_loop(seed):
    theta = 2.0 * np.random.default_rng(200 + seed).normal(size=10)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.stack([sample_topk_without_replacement(theta, 4, a) for _ in range(3000)])
    want = np.stack([_old_topk_sampler(theta, 4, b) for _ in range(3000)])
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_tree_sampler_on_a_disconnected_graph_fails_as_before():
    split = Graph(5, [(0, 1), (1, 2), (3, 4)])
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(InfeasibleStructureError) as got:
        sample_tree_categorical(split, np.zeros(3), a)
    with pytest.raises(InfeasibleStructureError) as want:
        _old_tree_sampler(split, np.zeros(3), b)
    assert str(got.value) == str(want.value)
    assert a.bit_generator.state == b.bit_generator.state


def test_sampled_order_draws_only_what_is_read():
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    order = _sampled_order([1.0, 2.0, 3.0, 4.0], a)
    first = [next(order), next(order)]
    assert first == _old_sample_without_replacement([1.0, 2.0, 3.0, 4.0], 2, b)
    assert a.bit_generator.state == b.bit_generator.state
