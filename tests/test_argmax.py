import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sst.argmax import _contract, _map_block, _pick, _sampled_order
from sst.structures import _UnionFind
from graphs import D3, K3, K4, K5

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

    def test_matching_ties_of_distinct_utilities(self):
        """Both matchings of [[0, 1], [2, 3]] sum to 3: a tie no two equal
        utilities show.  One row has one matching, which cannot tie."""
        spec = StructureSpec(StructureKind.MATCHING, n=2)
        assert solve_map(spec, np.array([0.0, 1.0, 2.0, 3.0])).tie_broken
        assert not solve_map(spec, np.array([0.0, 1.0, 2.0, 4.0])).tie_broken
        assert not solve_map(StructureSpec(StructureKind.MATCHING, n=1), np.array([5.0])).tie_broken


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
# The tree sampler reads one lazily sampled order (``argmax._sampled_order``)
# through Kruskal's scan, the arborescence sampler picks with ``argmax._pick``,
# and top-k draws its k doubles in one block and picks from prefix sums.  The
# loops below are the earlier implementations, kept as oracles: same
# vertices, same generator consumption.

def _categorical_pick(weights, live, rng):
    """Position in ``live`` of one draw of an index ``i`` with probability
    proportional to ``weights[i]``: an inverse-CDF scan over ``live``."""
    total = 0.0
    for i in live:
        total += weights[i]
    r = rng.random() * total
    acc = 0.0
    for p, i in enumerate(live):
        acc += weights[i]
        if r < acc:
            return p
    return len(live) - 1


@pytest.mark.parametrize("weights", [
    [1.0], [1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0],
    [1e-320, 1.0, 1e-320], [1e308, 1e308, 1e308],  # the total overflows to inf
])
def test_pick_is_the_former_scan(weights):
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(200):
        assert _pick(weights, a.random()) == _categorical_pick(weights, range(len(weights)), b)
    for r in (0.0, 0.5, 1.0 - 2.0 ** -53):
        want = _categorical_pick(weights, range(len(weights)), _Fixed(r))
        assert _pick(weights, r) == want


class _Fixed:
    """A generator stand-in whose every double is ``r``."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r

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
    """3000 draws of one instance, then three draws each of weights that
    underflow to exactly 0.0 (a score spread above 745: all live weights
    can be 0.0, and the pick falls back to the last live item), k = n - 1,
    and the benchmark's size n = 100, k = 10."""
    theta = 2.0 * np.random.default_rng(200 + seed).normal(size=10)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.stack([sample_topk_without_replacement(theta, 4, a) for _ in range(3000)])
    want = np.stack([_old_topk_sampler(theta, 4, b) for _ in range(3000)])
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state
    g = np.random.default_rng(300 + seed)
    cases = [(np.array([0.0, -800.0, -2000.0, -1.0, -900.0, 2.0]), 4),
             (np.array([0.0] + [-2000.0] * 7), 5),
             (g.normal(size=9), 8),
             (g.uniform(-1.0, 1.0, 100), 10)]
    for _ in range(100):
        n = int(g.integers(2, 30))
        cases.append((g.choice([-2000.0, -800.0, -1.0, 0.0, 2.0], size=n), int(g.integers(1, n))))
    for theta, k in cases:
        for _ in range(3):
            got = sample_topk_without_replacement(theta, k, a)
            assert got.tobytes() == _old_topk_sampler(theta, k, b).tobytes(), (theta, k)
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
    # ``ahead`` doubles come in one block; every later pick draws its own
    for ahead, read in ((2, 2), (1, 3), (0, 2)):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        order = _sampled_order([1.0, 2.0, 3.0, 4.0], a, ahead)
        first = [next(order) for _ in range(read)]
        assert first == _old_sample_without_replacement([1.0, 2.0, 3.0, 4.0], read, b)
        assert a.bit_generator.state == b.bit_generator.state


# --- the contraction engine against its former recursion ------------------------------
#
# ``argmax._contract`` contracts each cycle once and lets only the new
# supernode pick.  The recursion below is the earlier engine, kept as an
# oracle: at every level it renumbers the nodes, rebuilds the edge and
# entering lists, and lets every node pick again.

def _old_contract_and_pick(num_nodes, root, edge_list, pick):
    enter = [[] for _ in range(num_nodes)]
    for t, h, eid in edge_list:
        enter[h].append((t, eid))
    parent = [None] * num_nodes
    for v in range(num_nodes):
        if v == root:
            continue
        cands = enter[v]
        if not cands:
            raise InfeasibleStructureError("no arborescence: a (super)node has no entering edge")
        parent[v] = cands[pick(cands)]
    color = [0] * num_nodes
    color[root] = 2
    cycle = None
    for v0 in range(num_nodes):
        if color[v0]:
            continue
        path = []
        v = v0
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = parent[v][0]
        if color[v] == 1:
            cycle = path[path.index(v):]
            break
        for w in path:
            color[w] = 2
    if cycle is None:
        return [p[1] for p in parent if p is not None]
    super_id = num_nodes - len(cycle)
    new_id = [super_id] * num_nodes
    in_cycle = [False] * num_nodes
    for v in cycle:
        in_cycle[v] = True
    count = 0
    for v in range(num_nodes):
        if not in_cycle[v]:
            new_id[v] = count
            count += 1
    sub_edges = [(nt, nh, eid) for t, h, eid in edge_list
                 if (nt := new_id[t]) != (nh := new_id[h])]
    chosen = _old_contract_and_pick(super_id + 1, new_id[root], sub_edges, pick)
    into_cycle = {eid: h for t, h, eid in edge_list if in_cycle[h] and not in_cycle[t]}
    h_star = next(into_cycle[eid] for eid in chosen if eid in into_cycle)
    chosen.extend(parent[v][1] for v in cycle if v != h_star)
    return chosen


def _edge_list(graph):
    return [(t, h, i) for i, (t, h) in enumerate(graph.edges)]


def _old_cle(graph, root, u):
    """The former maximizer: its vertex, its tie flag, and the tie flag of
    the first pick of every (super)node alone (a re-pick scans a candidate
    list some pick scanned before)."""
    work = list(u)
    tie = {"any": False, "first": False}
    seen = set()

    def pick(cands):
        ws = [work[eid] for _, eid in cands]
        best = max(ws)
        # a node's candidate ids stay the same while it lives; only their
        # tails are renumbered
        ids = tuple(eid for _, eid in cands)
        first = ids not in seen
        seen.add(ids)
        running = ws[0]
        for w in ws[1:]:
            if w == running:
                tie["any"] = True
                tie["first"] |= first
            running = max(running, w)
        for _, eid in cands:
            work[eid] -= best
        return ws.index(best)

    chosen = _old_contract_and_pick(graph.num_nodes, root, _edge_list(graph), pick)
    bits = np.zeros(graph.num_edges, dtype=np.int8)
    bits[chosen] = 1
    return bits, tie["any"], tie["first"]


def _old_arborescence_sampler(graph, root, lam, rng):
    work = list(lam)

    def pick(cands):
        ws = [work[eid] for _, eid in cands]
        if np.inf in ws:
            inf_pos = [p for p, w in enumerate(ws) if w == np.inf]
            pos = inf_pos[0] if len(inf_pos) == 1 else inf_pos[int(rng.integers(len(inf_pos)))]
        else:
            pos = _categorical_pick(ws, range(len(ws)), rng)
        work[cands[pos][1]] = np.inf
        return pos

    chosen = _old_contract_and_pick(graph.num_nodes, root, _edge_list(graph), pick)
    bits = np.zeros(graph.num_edges, dtype=np.int8)
    bits[chosen] = 1
    return bits


def _outcome(f, *args):
    try:
        return f(*args)
    except InfeasibleStructureError as exc:
        return str(exc)


def _contractions(graph, root, u):
    """How many cycles ``argmax._contract`` contracts on utilities ``u``."""
    work, picks = list(u), [0]

    def pick(cands):
        picks[0] += 1
        ws = [work[e] for e in cands]
        best = max(ws)
        for e in cands:
            work[e] -= best
        return ws.index(best), False

    _contract(graph, root, pick)
    return picks[0] - (graph.num_nodes - 1)


def _random_digraph(rng, n, density):
    edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
    return Graph(n, edges, directed=True)


def test_contraction_engine_matches_its_former_recursion():
    rng = np.random.default_rng(12)
    levels, ties_first, several_inf = [], 0, 0
    for it in range(900):
        n = int(rng.integers(2, 11))
        g = _random_digraph(rng, n, [0.35, 0.7, 1.0][it % 3])
        root = int(rng.integers(n))
        u = rng.normal(size=g.num_edges)
        if it % 3 == 0:
            u = np.round(u, 1)  # ties, and equalities made by rounding
        want = _outcome(_old_cle, g, root, u)
        if isinstance(want, str):
            assert _outcome(cle_max_arborescence, g, root, u) == want
        else:
            bits, tie_any, tie_first = want
            assert cle_max_arborescence(g, root, u).tobytes() == bits.tobytes()
            spec = StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=root)
            sol = solve_map(spec, u)
            assert sol.vertex.tobytes() == bits.tobytes()
            # the engine's picks are the former first picks; a re-pick only
            # rescans weights that its first pick already compared
            assert sol.tie_broken == tie_first
            assert sol.tie_broken <= tie_any
            ties_first += tie_first
            block = np.stack([u, rng.normal(size=g.num_edges), np.round(u, 0)])
            rows = np.stack([_old_cle(g, root, row)[0] for row in block])
            assert _map_block(spec, block).tobytes() == rows.tobytes()
            levels.append(_contractions(g, root, u))
        lam = np.exp(rng.normal(size=g.num_edges))
        if it % 2:
            lam[rng.random(g.num_edges) < [0.1, 0.4][it % 4 // 2]] = np.inf
        several_inf += any(sum(lam[i] == np.inf for i in g.in_edges(v)) > 1
                           for v in range(n) if v != root)
        a, b = np.random.default_rng(it), np.random.default_rng(it)
        for _ in range(3):
            got = _outcome(sample_arborescence_categorical, g, root, lam, a)
            want = _outcome(_old_arborescence_sampler, g, root, lam, b)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes()
        assert a.bit_generator.state == b.bit_generator.state
    # nested contractions, ties and several infinite rates into one node all occur
    assert max(levels) >= 3 and sum(k >= 2 for k in levels) >= 100
    assert ties_first >= 30 and several_inf >= 100

    # A tie that only a re-pick scans: after {1, 2} is contracted, node 3
    # compared 1e-17 - 1 and 2e-17 - 1, which both round to -1.0.
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (0, 3), (1, 3), (2, 3)], directed=True)
    u = np.array([0.0, 1.0, 5.0, 5.0, 1e-17, 2e-17, 1.0])
    bits, tie_any, tie_first = _old_cle(g, 0, u)
    assert tie_any and not tie_first
    sol = solve_map(StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=0), u)
    assert sol.vertex.tobytes() == bits.tobytes() and not sol.tie_broken


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_contraction_engine_property(data):
    n = data.draw(st.integers(2, 6))
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = data.draw(st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs)))
    g = Graph(n, [a for a, k in zip(arcs, keep) if k], directed=True)
    root = data.draw(st.integers(0, n - 1))
    halves = st.integers(-6, 6).map(lambda x: x / 2)  # ties are common
    values = st.floats(-10, 10, allow_nan=False) | halves
    u = np.array(data.draw(st.lists(values, min_size=g.num_edges, max_size=g.num_edges)))
    want = _outcome(_old_cle, g, root, u)
    if isinstance(want, str):
        assert _outcome(cle_max_arborescence, g, root, u) == want
        return
    got = solve_map(StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=root), u)
    assert got.vertex.tobytes() == want[0].tobytes()
    assert got.tie_broken == want[2]
    spec = StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=root)
    best = max(float(u @ np.array(v)) for v in enumerate_vertices(spec))
    assert got.objective == pytest.approx(best, abs=1e-9)


def _map_spec(data, kind):
    """A small instance of ``kind``, its vertex set cheap to enumerate."""
    if kind == StructureKind.ONE_HOT:
        return StructureSpec(kind, n=data.draw(st.integers(1, 6)))
    if kind == StructureKind.MATCHING:
        return StructureSpec(kind, n=data.draw(st.integers(1, 4)))
    if kind in (StructureKind.K_SUBSETS, StructureKind.CORR_K_SUBSETS):
        n = data.draw(st.integers(2, 7))
        return StructureSpec(kind, n=n, k=data.draw(st.integers(1, n - 1)))
    n = data.draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # the path 0-1-...-(n-1) keeps the graph connected
    return StructureSpec(kind, graph=Graph(n, [p for p, k in zip(pairs, keep)
                                              if k or p[1] == p[0] + 1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_map_is_the_enumerated_maximum(data):
    """``solve_map`` against enumeration on small integer utilities, where
    ties are common: the objective is the enumerated maximum, the vertex
    attains it, an unflagged vertex is the only one that does (a matching
    is flagged exactly when it is not), and ``_map_block`` gives every row
    of a block its ``solve_map`` vertex."""
    kind = data.draw(st.sampled_from([
        StructureKind.ONE_HOT, StructureKind.K_SUBSETS, StructureKind.CORR_K_SUBSETS,
        StructureKind.MATCHING, StructureKind.SPANNING_TREE]))
    spec = _map_spec(data, kind)
    ints = st.lists(st.integers(-3, 3), min_size=spec.dim, max_size=spec.dim)
    U = np.array([data.draw(ints) for _ in range(3)], dtype=float).reshape(3, spec.dim)
    verts = enumerate_vertices(spec)
    for u, row in zip(U, _map_block(spec, U)):
        sol = solve_map(spec, u)
        assert sol.vertex.tobytes() == row.tobytes()
        values = [float(u @ v) for v in verts]
        best = max(values)
        assert sol.objective == best == float(u @ sol.vertex)
        if not sol.tie_broken:
            assert values.count(best) == 1
            assert verts[values.index(best)].tobytes() == sol.vertex.tobytes()
        if kind == StructureKind.MATCHING:  # a matching's flag is exact
            assert sol.tie_broken == (values.count(best) > 1)
