import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from sst import (
    EnumerationLimitError,
    Graph,
    InputError,
    InvalidSpecError,
    RelaxationSpec,
    Regularizer,
    StructureKind,
    StructureSpec,
    UtilityFamily,
    UtilitySpec,
    cle_max_arborescence,
    directed_matrix_tree_marginals,
    draw_block,
    embedding_dim,
    enumerate_vertices,
    is_vertex,
    mc_frequencies,
    sample_arborescence_categorical,
    sample_topk_without_replacement,
    spec_from_dict,
    spec_to_dict,
    topk_select,
)
from sst.errors import DimensionMismatchError
from sst.structures import DEFAULT_ENUM_LIMIT, default_enum_limit, gibbs_moments

from graphs import complete_digraph, complete_graph


class TestEmbeddingDim:
    def test_one_hot(self):
        assert embedding_dim(StructureSpec(StructureKind.ONE_HOT, n=5)) == 5

    def test_corr_k_subsets(self):
        # n unaries plus n-1 adjacent-pair coordinates
        assert embedding_dim(StructureSpec(StructureKind.CORR_K_SUBSETS, n=4, k=2)) == 7

    def test_spanning_tree_k4(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(4))
        assert embedding_dim(spec) == 6

    def test_matching(self):
        assert embedding_dim(StructureSpec(StructureKind.MATCHING, n=3)) == 9


class TestSpecValidation:
    def test_k_out_of_range(self):
        with pytest.raises(InvalidSpecError):
            StructureSpec(StructureKind.K_SUBSETS, n=3, k=3)
        with pytest.raises(InvalidSpecError):
            StructureSpec(StructureKind.K_SUBSETS, n=3, k=0)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidSpecError):
            Graph(2, [(0, 0)])

    def test_edge_out_of_range(self):
        with pytest.raises(InvalidSpecError):
            Graph(2, [(0, 2)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidSpecError):
            Graph(3, [(0, 1), (1, 0)])  # normalized to the same undirected edge

    def test_spanning_tree_needs_connected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidSpecError):
            StructureSpec(StructureKind.SPANNING_TREE, graph=g)

    def test_arborescence_needs_reachability(self):
        g = Graph(3, [(1, 0), (2, 1)], directed=True)
        with pytest.raises(InvalidSpecError):
            StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=0)

    def test_undirected_edges_normalized(self):
        g = Graph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 2), (0, 1))

    @pytest.mark.parametrize("edges", [[(0, 1, 2), (1, 2)], [(0,), (1, 2)], [0, (1, 2)]])
    def test_edges_must_be_pairs(self, edges):
        with pytest.raises(InvalidSpecError, match="^an edge must be a pair of nodes"):
            Graph(3, edges)
        d = {"kind": "spanning_tree", "graph": {"num_nodes": 3, "edges": edges}}
        with pytest.raises(InvalidSpecError, match="^an edge must be a pair of nodes"):
            spec_from_dict(d)

    @pytest.mark.parametrize("directed", ["false", "true", 0, 1, None])
    def test_directed_must_be_a_bool(self, directed):
        with pytest.raises(InvalidSpecError, match="^directed must be true or false"):
            Graph(2, [(0, 1)], directed=directed)
        d = {"kind": "arborescence", "root": 0,
             "graph": {"num_nodes": 2, "edges": [[0, 1]], "directed": directed}}
        with pytest.raises(InvalidSpecError, match="^directed must be true or false"):
            spec_from_dict(d)


class TestIsVertex:
    def test_k3_tree(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(3))
        assert is_vertex(spec, [1, 1, 0])
        assert not is_vertex(spec, [1, 0, 0])

    def test_k_subset_cardinality(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=3, k=2)
        assert not is_vertex(spec, [1, 1, 1])
        assert is_vertex(spec, [0, 1, 1])

    def test_two_node_arborescence(self):
        g = Graph(2, [(0, 1)], directed=True)
        spec = StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=0)
        assert is_vertex(spec, [1])

    def test_matching_row_col_sums(self):
        spec = StructureSpec(StructureKind.MATCHING, n=2)
        assert is_vertex(spec, [1, 0, 0, 1])
        assert is_vertex(spec, [0, 1, 1, 0])
        assert not is_vertex(spec, [1, 1, 0, 0])

    def test_corr_pairwise_consistency(self):
        spec = StructureSpec(StructureKind.CORR_K_SUBSETS, n=3, k=2)
        assert is_vertex(spec, [1, 1, 0, 1, 0])
        assert not is_vertex(spec, [1, 1, 0, 0, 0])  # pair bit must equal product

    def test_dimension_mismatch(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=3)
        with pytest.raises(DimensionMismatchError):
            is_vertex(spec, [1, 0])

    def test_nonbinary_rejected(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=2)
        assert not is_vertex(spec, [0.5, 0])


class TestEnumeration:
    def test_one_hot_basis(self):
        verts = enumerate_vertices(StructureSpec(StructureKind.ONE_HOT, n=3))
        assert [tuple(v) for v in verts] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    @pytest.mark.parametrize(
        "spec, count",
        [
            (StructureSpec(StructureKind.SUBSETS, n=5), 2 ** 5),
            (StructureSpec(StructureKind.K_SUBSETS, n=4, k=2), 6),
            (StructureSpec(StructureKind.CORR_K_SUBSETS, n=4, k=2), 6),
            (StructureSpec(StructureKind.MATCHING, n=4), 24),
            (StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(4)), 16),
            (StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(5)), 125),
            (StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(3), root=0), 3),
            (StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(4), root=1), 16),
        ],
    )
    def test_closed_form_counts(self, spec, count):
        # n^(n-2) trees of K_n; n^(n-2) arborescences of the complete digraph per root
        assert len(enumerate_vertices(spec)) == count

    @pytest.mark.parametrize(
        "spec",
        [
            StructureSpec(StructureKind.SUBSETS, n=4),
            StructureSpec(StructureKind.K_SUBSETS, n=5, k=2),
            StructureSpec(StructureKind.CORR_K_SUBSETS, n=5, k=3),
            StructureSpec(StructureKind.MATCHING, n=3),
            StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(4)),
            StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(3), root=2),
        ],
    )
    def test_entries_valid_unique_sorted(self, spec):
        verts = enumerate_vertices(spec)
        tuples = [tuple(int(b) for b in v) for v in verts]
        assert all(is_vertex(spec, v) for v in verts)
        assert len(set(tuples)) == len(tuples)
        assert tuples == sorted(tuples)

    def test_limit_exceeded(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_vertices(StructureSpec(StructureKind.SUBSETS, n=20), limit=1000)

    def test_one_default_limit(self, monkeypatch):
        """``enumerate_vertices`` and the oracles' ``default_enum_limit``
        read one constant; ``SST_MAX_ENUM`` overrides only the latter."""
        monkeypatch.delenv("SST_MAX_ENUM", raising=False)
        assert default_enum_limit() == DEFAULT_ENUM_LIMIT == 10_000
        monkeypatch.setenv("SST_MAX_ENUM", "7")
        assert default_enum_limit() == 7
        # 2^14 subsets exceed the default; C(14, 4) = 1001 do not
        with pytest.raises(EnumerationLimitError, match="limit=10000"):
            enumerate_vertices(StructureSpec(StructureKind.SUBSETS, n=14))
        assert len(enumerate_vertices(StructureSpec(StructureKind.K_SUBSETS, n=14, k=4))) == 1001

    @pytest.mark.parametrize("text", ["abc", "-1", "", "2.5"])
    def test_limit_variable_must_be_a_non_negative_integer(self, monkeypatch, text):
        monkeypatch.setenv("SST_MAX_ENUM", text)
        with pytest.raises(InputError,
                           match=f"^SST_MAX_ENUM must be a non-negative integer, got '{text}'$"):
            default_enum_limit()
        monkeypatch.setenv("SST_MAX_ENUM", "0")
        assert default_enum_limit() == 0

    @pytest.mark.parametrize("limit, message", [
        (-1, "limit must be >= 0, got -1"), (2.5, "limit must be an integer, got 2.5"),
        (True, "limit must be an integer, got True")])
    def test_limit_must_be_a_non_negative_integer(self, limit, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            enumerate_vertices(StructureSpec(StructureKind.SUBSETS, n=2), limit)

    def test_gibbs_moments_checks_every_limit_after_enumerating(self):
        # the vertex matrix of the last (spec, limit) is kept; a later call
        # with another limit still gets the error a fresh enumeration gives
        spec = StructureSpec(StructureKind.SUBSETS, n=2)
        z = np.array([0.5, -1.0])
        mean = gibbs_moments(spec, z, 4)
        for limit, error, message in (
                (4.0, InputError, "limit must be an integer, got 4.0"),
                (True, InputError, "limit must be an integer, got True"),
                (3, EnumerationLimitError, "subsets instance has more than limit=3 vertices")):
            with pytest.raises(error, match=f"^{message}$"):
                gibbs_moments(spec, z, limit)
        assert gibbs_moments(spec, z, 4).tobytes() == mean.tobytes()

    def test_deterministic(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(4))
        a = [tuple(v) for v in enumerate_vertices(spec)]
        b = [tuple(v) for v in enumerate_vertices(spec)]
        assert a == b


def _in_hull_of_others(vertices, idx):
    """Feasibility LP: is vertices[idx] a convex combination of the rest?"""
    others = np.stack([v for i, v in enumerate(vertices) if i != idx]).astype(float)
    target = vertices[idx].astype(float)
    a_eq = np.vstack([others.T, np.ones(len(others))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(
        c=np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq,
        bounds=[(0, None)] * len(others), method="highs",
    )
    return res.status == 0


@pytest.mark.parametrize(
    "spec",
    [
        StructureSpec(StructureKind.ONE_HOT, n=4),
        StructureSpec(StructureKind.SUBSETS, n=3),
        StructureSpec(StructureKind.K_SUBSETS, n=4, k=2),
        StructureSpec(StructureKind.CORR_K_SUBSETS, n=4, k=2),
        StructureSpec(StructureKind.MATCHING, n=3),
        StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(4)),
        StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(3), root=0),
    ],
)
def test_convex_independence_small_instances(spec):
    """No vertex lies in the convex hull of the others (binary embeddings)."""
    verts = enumerate_vertices(spec)
    assert len(verts) <= 20
    for idx in range(len(verts)):
        assert not _in_hull_of_others(verts, idx)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            StructureSpec(StructureKind.ONE_HOT, n=3),
            StructureSpec(StructureKind.K_SUBSETS, n=6, k=3),
            StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(4)),
            StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(3), root=1),
        ],
    )
    def test_round_trip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_wire_format(self):
        d = {
            "kind": "spanning_tree",
            "graph": {"num_nodes": 3, "edges": [[0, 1], [0, 2], [1, 2]], "directed": False},
        }
        spec = spec_from_dict(d)
        assert spec.kind == StructureKind.SPANNING_TREE
        assert spec_to_dict(spec) == d

    def test_bad_kind(self):
        with pytest.raises(InvalidSpecError):
            spec_from_dict({"kind": "mystery"})


def test_reachability_is_returned_fresh():
    d = Graph(4, [(0, 1), (1, 2), (3, 2)], directed=True)
    first = d.reachable_from(0)
    assert first == {0, 1, 2}
    first.add(3)  # the caller's copy; the graph's answer does not change
    assert d.reachable_from(0) == {0, 1, 2}
    assert d.reachable_from(0) is not d.reachable_from(0)
    assert d.reachable_from(3) == {2, 3}
    assert d.is_connected()  # direction ignored
    assert not Graph(3, [(0, 1)]).is_connected()


def _parent_walk_arborescence(arcs, n, root):
    """An arborescence by definition: every node but the root has one parent,
    and following parents from any node reaches the root."""
    parent = {}
    for t, h in arcs:
        if h == root or h in parent:
            return False
        parent[h] = t
    for v in range(n):
        for _ in range(n):
            if v == root:
                break
            if v not in parent:
                return False
            v = parent[v]
        if v != root:
            return False
    return True


def _union_find_spanning_tree(edges, n):
    """A spanning tree by definition: n - 1 edges, none closing a cycle."""
    comp = list(range(n))

    def find(a):
        while comp[a] != a:
            a = comp[a]
        return a

    for t, h in edges:
        a, b = find(t), find(h)
        if a == b:
            return False
        comp[a] = b
    return len(edges) == n - 1


def _tree_cases():
    """``(spec, chosen edge ids, whether they form a tree by definition)`` for
    every arc subset of the complete digraphs on 1 to 4 nodes and every
    4-arc subset on 5 nodes, for every root, and every edge subset of K1 to
    K5: every (n - 1)-subset of each graph is among them."""
    for n in range(1, 6):
        g = complete_digraph(n)
        sizes = range(g.num_edges + 1) if n < 5 else [n - 1]
        for root in range(n):
            spec = StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=root)
            for size in sizes:
                for sel in itertools.combinations(range(g.num_edges), size):
                    arcs = [g.edges[i] for i in sel]
                    yield spec, sel, _parent_walk_arborescence(arcs, n, root)
    for n in range(1, 6):
        g = complete_graph(n)
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=g)
        for size in range(g.num_edges + 1):
            for sel in itertools.combinations(range(g.num_edges), size):
                yield spec, sel, _union_find_spanning_tree([g.edges[i] for i in sel], n)


def test_tree_predicates_match_their_definitions():
    """``is_vertex`` on arborescences and spanning trees agrees with a parent
    walk and a union-find over every small arc subset, and
    ``enumerate_vertices`` lists exactly the subsets that pass."""
    trees = {}
    for spec, sel, want in _tree_cases():
        bits = np.zeros(spec.dim, dtype=np.int8)
        bits[list(sel)] = 1
        assert is_vertex(spec, bits) == want, (spec, sel)
        if want:
            trees.setdefault(spec, []).append(tuple(bits))
    assert len(trees) == 15 + 5  # one arborescence spec per root, one tree spec per n
    for spec, found in trees.items():
        assert [tuple(v) for v in enumerate_vertices(spec)] == sorted(found)


def test_connectivity_matches_a_search():
    """``Graph.is_connected`` is a depth-first search over edges taken both
    ways, on random graphs and digraphs."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 8))
        directed = bool(rng.integers(2))
        p = rng.uniform(0.05, 0.6)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if (i != j if directed else i < j) and rng.random() < p]
        adjacent = {v: set() for v in range(n)}
        for t, h in edges:
            adjacent[t].add(h)
            adjacent[h].add(t)
        seen, stack = {0}, [0]
        while stack:
            for w in adjacent[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        assert Graph(n, edges, directed=directed).is_connected() == (len(seen) == n)


def test_counts_and_indices_are_integers():
    """One gate for every count and index: Python and numpy integers pass,
    floats, strings and bools do not; specs and graphs raise
    ``InvalidSpecError``, the other entries ``InputError``."""
    rng = np.random.default_rng(0)
    for bad in (2.5, "2", True, None):
        with pytest.raises(InvalidSpecError, match="^num_nodes must be an integer"):
            Graph(bad, ())
        with pytest.raises(InvalidSpecError, match="^edge endpoint must be an integer"):
            Graph(3, ((0, 1), (1, bad)))
        with pytest.raises(InputError, match="^k must be an integer"):
            topk_select(np.zeros(4), bad)
        with pytest.raises(InputError, match="^k must be an integer"):
            sample_topk_without_replacement(np.zeros(4), bad, rng)
        with pytest.raises(InputError, match="^draws must be an integer"):
            draw_block(UtilitySpec(UtilityFamily.GUMBEL, np.zeros(2)), rng, bad)
        with pytest.raises(InputError, match="^draws must be an integer"):
            mc_frequencies(lambda r: np.zeros(2), bad, 0)
        d3 = complete_digraph(3)
        for solve in (lambda: directed_matrix_tree_marginals(d3, bad, np.zeros(6)),
                      lambda: cle_max_arborescence(d3, bad, np.zeros(6)),
                      lambda: sample_arborescence_categorical(d3, bad, np.ones(6), rng)):
            with pytest.raises(InputError, match="^root must be an integer"):
                solve()
        if bad is not None:  # None is the default of an optional field
            for fields in ({"n": bad}, {"n": 5, "k": bad}):
                kind = StructureKind.K_SUBSETS if "k" in fields else StructureKind.ONE_HOT
                with pytest.raises(InvalidSpecError, match="must be an integer"):
                    StructureSpec(kind, **fields)
            with pytest.raises(InvalidSpecError, match="^root must be an integer"):
                StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(3), root=bad)
            with pytest.raises(InvalidSpecError, match="^max_iter must be an integer"):
                RelaxationSpec(Regularizer.SHANNON, max_iter=bad)
    three = np.int64(3)
    assert Graph(three, ((np.int32(0), np.int64(2)),)).edges == ((0, 2),)
    assert StructureSpec(StructureKind.K_SUBSETS, n=three, k=np.int8(2)).dim == 3
    assert topk_select(np.arange(4.0), np.int64(1)).tolist() == [0, 0, 0, 1]
