"""The block maximizers of spanning trees, arborescences and matchings
against the per-row solves, byte for byte, at every row count; and the
byte bounds of a perturb-and-MAP chunk and of the block's first
arborescence round.

The oracles are the per-row paths: Kruskal's scan of one row's stable
order (``argmax._kruskal``), every Chu-Liu-Edmonds round on one row
(``argmax._cle``), and scipy's assignment of one square matrix.
"""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sst import (Graph, InfeasibleStructureError, StructureKind, StructureSpec, UtilityFamily,
                 UtilitySpec, solve_map)
from sst import argmax
from sst.utilities import draw, draw_block

from graphs import complete_digraph, complete_graph
from map_solves import watch_map_solves

TREE = StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(10))
ARB = StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(10), root=3)
ARB_ROOT0 = StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(10), root=0)
MATCHING = StructureSpec(StructureKind.MATCHING, n=8)
# a sparse graph, and a digraph whose nodes other than the root have two or
# three entering arcs
SPARSE_TREE = StructureSpec(StructureKind.SPANNING_TREE, graph=Graph(
    7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 4), (2, 5), (0, 3)]))
SPARSE_ARB = StructureSpec(StructureKind.ARBORESCENCE, root=0, graph=Graph(
    6, [(0, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 2), (3, 4), (4, 5), (5, 4), (1, 0), (5, 3),
        (0, 5)], directed=True))
# root 0 enters every node and every node enters node 1: node 1 has 683
# entering arcs and every other node one
SKEWED_ARB = StructureSpec(StructureKind.ARBORESCENCE, root=0, graph=Graph(
    684, [(0, v) for v in range(1, 684)] + [(v, 1) for v in range(2, 684)], directed=True))
SPECS = {"tree": TREE, "arborescence": ARB, "matching": MATCHING,
         "sparse_tree": SPARSE_TREE, "sparse_arborescence": SPARSE_ARB,
         "skewed_arborescence": SKEWED_ARB}

# kind -> the block solver's name, which a block of any row count takes
BLOCK = {StructureKind.SPANNING_TREE: "_kruskal_block",
         StructureKind.ARBORESCENCE: "_cle_block",
         StructureKind.MATCHING: "_matching_block"}
PER_ROW = {StructureKind.SPANNING_TREE: ("_kruskal", None),
           StructureKind.ARBORESCENCE: ("_cle", "rounds")}

# small blocks, which take the block paths too
SMALL_ROWS = [1, 2, 5]


def _per_row(spec, U):
    bits = np.zeros(U.shape, dtype=np.int8)
    for row, u in zip(bits, U):
        if spec.kind == StructureKind.SPANNING_TREE:
            row[argmax._kruskal(spec.graph, argmax._stable_order(u).tolist())] = 1
        elif spec.kind == StructureKind.ARBORESCENCE:
            row[argmax._cle(spec.graph, spec.root, u.tolist(), None)] = 1
        else:
            n = spec.n
            r, c = linear_sum_assignment(u.reshape(n, n), maximize=True)
            row[r * n + c] = 1
    return bits


def _blocks(dim, rows, seed):
    """A Gumbel block, and an integer block whose ties include all-equal
    rows and signed zeros."""
    g = np.random.default_rng(seed)
    ties = g.integers(-1, 2, size=(rows, dim)).astype(float)
    ties[: rows // 4] = 0.0
    ties[rows // 4: rows // 2] *= -0.0
    return g.gumbel(size=(rows, dim)), ties


def _raw(kind, graph, root=None):
    """A spec on a graph that holds no tree or no arborescence, past the
    checks of construction."""
    spec = object.__new__(StructureSpec)
    for name, value in (("kind", kind), ("n", None), ("k", None), ("graph", graph),
                        ("root", root)):
        object.__setattr__(spec, name, value)
    return spec


@pytest.mark.parametrize("name", list(SPECS))
def test_block_matches_the_per_row_solves(monkeypatch, name):
    spec = SPECS[name]
    for U in _blocks(spec.dim, 300, len(name)):
        want = _per_row(spec, U)
        log = watch_map_solves(monkeypatch)
        assert argmax._map_block(spec, U).tobytes() == want.tobytes()
        assert log[0] == (BLOCK[spec.kind], 300)
        # a block's arborescences contract per row, after the block's first round
        assert set(log[1:]) <= {("_cle", "contract")}
        monkeypatch.undo()


@pytest.mark.parametrize("name", list(SPECS))
def test_small_blocks(monkeypatch, name):
    spec = SPECS[name]
    for rows in SMALL_ROWS:
        for U in _blocks(spec.dim, rows, rows):
            want = _per_row(spec, U)
            log = watch_map_solves(monkeypatch)
            assert argmax._map_block(spec, U).tobytes() == want.tobytes()
            assert log[0] == (BLOCK[spec.kind], rows)
            assert set(log[1:]) <= {("_cle", "contract")}
            monkeypatch.undo()


def test_only_rows_whose_first_picks_hold_a_cycle_contract(monkeypatch):
    """On D10 rooted at 0, rows whose best arcs chain every node to the root
    (a path of 9 arcs, the longest) finish in the block's first round;
    rows whose best arcs join nodes 4 and 5 in a cycle contract."""
    graph = ARB_ROOT0.graph
    chain = np.array([1.0 if h == t + 1 else 0.0 for t, h in graph.edges])
    cycle = chain + np.array([2.0 if (t, h) == (5, 4) else 0.0 for t, h in graph.edges])
    U = np.stack([chain, cycle] * 6) + np.random.default_rng(3).uniform(0.0, 0.5, (12, 1))
    want = _per_row(ARB_ROOT0, U)
    log = watch_map_solves(monkeypatch)
    assert argmax._map_block(ARB_ROOT0, U).tobytes() == want.tobytes()
    assert log == [("_cle_block", 12)] + [("_cle", "contract")] * 6


def test_first_round_holds_the_bytes_of_its_chunk():
    """The block's first arborescence round works on arrays of the chunk's
    rows by the arcs, whatever the in-degrees: on the skewed digraph a
    6-row chunk holds 64 KiB of utilities, and a round that padded every
    node's entering arcs to node 1's 683 would hold about 22 MB."""
    spec = SKEWED_ARB
    rows = argmax._chunk_rows(spec)
    assert rows == 6
    for U in _blocks(spec.dim, rows, 5):
        want = _per_row(spec, U)
        tracemalloc.start()
        try:
            got = argmax._map_block(spec, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 16 * argmax._MAP_CHUNK


@pytest.mark.parametrize("kind", [StructureKind.SPANNING_TREE, StructureKind.ARBORESCENCE])
def test_one_node_graphs_have_empty_rows(kind):
    spec = StructureSpec(kind, graph=Graph(1, (), directed=kind == StructureKind.ARBORESCENCE),
                         root=0 if kind == StructureKind.ARBORESCENCE else None)
    for rows in SMALL_ROWS + [200]:
        bits = argmax._map_block(spec, np.zeros((rows, 0)))
        assert bits.dtype == np.int8 and bits.shape == (rows, 0)


_NO_TREE = "^graph is disconnected; no spanning tree exists$"
_NO_ARBORESCENCE = "^" + re.escape("no arborescence: a (super)node has no entering edge") + "$"


@pytest.mark.parametrize("spec,message", [
    (_raw(StructureKind.SPANNING_TREE, Graph(5, [(0, 1), (1, 2), (3, 4)])), _NO_TREE),
    (_raw(StructureKind.SPANNING_TREE, Graph(3, ())), _NO_TREE),
    (_raw(StructureKind.ARBORESCENCE, Graph(2, (), directed=True), 0), _NO_ARBORESCENCE),
    # node 2 has no entering arc, so the first round fails
    (_raw(StructureKind.ARBORESCENCE, Graph(3, [(0, 1), (2, 1)], directed=True), 0),
     _NO_ARBORESCENCE),
    # nodes 2 and 3 pick each other, and their supernode has no entering arc
    (_raw(StructureKind.ARBORESCENCE, Graph(4, [(0, 1), (2, 3), (3, 2), (1, 0)], directed=True), 0),
     _NO_ARBORESCENCE),
])
def test_raw_graphs_without_a_vertex_raise_as_before(spec, message):
    for rows in SMALL_ROWS + [100]:
        for U in _blocks(spec.graph.num_edges, rows, 9):
            with pytest.raises(InfeasibleStructureError, match=message):
                argmax._map_block(spec, U)
            with pytest.raises(InfeasibleStructureError, match=message):
                _per_row(spec, U[:1])


@pytest.mark.parametrize("name", ["tree", "arborescence", "matching"])
def test_one_block_solve_per_chunk(monkeypatch, name):
    spec = SPECS[name]
    per = argmax._chunk_rows(spec)
    draws = 2 * per + 40  # the last chunk holds 40 rows
    U = np.random.default_rng(7).gumbel(size=(draws, spec.dim))
    want = _per_row(spec, U)
    log = watch_map_solves(monkeypatch)
    taken = [0]

    def noise(rows):
        taken[0] += rows
        return U[taken[0] - rows: taken[0]]

    got = np.concatenate(list(argmax._map_chunks(spec, noise, draws)))
    assert got.tobytes() == want.tobytes()
    block = BLOCK[spec.kind]
    assert [entry for entry in log if entry[0] == block] == [(block, per), (block, per),
                                                            (block, 40)]
    assert set(entry for entry in log if entry[0] != block) <= {("_cle", "contract")}


@pytest.mark.parametrize("name", ["tree", "arborescence", "sparse_arborescence"])
def test_single_row_solve_map_takes_the_per_row_path(monkeypatch, name):
    spec = SPECS[name]
    log = watch_map_solves(monkeypatch)
    for u in _blocks(spec.dim, 1, 4):
        log.clear()
        solve_map(spec, u[0])
        assert log == [PER_ROW[spec.kind]]


@pytest.mark.parametrize("name", ["tree", "arborescence", "matching"])
def test_chunked_draws_keep_the_bytes_of_single_draws(monkeypatch, name):
    """``sst sample``'s path (``draw_block`` noise through ``_map_chunks``)
    with chunks of a few rows and at the real size: the vertices and
    generator end state of one ``draw`` and one per-row solve per draw."""
    spec = SPECS[name]
    uspec = UtilitySpec(UtilityFamily.GUMBEL, np.random.default_rng(1).uniform(-1.0, 1.0, spec.dim))
    draws = 250
    rng = np.random.default_rng(12)
    want = _per_row(spec, np.stack([draw(uspec, rng).u for _ in range(draws)]))
    for rows in SMALL_ROWS + [None]:
        if rows is not None:
            monkeypatch.setattr(argmax, "_MAP_CHUNK", 8 * spec.dim * rows)
        got = np.random.default_rng(12)
        blocks = argmax._map_chunks(spec, lambda r: draw_block(uspec, got, r).u, draws)
        assert np.concatenate(list(blocks)).tobytes() == want.tobytes()
        assert got.bit_generator.state == rng.bit_generator.state
        monkeypatch.undo()


def _row_bytes(spec):
    """The bytes per row of a chunk's largest array: its utilities, or the
    Viterbi back-pointers of correlated k-subsets."""
    if spec.kind == StructureKind.CORR_K_SUBSETS:
        return max(8 * spec.dim, 2 * spec.n * (spec.k + 1))
    return 8 * max(spec.dim, 1)


@pytest.mark.parametrize("spec", [
    StructureSpec(StructureKind.CORR_K_SUBSETS, n=20, k=5),  # the benchmark's: utilities lead
    StructureSpec(StructureKind.CORR_K_SUBSETS, n=20, k=15),  # back-pointers lead
    StructureSpec(StructureKind.CORR_K_SUBSETS, n=2, k=1),
    StructureSpec(StructureKind.ONE_HOT, n=50),
    MATCHING, TREE, ARB,
    StructureSpec(StructureKind.SPANNING_TREE, graph=Graph(1, ())),
])
def test_chunks_hold_64_kib(spec):
    assert argmax._MAP_CHUNK == 1 << 16
    rows = argmax._chunk_rows(spec)
    assert rows == (1 << 16) // _row_bytes(spec)
    assert rows * _row_bytes(spec) <= 1 << 16 < (rows + 1) * _row_bytes(spec)
