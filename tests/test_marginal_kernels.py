"""The reverse-pass tree marginals and the count-vectorized DPs against
straightforward per-edge and per-count loops.

The oracles below are kept as plain loops on purpose: one full log-domain
elimination per deleted edge (mu_e = 1 - det without e / det), and the
loop DPs.  They are slow (O(m n^3) Python-level steps for trees) but
leave little room for an indexing slip, which is what the vectorized
kernels risk.  A 60-digit version of the deletion formula judges the
rounding of the tree kernel on instances too large to enumerate, and a
50-digit enumeration the linear-domain DPs' certified rows.
"""

import importlib
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from sst import (
    Graph,
    NumericalError,
    StructureKind,
    StructureSpec,
    UtilitySpec,
    directed_matrix_tree_marginals,
    draw,
    matrix_tree_marginals,
)

from dp_solves import assert_one_solve_per_dp_block, watch_dp_solves
from graphs import complete_digraph, complete_edges, complete_graph

# the package exports the function ``relax`` under the module's name
relax_mod = importlib.import_module("sst.relax")

TEMPERATURES = (1.0, 1e-2, 1e-4)


# --- oracles ------------------------------------------------------------------

def _logdet_reduced_laplacian(nn, boundary, log_w, directed):
    """Per-graph star-mesh elimination; returns the log-determinant."""
    lw = log_w.astype(float).copy()
    present = [v for v in range(nn) if v != boundary]
    pivots = []
    for pos, v in enumerate(present):
        others = present[pos + 1:] + [boundary]
        incoming = lw[others, v] if directed else lw[v, others]
        pivot = float(logsumexp(incoming)) if len(incoming) else -np.inf
        pivots.append(pivot)
        if pivot == -np.inf:
            return -np.inf
        dst = [b for b in others if b != boundary]
        if not dst:
            continue
        if directed:
            src = others
            upd = lw[src, v][:, None] + lw[v, dst][None, :] - pivot
            lw[np.ix_(src, dst)] = np.logaddexp(lw[np.ix_(src, dst)], upd)
        else:
            upd = lw[v, others][:, None] + lw[v, others][None, :] - pivot
            block = np.logaddexp(lw[np.ix_(others, others)], upd)
            np.fill_diagonal(block, -np.inf)
            lw[np.ix_(others, others)] = block
    return float(np.sum(pivots))


def _tree_marginals_per_edge(graph, boundary, theta):
    """mu_e = 1 - exp(logdet without e - logdet), one elimination per edge."""
    nn, directed = graph.num_nodes, graph.directed
    log_w = np.full((nn, nn), -np.inf)
    keep = []
    for e, (i, j) in enumerate(graph.edges):
        if directed and j == boundary:
            continue
        keep.append(e)
        log_w[i, j] = theta[e]
        if not directed:
            log_w[j, i] = theta[e]
    full = _logdet_reduced_laplacian(nn, boundary, log_w, directed)
    mu = np.zeros(graph.num_edges)
    for e in keep:
        i, j = graph.edges[e]
        cut = log_w.copy()
        cut[i, j] = -np.inf
        if not directed:
            cut[j, i] = -np.inf
        without = _logdet_reduced_laplacian(nn, boundary, cut, directed)
        mu[e] = -np.expm1(without - full)
    return mu


def _tree_marginals_mp(graph, boundary, theta, digits=60):
    """The deletion formula at ``digits`` digits: mu_e = 1 - det without e / det.

    Each determinant is a product of star-mesh pivots, built from sums,
    products and quotients of positive weights only; ``mp.det`` would
    cancel once the weights span many orders of magnitude.
    """
    mpmath = pytest.importorskip("mpmath")
    nn, directed = graph.num_nodes, graph.directed
    order = [v for v in range(nn) if v != boundary]
    with mpmath.workdps(digits):
        weights = [mpmath.exp(mpmath.mpf(float(x))) for x in theta]

        def det(skip):
            w = [[mpmath.mpf(0)] * nn for _ in range(nn)]
            for e, (i, j) in enumerate(graph.edges):
                if e != skip:
                    w[i][j] = weights[e]
                    if not directed:
                        w[j][i] = weights[e]
            total = mpmath.mpf(1)
            for pos, v in enumerate(order):
                rest = order[pos + 1:]
                pivot = sum(w[a][v] for a in rest + [boundary])
                if not pivot:
                    return pivot
                total *= pivot
                for a in rest + [boundary]:
                    for c in rest:
                        if c != a and w[a][v] and w[v][c]:
                            w[a][c] += w[a][v] * w[v][c] / pivot
            return total

        full = det(None)
        return np.array([
            0.0 if directed and j == boundary else float(1 - det(e) / full)
            for e, (i, j) in enumerate(graph.edges)
        ])


def _log_skeel_mp(graph, boundary, theta, digits=60):
    """log || |G| |L| ||_inf at ``digits`` digits: Skeel's condition number
    of the reduced Laplacian L of the weights exp(theta), the boundary's
    row and column deleted, with G its inverse."""
    mpmath = pytest.importorskip("mpmath")
    nn = graph.num_nodes
    keep = [v for v in range(nn) if v != boundary]
    with mpmath.workdps(digits):
        lap = mpmath.zeros(nn, nn)
        for (i, j), x in zip(graph.edges, theta):
            w = mpmath.exp(mpmath.mpf(float(x)))
            for a, c in ([(i, j)] if graph.directed else [(i, j), (j, i)]):
                lap[a, c] -= w  # arc a->c; c's in-weight on the diagonal
                lap[c, c] += w
        red = mpmath.matrix([[abs(lap[a, c]) for c in keep] for a in keep])
        g = mpmath.inverse(mpmath.matrix([[lap[a, c] for c in keep] for a in keep]))
        m = len(keep)
        return float(mpmath.log(max(
            sum(abs(g[r, q]) * red[q, c] for q in range(m) for c in range(m)) for r in range(m))))


def _theta(u, t):
    z = np.asarray(u, dtype=float) / t
    return z - z.max()


def _undirected_oracle(graph, u, t):
    # node 0, not the solver's last node: the marginals do not depend on
    # which row and column of the Laplacian are deleted
    return _tree_marginals_per_edge(graph, 0, _theta(u, t))


def _directed_oracle(graph, root, u, t):
    return _tree_marginals_per_edge(graph, root, _theta(u, t))


def _cardinality_dp_loop(z, k):
    n = z.shape[0]
    fwd = np.full((n + 1, k + 1), -np.inf)
    fwd[0, 0] = 0.0
    for i in range(1, n + 1):
        for c in range(k + 1):
            skip = fwd[i - 1, c]
            take = fwd[i - 1, c - 1] + z[i - 1] if c else -np.inf
            fwd[i, c] = np.logaddexp(skip, take)
    bwd = np.full((n + 1, k + 1), -np.inf)
    bwd[n, 0] = 0.0
    for i in range(n - 1, -1, -1):
        for c in range(k + 1):
            skip = bwd[i + 1, c]
            take = bwd[i + 1, c - 1] + z[i] if c else -np.inf
            bwd[i, c] = np.logaddexp(skip, take)
    mu = np.empty(n)
    for i in range(n):
        terms = [fwd[i, c] + bwd[i + 1, k - 1 - c] for c in range(k)]
        mu[i] = np.exp(z[i] + logsumexp(terms) - fwd[n, k])
    return mu


def _chain_dp_loop(n, k, z):
    phi, psi = z[:n], z[n:]
    neg = -np.inf
    fwd = np.full((n, 2, k + 1), neg)
    fwd[0, 0, 0] = 0.0
    fwd[0, 1, 1] = phi[0]
    for i in range(1, n):
        for s in (0, 1):
            gain = phi[i] if s else 0.0
            for c in range(s, k + 1):
                a = fwd[i - 1, 0, c - s] + gain
                b = fwd[i - 1, 1, c - s] + gain + (psi[i - 1] if s else 0.0)
                fwd[i, s, c] = np.logaddexp(a, b)
    log_z = logsumexp(fwd[n - 1, :, k])
    bwd = np.full((n, 2, k + 1), neg)
    bwd[n - 1, :, 0] = 0.0
    for i in range(n - 2, -1, -1):
        for s in (0, 1):
            for c in range(k + 1):
                a = bwd[i + 1, 0, c]
                b = neg
                if c >= 1:
                    b = bwd[i + 1, 1, c - 1] + phi[i + 1] + (psi[i] if s else 0.0)
                bwd[i, s, c] = np.logaddexp(a, b)
    mu = np.zeros(2 * n - 1)
    for i in range(n):
        terms = [fwd[i, 1, c] + bwd[i, 1, k - c] for c in range(1, k + 1)]
        mu[i] = np.exp(logsumexp(terms) - log_z)
    for i in range(n - 1):
        terms = [
            fwd[i, 1, c] + psi[i] + phi[i + 1] + bwd[i + 1, 1, k - c - 1]
            for c in range(1, k)
        ]
        if terms:
            mu[n + i] = np.exp(logsumexp(terms) - log_z)
    return mu


def _dp_marginals_mp(z, n, k, digits=50):
    """The k-subset (``len(z) == n``) or chain (``2 n - 1``) marginals at
    ``digits`` digits, by enumerating the k-subsets."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        scores = [mpmath.mpf(float(x)) for x in z]
        total, mass = mpmath.mpf(0), [mpmath.mpf(0)] * len(z)
        for chosen in itertools.combinations(range(n), k):
            on = list(chosen)
            if len(z) > n:
                on += [n + i for i in chosen if i + 1 in chosen]
            weight = mpmath.exp(mpmath.fsum(scores[i] for i in on))
            total += weight
            for i in on:
                mass[i] += weight
        return np.array([float(m / total) for m in mass])


# --- instances ----------------------------------------------------------------

def _random_connected_digraph(n, p, seed):
    """Random arcs with probability p, plus a random path from node 0 to all."""
    rng = np.random.default_rng(seed)
    arcs = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p}
    perm = [0] + list(rng.permutation(np.arange(1, n)))
    arcs |= {(int(a), int(b)) for a, b in zip(perm, perm[1:])}
    return Graph(n, sorted(arcs), directed=True)


def _random_connected_graph(n, m, seed):
    """A random spanning path plus random extra edges, m edges in all."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(perm, perm[1:])}
    pairs = list(itertools.combinations(range(n), 2))
    for idx in rng.permutation(len(pairs)):
        if len(edges) >= m:
            break
        edges.add(pairs[idx])
    return Graph(n, sorted(edges))


# --- tree marginals -----------------------------------------------------------

class TestBatchedTreeMarginals:
    @pytest.mark.parametrize("n", [6, 10, 16])
    @pytest.mark.parametrize("t", TEMPERATURES)
    def test_complete_graphs_match_per_edge_path(self, n, t):
        g = complete_graph(n)
        u = np.random.default_rng(n).normal(size=g.num_edges)
        got = matrix_tree_marginals(g, u, t).x
        want = _undirected_oracle(g, u, t)
        np.testing.assert_allclose(got, np.clip(want, 0.0, 1.0), rtol=0, atol=1e-10)
        assert abs(got.sum() - (n - 1)) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("t", TEMPERATURES)
    def test_random_digraphs_match_per_edge_path(self, seed, t):
        g = _random_connected_digraph(7 + seed, 0.5, seed)
        u = np.random.default_rng(100 + seed).normal(size=g.num_edges)
        got = directed_matrix_tree_marginals(g, 0, u, t).x
        want = _directed_oracle(g, 0, u, t)
        np.testing.assert_allclose(got, np.clip(want, 0.0, 1.0), rtol=0, atol=1e-10)
        assert abs(got.sum() - (g.num_nodes - 1)) < 1e-9

    def test_equal_weights(self):
        g = complete_graph(7)
        u = np.zeros(g.num_edges)
        got = matrix_tree_marginals(g, u).x
        want = _undirected_oracle(g, u, 1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        # every edge of K_n is in the same share (n - 1) / m of the trees
        np.testing.assert_allclose(got, 2.0 / 7, rtol=0, atol=1e-12)
        d = complete_digraph(6)
        got = directed_matrix_tree_marginals(d, 2, np.zeros(d.num_edges)).x
        want = _directed_oracle(d, 2, np.zeros(d.num_edges), 1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert abs(got.sum() - 5) < 1e-9

    @pytest.mark.parametrize("t", TEMPERATURES)
    def test_bridges_have_marginal_exactly_one(self, t):
        # two triangles joined by the bridge (2, 3), and a pendant edge (5, 6)
        g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6)])
        u = np.random.default_rng(3).normal(size=g.num_edges)
        got = matrix_tree_marginals(g, u, t).x
        # 1 up to rounding: the reverse pass sums a bridge's adjoints
        assert 1.0 - got[3] <= 1e-12 and 1.0 - got[7] <= 1e-12
        want = _undirected_oracle(g, u, t)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert abs(got.sum() - 6) < 1e-9
        # node 3 is entered only from node 2
        d = Graph(5, [(0, 1), (1, 0), (0, 2), (2, 1), (2, 3), (3, 4), (4, 3)], directed=True)
        u = np.random.default_rng(4).normal(size=d.num_edges)
        got = directed_matrix_tree_marginals(d, 0, u, t).x
        assert 1.0 - got[4] <= 1e-12
        want = _directed_oracle(d, 0, u, t)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert abs(got.sum() - 4) < 1e-9

    def test_forty_nodes_match_per_edge_path(self):
        g = _random_connected_graph(40, 200, seed=5)
        u = np.random.default_rng(6).normal(size=g.num_edges)
        got = matrix_tree_marginals(g, u, 0.1).x
        want = _undirected_oracle(g, u, 0.1)
        np.testing.assert_allclose(got, np.clip(want, 0.0, 1.0), rtol=0, atol=1e-10)
        assert abs(got.sum() - 39) < 1e-9

    def test_large_instances_take_one_elimination(self):
        # one elimination and one reverse sweep cost O(n^3) flops; an
        # elimination per deleted edge, O(m n^3), takes seconds on K64
        g = complete_graph(64)
        d = complete_digraph(32)
        u = np.random.default_rng(13).normal(size=g.num_edges)
        v = np.random.default_rng(14).normal(size=d.num_edges)
        start = time.perf_counter()
        tree = matrix_tree_marginals(g, u, 0.1).x
        arb = directed_matrix_tree_marginals(d, 0, v, 0.1).x
        assert time.perf_counter() - start < 0.5
        assert abs(tree.sum() - 63) < 1e-9
        assert abs(arb.sum() - 31) < 1e-9

    @pytest.mark.parametrize("t", TEMPERATURES)
    def test_high_precision_oracle(self, t):
        bound = 5e-12 if t < 1e-2 else 1e-13

        def jittered_ties(size):
            # integer utilities tie; a jitter of t leaves the tied edges
            # O(1) apart in u / t, so the marginals stay fractional while
            # the log weights span 1 / t
            return np.round(rng.normal(size=size)) + t * rng.normal(size=size)

        for seed in (0, 1, 2):
            # two 5-node blobs joined by the bridge path 4-5-6-7
            rng = np.random.default_rng(20 + seed)
            blob = list(itertools.combinations(range(5), 2))
            edges = blob + [(a + 7, b + 7) for a, b in blob] + [(4, 5), (5, 6), (6, 7)]
            edges = [e for e in edges if e in {(4, 5), (5, 6), (6, 7)} or rng.random() < 0.8]
            g = Graph(12, edges)
            assert g.is_connected()
            u = jittered_ties(g.num_edges)
            theta = _theta(u, t)
            want = _tree_marginals_mp(g, 0, theta)
            got = matrix_tree_marginals(g, u, t).x
            assert np.abs(got - want).max() <= bound
            d = _random_connected_digraph(7, 0.5, 30 + seed)
            u = jittered_ties(d.num_edges)
            want = _tree_marginals_mp(d, 0, _theta(u, t))
            got = directed_matrix_tree_marginals(d, 0, u, t).x
            assert np.abs(got - want).max() <= bound

    def test_last_node_boundary_against_high_precision_oracle(self):
        # graphs where the last node, the one the solver eliminates toward,
        # is a poor pick: a leaf on the lightest edge, a node whose edges
        # are all 4 lighter, a node behind a bridge
        leaf = Graph(7, complete_edges(6) + [[2, 6]])
        light = complete_graph(7)
        bridged = Graph(8, complete_edges(4) + [[a + 4, b + 4] for a, b in complete_edges(4)]
                        + [[3, 4]])
        rng = np.random.default_rng(40)
        worst = 0.0
        for count, (g, t) in enumerate(itertools.product(
                (complete_graph(6), complete_graph(8), leaf, light, bridged),
                (1.0, 0.1, 0.01, 1e-3))):
            u = rng.normal(size=g.num_edges)
            if count % 3 == 2:
                u = np.round(u)  # ties
            if g is leaf:
                u[-1] = u.min() - 1.0
            if g is light:
                u[[i for i, e in enumerate(g.edges) if 6 in e]] -= 4.0
            want = _tree_marginals_mp(g, 0, _theta(u, t))
            worst = max(worst, np.abs(matrix_tree_marginals(g, u, t).x - want).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("t", (1.0, 0.5, 0.2))
    def test_condition_estimate_is_the_log_skeel_condition_number(self, t):
        g = complete_graph(6)
        rng = np.random.default_rng(int(10 * t))
        checked = 0
        for u in _gate_rows(rng, g.num_edges, t, 8):
            want = _log_skeel_mp(g, g.num_nodes - 1, _theta(u, t))
            if want <= math.log(1e6):
                assert abs(matrix_tree_marginals(g, u, t).condition_estimate - want) <= 1e-9
                checked += 1
        assert checked >= 4
        # the reduced Laplacian is singular in double precision here, and
        # the point says so with no warning
        u = np.random.default_rng(11).normal(size=g.num_edges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert matrix_tree_marginals(g, u, 1e-4).condition_estimate == np.inf

    @pytest.mark.parametrize("t", (1.0, 0.5, 0.2))
    def test_directed_condition_estimate_is_the_log_skeel_condition_number(self, t):
        d = complete_digraph(5)
        rng = np.random.default_rng(int(10 * t) + 1)
        checked = 0
        for root, u in zip(itertools.cycle((0, 3)), _gate_rows(rng, d.num_edges, t, 8)):
            want = _log_skeel_mp(d, root, _theta(u, t))
            if want <= math.log(1e6):
                got = directed_matrix_tree_marginals(d, root, u, t).condition_estimate
                assert abs(got - want) <= 1e-9
                checked += 1
        assert checked >= 4


# --- the certified inverse path -----------------------------------------------

GATE_TEMPERATURES = (1.0, 0.5, 0.2, 0.1, 0.05, 1e-2, 1e-4)


def _both_paths(graph, root, u, t):
    """For the utility rows ``u`` at temperature ``t``: the inverse path's
    marginals, certified mask and Skeel condition numbers with the
    ``condition_estimate`` of each row's public point, the kernel's
    marginals, the max-shifted log weights both read (formed as the tree
    solves form them) and the boundary.  Both paths run under the guard
    ``_tree_rows`` holds for them."""
    nn, directed = graph.num_nodes, root is not None
    boundary = root if directed else nn - 1
    plan = graph.tree_plan(boundary)
    theta = u / t
    theta = theta - theta.max(axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        mu, ok, cond = relax_mod._tree_rows_by_inverse(nn, *plan, np.exp(theta), directed)
        want = relax_mod._tree_marginals_by_logdet(nn, *plan, theta, directed)
    est = np.array([(matrix_tree_marginals(graph, row, t) if root is None
                     else directed_matrix_tree_marginals(graph, root, row, t)).condition_estimate
                    for row in u])
    return (mu, ok, cond, est), want, theta, boundary


def _gate_rows(rng, dim, t, rows):
    """Normal, tied, jittered-tie and wide utility rows, cycled."""
    kinds = (lambda: rng.normal(size=dim),
             lambda: np.round(rng.normal(size=dim)),
             lambda: np.round(rng.normal(size=dim)) + t * rng.normal(size=dim),
             lambda: 3.0 * rng.normal(size=dim))
    return np.stack([kinds[r % 4]() for r in range(rows)])


class TestCertifiedInverse:
    """The certificate's gate: a row the per-edge bound accepts lies within
    1e-12 of the 60-digit oracle and of the kernel, at every temperature,
    and every row's public point reports the log of the condition number
    the certificate read."""

    @pytest.mark.parametrize("t", GATE_TEMPERATURES)
    def test_certified_rows_against_high_precision_oracle(self, t):
        leaf = Graph(6, complete_edges(5) + [[1, 5]])  # a leaf on the lightest edge
        bridged = Graph(6, [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [3, 5], [4, 5]])
        cases = [(complete_graph(6), None), (complete_digraph(5), 0), (complete_digraph(5), 3),
                 (leaf, None), (bridged, None)]
        rng = np.random.default_rng(int(round(-np.log10(t) * 10)))
        certified = 0
        for graph, root in cases:
            u = _gate_rows(rng, graph.num_edges, t, 8)
            if graph is leaf:
                u[:, -1] = u.min(axis=1) - 1.0
            (mu, ok, _, _), _, theta, boundary = _both_paths(graph, root, u, t)
            for r in np.flatnonzero(ok):
                want = _tree_marginals_mp(graph, boundary, theta[r])
                assert np.abs(np.clip(mu[r], 0.0, 1.0) - want).max() <= 1e-12
            certified += ok.sum()
        if t >= 0.1:
            assert certified

    @pytest.mark.parametrize("t", GATE_TEMPERATURES)
    def test_certified_rows_against_the_kernel(self, t):
        rng = np.random.default_rng(int(round(-np.log10(t) * 10)) + 100)
        for graph, root, rows in ((complete_graph(10), None, 12), (complete_digraph(8), 0, 12),
                                  (complete_graph(32), None, 4)):
            u = _gate_rows(rng, graph.num_edges, t, rows)
            (mu, ok, cond, est), want, _, _ = _both_paths(graph, root, u, t)
            assert np.abs(mu[ok] - want[ok]).max(initial=0.0) <= 1e-12
            assert est.tobytes() == np.array([math.log(c) for c in cond]).tobytes()
            for r in range(rows):  # and each row alone has the bytes it has in the block
                alone, _, _, _ = _both_paths(graph, root, u[r:r + 1], t)
                assert ([x[0].tobytes() for x in alone]
                        == [x[r].tobytes() for x in (mu, ok, cond, est)])

    def test_rejected_rows_are_the_ill_conditioned_ones(self):
        # equal weights stay certified at any temperature; t = 1e-4 on
        # distinct utilities spreads the weights past what the bound accepts
        g = complete_graph(10)
        theta = np.stack([np.zeros(g.num_edges), _theta(np.random.default_rng(3).normal(
            size=g.num_edges), 1e-4)])
        (_, ok, _, _), _, _, _ = _both_paths(g, None, theta, 1.0)
        assert list(ok) == [True, False]


# --- k-subset DPs -------------------------------------------------------------

def _semirings(spec, z):
    """The log semiring, and the linear one where ``_dp_certified`` accepts
    the one row ``z``."""
    if relax_mod._dp_certified(z[None], spec.n, spec.k)[0]:
        return (relax_mod._LOG, relax_mod._LINEAR)
    return (relax_mod._LOG,)


class TestVectorizedDPs:
    @pytest.mark.parametrize("n,k", [(2, 1), (9, 1), (9, 4), (9, 8), (40, 39), (100, 10)])
    def test_cardinality_dp_matches_loops(self, n, k):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=n, k=k)
        z = 4.0 * np.random.default_rng(n * 100 + k).normal(size=n)
        for sr in _semirings(spec, z):
            got = _dp_kernel(spec, z[None], sr)[0]
            np.testing.assert_allclose(got, _cardinality_dp_loop(z, k), rtol=0, atol=1e-10)
            assert abs(got.sum() - k) < 1e-9

    @pytest.mark.parametrize("n,k", [(2, 1), (9, 1), (9, 2), (9, 5), (9, 8), (30, 29), (50, 10)])
    def test_chain_dp_matches_loops(self, n, k):
        spec = StructureSpec(StructureKind.CORR_K_SUBSETS, n=n, k=k)
        z = 4.0 * np.random.default_rng(n * 100 + k).normal(size=2 * n - 1)
        for sr in _semirings(spec, z):
            got = _dp_kernel(spec, z[None], sr)[0]
            np.testing.assert_allclose(got, _chain_dp_loop(n, k, z), rtol=0, atol=1e-10)
            assert abs(got[:n].sum() - k) < 1e-9
            if k == 1:
                assert not got[n:].any()


# --- the linear semiring and its certificate -----------------------------------

DP_TEMPERATURES = (1.0, 0.3, 0.1, 1e-2, 1e-4)
# n = 2, k = 1 and k = n - 1 among them
DP_SIZES = ((2, 1), (5, 1), (5, 4), (8, 3), (10, 5), (10, 9))


def _dp_kernel(spec, z, sr):
    if spec.kind == StructureKind.K_SUBSETS:
        return relax_mod._cardinality_dp(z, spec.k, sr)
    return relax_mod._chain_dp(spec.n, spec.k, z, sr)


def _log_kernel(spec, z):
    return _dp_kernel(spec, z, relax_mod._LOG)


def _dp_gate_rows(rng, dim):
    """A normal, a tied, a wide and an offset (u + 500) row."""
    u = rng.normal(size=dim)
    return np.stack([u, np.round(rng.normal(size=dim)), 3.0 * rng.normal(size=dim), u + 500.0])


@pytest.mark.parametrize("kind", [StructureKind.K_SUBSETS, StructureKind.CORR_K_SUBSETS])
class TestLinearDPs:
    """The gate of the linear-domain DPs: a row the certificate accepts lies
    within 1e-12 relative of a 50-digit oracle on every marginal above
    1e-300 and within 1e-12 of the log kernel; a row it rejects gets the
    log kernel's bytes; and every row of a block its one-row bytes."""

    @pytest.mark.parametrize("t", DP_TEMPERATURES)
    def test_certified_rows_against_the_oracle_and_the_log_kernel(self, kind, t):
        rng = np.random.default_rng(int(round(-np.log10(t) * 10)) + (kind == StructureKind.K_SUBSETS))
        certified = 0
        for n, k in DP_SIZES:
            spec = StructureSpec(kind, n=n, k=k)
            u = _dp_gate_rows(rng, spec.dim)
            z = u / t
            mu = relax_mod._expfam_rows(spec, u, t)
            ok = relax_mod._dp_certified(z, n, k)
            assert np.isfinite(mu).all()
            for r in np.flatnonzero(ok):
                want = _dp_marginals_mp(z[r], n, k)
                big = want > 1e-300
                assert (np.abs(mu[r] - want)[big] <= 1e-12 * want[big]).all()
                assert np.abs(mu[r] - _log_kernel(spec, z[r:r + 1])[0]).max() <= 1e-12
            assert mu[~ok].tobytes() == _log_kernel(spec, z[~ok]).tobytes()
            for r in range(len(u)):
                assert relax_mod._expfam_rows(spec, u[r:r + 1], t)[0].tobytes() == mu[r].tobytes()
            certified += ok.sum()
        if t >= 0.1:
            assert certified

    def test_large_common_offset(self, kind):
        """u + 500 at t = 1: the k-subset row certifies, since its weights are
        shifted by their max; the chain's pair factors exp(psi) would
        overflow, so a chain row with k >= 2 goes to the log kernel, and one
        with k = 1, which has no pair factor, certifies.  All are finite."""
        rng = np.random.default_rng(500)
        for n, k in DP_SIZES:
            spec = StructureSpec(kind, n=n, k=k)
            u = rng.normal(size=(1, spec.dim)) + 500.0
            ok = relax_mod._dp_certified(u, n, k)
            assert ok[0] == (kind == StructureKind.K_SUBSETS or k == 1)
            mu = relax_mod._expfam_rows(spec, u, 1.0)[0]
            assert np.isfinite(mu).all()
            assert np.abs(mu - _dp_marginals_mp(u[0], n, k)).max() <= 1e-10

    def test_log_kernel_shifts_out_a_unary_offset(self, kind):
        """Unary scores + 500 at t = 0.1 on n = 9, k = 3: every configuration
        holds k ones, so the log kernel subtracts the largest unary score,
        and the offset's rounding stays out of its sums.  An offset on the
        pair scores cannot be shifted out: configurations hold different
        numbers of adjacent pairs, so it changes the law itself."""
        n, k, t = 9, 3, 0.1
        spec = StructureSpec(kind, n=n, k=k)
        u = np.random.default_rng(9).normal(size=spec.dim)
        u[:n] += 500.0
        z = u[None] / t
        mu = _log_kernel(spec, z)[0]
        want = _dp_marginals_mp(z[0], n, k)
        big = want > 1e-300
        assert (np.abs(mu - want)[big] <= 1e-13 * want[big]).all()
        if kind == StructureKind.CORR_K_SUBSETS:
            z[:, n:] += 1.0
            assert not np.allclose(_log_kernel(spec, z)[0], mu, rtol=1e-3, atol=0.0)

    def test_certificate_edges(self, kind):
        """The lower bound of the monomials' logs against the smallest normal
        double, and, on a chain, the upper bound of the pair factors'."""
        n, k = 6, 3
        spec = StructureSpec(kind, n=n, k=k)
        floor = (relax_mod._LOG_TINY + 1.0) / k
        z = np.zeros((2, spec.dim))
        z[:, 0] = [floor, floor * (1 + 1e-9)]  # one unary score at and past the floor
        assert list(relax_mod._dp_certified(z, n, k)) == [True, False]
        if kind == StructureKind.CORR_K_SUBSETS:
            count = math.log(k * math.comb(n, k))
            z = np.zeros((2, spec.dim))
            z[:, n] = np.array([1.0, 1.0 + 1e-9]) * (relax_mod._LOG_HUGE - count - 1.0) / (k - 1)
            assert list(relax_mod._dp_certified(z, n, k)) == [True, False]
            for row in z:  # the certified row overflows nothing
                assert np.isfinite(relax_mod._expfam_rows(spec, row[None], 1.0)).all()
        z = np.zeros((1, spec.dim))
        z[0, 0] = -np.finfo(float).max
        z[0, 1] = np.finfo(float).max  # the spread overflows
        with np.errstate(over="ignore"):  # the guard ``_expfam_rows`` holds
            assert not relax_mod._dp_certified(z, n, k)[0]

    def test_equal_scores_at_the_overflow_edge(self, kind):
        """Equal scores on k = n / 2 around n = 1024, where k C(n, k) first
        passes the largest double: every unary marginal is k / n, whichever
        kernel the certificate picks, and n = 1024 itself is rejected, since
        the numerators' sum k Z would overflow there though C(n, k) does
        not."""
        picks = set()
        for n in (1018, 1020, 1024):
            k = n // 2
            spec = StructureSpec(kind, n=n, k=k)
            z = np.zeros((1, spec.dim))
            ok = relax_mod._dp_certified(z, n, k)[0]
            picks.add(ok)
            mu = relax_mod._expfam_rows(spec, z, 1.0)[0]
            assert np.abs(mu[:n] - k / n).max() <= 1e-12
            if n == 1024:
                assert math.lgamma(n + 1) - 2 * math.lgamma(k + 1) < relax_mod._LOG_HUGE - 1.0
                assert not ok
        assert picks == {True, False}

    def test_relaxed_step_instances_certify_at_t1(self, kind):
        """Gumbel draws around U(-1, 1) locations on n = 100, k = 10 and on
        the chain n = 50, k = 10, as the benchmark's step makes them."""
        n = 100 if kind == StructureKind.K_SUBSETS else 50
        spec = StructureSpec(kind, n=n, k=10)
        theta = np.random.default_rng(1).uniform(-1.0, 1.0, spec.dim)
        u = np.stack([draw(UtilitySpec("gumbel", theta), np.random.default_rng(s)).u
                      for s in range(200)])
        assert relax_mod._dp_certified(u, n, 10).all()

    def test_mixed_block_keeps_the_one_row_bytes(self, kind, monkeypatch):
        spec = StructureSpec(kind, n=40, k=10)
        u = np.random.default_rng(41).normal(size=(6, spec.dim)) * [[0.3], [3], [1], [4], [0.5], [2]]
        log = watch_dp_solves(monkeypatch)
        mu = relax_mod._expfam_rows(spec, u, 0.1)
        ok = assert_one_solve_per_dp_block(log, u, 0.1, spec.n, spec.k)
        assert ok.any() and not ok.all()
        monkeypatch.undo()
        for r in range(len(u)):
            assert relax_mod._expfam_rows(spec, u[r:r + 1], 0.1)[0].tobytes() == mu[r].tobytes()


# --- the one-vector tree kernel the block kernel replaced ---------------------
#
# Copied from the version before the kernel took a leading row axis; every
# row of a block must carry exactly its bytes.

def _tree_marginals_by_logdet(nn, boundary, edges, theta, directed):
    """Per-edge marginals as the gradient of the log-determinant.

    ``mu_e`` is the derivative of log Z = log det(reduced Laplacian) in
    the edge's log weight.  ``lw[a, c]`` is the log weight of arc a->c
    (-inf where absent; an undirected edge is a pair of arcs).  The
    boundary, whose row and column the reduced Laplacian drops, moves
    last, and the forward pass eliminates the others in index order.
    Pivoted elimination of a Laplacian is star-mesh graph contraction:
    node v's pivot is its total in-weight from the nodes still present,
    and removing v gives every arc a->c the extra weight
    ``w(a->v) w(v->c) / pivot``.  So every pivot is a logsumexp and every
    fill-in a logaddexp, nothing is subtracted, the pass is exact at any
    exponent range of the weights, and log Z is the sum of the log
    pivots.  Each fill-in keeps the shares of its two terms.  The reverse
    pass sends the adjoints back from the last pivot to the first: a
    fill-in splits its adjoint between the arc's old weight and the two
    arcs through v, and v's pivot gets 1 minus what the fill-ins through
    v took, spread over v's incoming arcs by their softmax weights.  An
    edge's marginal is the adjoint of its arcs.  O(n^3) flops and about
    2 n^3 / 3 doubles of shares; the inverse-Laplacian formula is avoided
    because it cancels once the distribution concentrates.
    """
    neg = -np.inf
    # the boundary moves last, the other nodes keep their order
    pos = np.arange(nn) - (np.arange(nn) > boundary)
    pos[boundary] = nn - 1
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    keep = np.flatnonzero(ends[:, 1] != boundary) if directed else np.arange(len(edges))
    src, dst = pos[ends[keep, 0]], pos[ends[keep, 1]]
    lw = np.full((nn, nn), neg)
    lw[src, dst] = theta[keep]
    if not directed:
        lw[dst, src] = theta[keep]
    steps = []
    for v in range(nn - 1):
        incoming = lw[v + 1:, v]
        top = incoming.max()
        if top == neg:
            raise NumericalError("singular reduced Laplacian")
        soft = np.exp(incoming - top)
        total = soft.sum()
        pivot = top + math.log(total)
        old = lw[v + 1:, v + 1:nn - 1]
        x = incoming[:, None] + (lw[v, v + 1:nn - 1] - pivot)
        new = np.logaddexp(old, x)
        # both shares are 0 where both terms are -inf
        live = np.where(new == neg, 0.0, new)
        steps.append((soft / total, np.exp(x - live), np.exp(old - live)))
        old[...] = new
    adj = np.zeros((nn, nn))
    for v in range(nn - 2, -1, -1):
        soft, to_x, to_old = steps[v]
        block = adj[v + 1:, v + 1:nn - 1]
        through = block * to_x
        block *= to_old
        rows = through.sum(axis=1)
        adj[v + 1:, v] += rows + (1.0 - rows.sum()) * soft
        adj[v, v + 1:nn - 1] += through.sum(axis=0)
    mu = np.zeros(len(edges))
    mu[keep] = adj[src, dst] if directed else adj[src, dst] + adj[dst, src]
    return mu


def _byte_rows(block, rows):
    return [r.tobytes() for r in block] == [r.tobytes() for r in rows]


def _assert_dp_block_rows(spec, rng, oracle):
    """Blocks of three rows at scales 1, 1e2 and 1e4, the middle one tied:
    in each semiring every row of a block has the bytes of its one-row
    solve and lies within 1e-10 of the loop oracle, plus the rounding of a
    sum of 2 k scores as large as the row's (a configuration's score sums
    at most 2 k - 1 of them: on the chain n = 20, k = 19 at scale 1e4 the
    kernel is 1.2e-10 and the oracle 4.4e-11 off a 50-digit enumeration).  The
    linear semiring runs on the rows ``_dp_certified`` accepts, as
    ``_expfam_rows`` runs it."""
    for scale in (1.0, 1e2, 1e4):
        z = scale * rng.normal(size=(3, spec.dim))
        z[1] = np.round(z[1] / scale)  # ties
        ok = relax_mod._dp_certified(z, spec.n, spec.k)
        for sr, rows in ((relax_mod._LOG, z), (relax_mod._LINEAR, z[ok])):
            mu = _dp_kernel(spec, rows, sr)
            for row, got in zip(rows, mu):
                assert _dp_kernel(spec, row[None], sr)[0].tobytes() == got.tobytes()
                atol = 1e-10 + 2 * spec.k * np.finfo(float).eps * np.abs(row).max()
                np.testing.assert_allclose(got, oracle(row), rtol=0, atol=atol)


class TestBlockKernelsKeepTheOneVectorBytes:
    @pytest.mark.parametrize("n,k", [(2, 1), (9, 1), (9, 4), (12, 11), (40, 10), (100, 10)])
    def test_cardinality_dp(self, n, k):
        _assert_dp_block_rows(StructureSpec(StructureKind.K_SUBSETS, n=n, k=k),
                              np.random.default_rng(n * 7 + k), lambda z: _cardinality_dp_loop(z, k))

    @pytest.mark.parametrize("n,k", [(2, 1), (9, 1), (9, 2), (9, 5), (20, 19), (50, 10)])
    def test_chain_dp(self, n, k):
        _assert_dp_block_rows(StructureSpec(StructureKind.CORR_K_SUBSETS, n=n, k=k),
                              np.random.default_rng(n * 11 + k), lambda z: _chain_dp_loop(n, k, z))

    @pytest.mark.parametrize("t", TEMPERATURES)
    def test_tree_kernel(self, t):
        rng = np.random.default_rng(int(-np.log10(t)))
        cases = [(complete_graph(n), None) for n in (2, 3, 6, 10, 12)]
        cases += [(_random_connected_graph(9, 14, s), None) for s in range(3)]
        cases += [(_random_connected_digraph(n, 0.5, s), 0) for n, s in ((3, 0), (6, 1), (10, 2))]
        for graph, root in cases:
            u = np.stack([rng.normal(size=graph.num_edges), np.round(rng.normal(size=graph.num_edges))])
            theta = _theta(u, t)
            theta = theta - theta.max(axis=1, keepdims=True)
            boundary = root if root is not None else graph.edges[int(np.argmax(theta[0]))][0]
            want = [_tree_marginals_by_logdet(graph.num_nodes, boundary, graph.edges, row,
                                              directed=root is not None) for row in theta]
            mu = relax_mod._tree_marginals_by_logdet(
                graph.num_nodes, *graph.tree_plan(boundary), theta, directed=root is not None)
            assert _byte_rows(mu, want)
