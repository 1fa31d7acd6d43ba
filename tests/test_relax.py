import importlib
import itertools
import math
import zlib

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit, logit

from sst import (
    ConvergenceError,
    FDConfig,
    Graph,
    InfeasibleStructureError,
    InputError,
    NumericalError,
    RelaxationSpec,
    Regularizer,
    StructureKind,
    StructureSpec,
    UnsupportedPairError,
    analytic_jacobian,
    binary_entropy_relax,
    categorical_entropy_relax,
    directed_matrix_tree_marginals,
    euclidean_project,
    expfam_marginals,
    fd_vjp,
    gibbs_marginals_bruteforce,
    gradcheck,
    cle_max_arborescence,
    hungarian_match,
    kruskal_max_tree,
    matrix_tree_marginals,
    relax,
    sample_arborescence_categorical,
    sample_topk_without_replacement,
    sample_tree_categorical,
    sinkhorn_relax,
    softmax_simplex,
    solve_map,
    supported_pairs,
    topk_select,
)
from sst.errors import InvalidSpecError

from graphs import D3, K3, K4, complete_arcs, complete_digraph, complete_edges, complete_graph
from dp_solves import assert_one_solve_per_dp_block, watch_dp_solves
from tree_solves import assert_one_solve_per_block, watch_tree_solves

class TestSoftmax:
    def test_closed_form(self):
        x = softmax_simplex(np.array([0.0, np.log(2.0), np.log(3.0)]), 1.0).x
        np.testing.assert_allclose(x, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)

    def test_cold_temperature_saturates(self):
        # the small coordinate is 1/(1 + e^100) < 1e-43
        x = softmax_simplex(np.array([1.0, 0.0]), 0.01).x
        assert x[1] < 1e-43
        assert x[1] == pytest.approx(np.exp(-100.0), rel=1e-10)
        assert x[0] == pytest.approx(1.0, abs=1e-15)

    def test_shift_invariance(self):
        u = np.array([0.3, -1.2, 0.7])
        a = softmax_simplex(u, 0.8).x
        b = softmax_simplex(u + 17.5, 0.8).x
        np.testing.assert_allclose(a, b, atol=1e-10)


def _project_simplex_oracle(z):
    """KKT active-set enumeration for the simplex projection."""
    n = len(z)
    best, best_obj = None, np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            tau = (sum(z[list(support)]) - 1.0) / r
            x = np.zeros(n)
            x[list(support)] = z[list(support)] - tau
            if (x >= -1e-12).all():
                obj = float(((x - z) ** 2).sum())
                if obj < best_obj:
                    best, best_obj = x, obj
    return best


def _capped_simplex_oracle(z, k):
    """Active-set enumeration for min ||x - z||^2 s.t. 0 <= x <= 1, sum x = k."""
    n = len(z)
    best, best_obj = None, np.inf
    idx = set(range(n))
    for lo_size in range(n + 1):
        for lo in itertools.combinations(range(n), lo_size):
            rest = idx - set(lo)
            for hi_size in range(len(rest) + 1):
                for hi in itertools.combinations(sorted(rest), hi_size):
                    free = sorted(rest - set(hi))
                    if not free and len(hi) != k:
                        continue
                    x = np.zeros(n)
                    x[list(hi)] = 1.0
                    if free:
                        tau = (sum(z[free]) - (k - len(hi))) / len(free)
                        x[free] = z[free] - tau
                    if (x >= -1e-12).all() and (x <= 1 + 1e-12).all() and abs(x.sum() - k) < 1e-9:
                        obj = float(((x - z) ** 2).sum())
                        if obj < best_obj:
                            best, best_obj = x, obj
    return best


class TestEuclidean:
    def test_simplex_vertex(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        x = euclidean_project(spec, np.array([2.0, 0.0]), 1.0).x
        np.testing.assert_allclose(x, _project_simplex_oracle(np.array([2.0, 0.0])), atol=1e-12)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    def test_simplex_interior_fixed_point(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        x = euclidean_project(spec, np.array([0.6, 0.4]), 1.0).x
        np.testing.assert_allclose(x, [0.6, 0.4], atol=1e-12)

    def test_simplex_matches_kkt_oracle(self):
        rng = np.random.default_rng(3)
        spec = StructureSpec(StructureKind.ONE_HOT, n=4)
        for _ in range(25):
            z = rng.normal(size=4)
            got = euclidean_project(spec, z, 1.0).x
            np.testing.assert_allclose(got, _project_simplex_oracle(z), atol=1e-10)

    def test_box_clamp(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=3)
        x = euclidean_project(spec, np.array([-1.0, 0.25, 7.0]), 1.0).x
        np.testing.assert_allclose(x, [0.0, 0.25, 1.0], atol=1e-15)

    def test_capped_simplex_symmetry(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        x = euclidean_project(spec, np.full(4, 0.37), 1.0).x
        np.testing.assert_allclose(x, np.full(4, 0.5), atol=1e-9)

    def test_capped_simplex_matches_active_set_oracle(self):
        rng = np.random.default_rng(4)
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        for _ in range(15):
            z = rng.normal(size=4) * 1.5
            got = euclidean_project(spec, z, 1.0).x
            np.testing.assert_allclose(got, _capped_simplex_oracle(z, 2), atol=1e-8)


class TestBinaryEntropy:
    def test_flat_scores(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=3)
        np.testing.assert_allclose(
            binary_entropy_relax(spec, np.zeros(3), 1.0).x, 0.5, atol=1e-15
        )

    def test_sigmoid_value(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=1)
        t = 1.7
        x = binary_entropy_relax(spec, np.array([t * np.log(3.0)]), t).x
        assert x[0] == pytest.approx(0.75, abs=1e-12)

    def test_cardinality_symmetry(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=3, k=2)
        x = binary_entropy_relax(spec, np.full(3, -1.3), 1.0).x
        np.testing.assert_allclose(x, 2 / 3, atol=1e-9)

    def test_shift_matches_scalar_root(self):
        """Bisection agrees with an independent scalar root solve for nu."""
        rng = np.random.default_rng(5)
        spec = StructureSpec(StructureKind.K_SUBSETS, n=5, k=2)
        t = 0.9
        for _ in range(10):
            u = rng.normal(size=5)
            got = binary_entropy_relax(spec, u, t).x
            nu = brentq(lambda v: expit(u / t - v).sum() - 2.0, -60, 60, xtol=1e-13)
            np.testing.assert_allclose(got, expit(u / t - nu), atol=1e-8)

    def test_stationarity(self):
        # at the optimum, u_i - t*logit(x_i) is the same constant for all i
        spec = StructureSpec(StructureKind.K_SUBSETS, n=6, k=3)
        u = np.random.default_rng(6).normal(size=6)
        x = binary_entropy_relax(spec, u, 0.7).x
        grad = u - 0.7 * logit(x)
        assert np.ptp(grad) < 1e-7


class TestCategoricalEntropy:
    def test_exp_value(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=1)
        t = 0.6
        assert categorical_entropy_relax(spec, np.array([-t * np.log(2.0)]), t).x[0] == pytest.approx(0.5, abs=1e-12)

    def test_cap(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=1)
        assert categorical_entropy_relax(spec, np.array([5 * 0.3]), 0.3).x[0] == 1.0

    def test_cardinality_symmetry(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        x = categorical_entropy_relax(spec, np.full(4, 2.2), 1.0).x
        np.testing.assert_allclose(x, 0.5, atol=1e-9)

    def test_one_hot_coincides_with_softmax(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=4)
        u = np.random.default_rng(7).normal(size=4)
        a = categorical_entropy_relax(spec, u, 0.8).x
        b = softmax_simplex(u, 0.8).x
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestExpFam:
    def test_k1_equals_softmax(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=3, k=1)
        u = np.array([0.2, -1.0, 0.9])
        np.testing.assert_allclose(
            expfam_marginals(spec, u, 1.0).x, softmax_simplex(u, 1.0).x, atol=1e-12
        )

    def test_k_subsets_against_enumeration(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        u = np.array([1.0, 0.0, 0.0, 0.0])
        got = expfam_marginals(spec, u, 1.0).x
        want = gibbs_marginals_bruteforce(spec, u, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # hand value: mu_0 = 3e / (3e + 3)
        assert got[0] == pytest.approx(3 * np.e / (3 * np.e + 3), abs=1e-12)

    def test_corr_k_subsets_against_enumeration(self):
        spec = StructureSpec(StructureKind.CORR_K_SUBSETS, n=3, k=2)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = rng.normal(size=5)
            got = expfam_marginals(spec, u, 1.0).x
            want = gibbs_marginals_bruteforce(spec, u, 1.0)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_random_sizes_and_temperatures(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            t = float(np.exp(rng.uniform(-1.5, 1.5)))
            spec = StructureSpec(StructureKind.K_SUBSETS, n=n, k=k)
            u = rng.normal(size=n)
            np.testing.assert_allclose(
                expfam_marginals(spec, u, t).x,
                gibbs_marginals_bruteforce(spec, u, t),
                atol=1e-10,
            )

    def test_wide_instance_against_enumeration(self):
        # C(16, 8) = 12870 needs an explicit oracle limit above the default
        spec = StructureSpec(StructureKind.K_SUBSETS, n=16, k=8)
        u = np.random.default_rng(23).normal(size=16)
        np.testing.assert_allclose(
            expfam_marginals(spec, u, 1.1).x,
            gibbs_marginals_bruteforce(spec, u, 1.1, limit=13_000),
            atol=1e-11,
        )

    def test_matching_small_exact(self):
        spec = StructureSpec(StructureKind.MATCHING, n=3)
        u = np.random.default_rng(10).normal(size=9)
        np.testing.assert_allclose(
            expfam_marginals(spec, u, 1.3).x,
            gibbs_marginals_bruteforce(spec, u, 1.3),
            atol=1e-12,
        )

    def test_matching_size_guard(self):
        spec = StructureSpec(StructureKind.MATCHING, n=7)
        from sst.errors import EnumerationLimitError

        with pytest.raises(EnumerationLimitError):
            expfam_marginals(spec, np.zeros(49), 1.0)


class TestMatrixTree:
    def test_k3_flat(self):
        np.testing.assert_allclose(
            matrix_tree_marginals(K3, np.zeros(3)).x, 2 / 3, atol=1e-14
        )

    def test_k4_flat(self):
        # 16 trees, each edge in 8 of them
        np.testing.assert_allclose(
            matrix_tree_marginals(K4, np.zeros(6)).x, 0.5, atol=1e-13
        )

    def test_k3_weighted(self):
        # tree weights {e0,e1}=2, {e0,e2}=2, {e1,e2}=1, total 5
        got = matrix_tree_marginals(K3, np.array([np.log(2.0), 0.0, 0.0])).x
        np.testing.assert_allclose(got, [0.8, 0.6, 0.6], atol=1e-13)

    def test_against_enumeration(self):
        rng = np.random.default_rng(11)
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K4)
        for t in (1.0, 0.25, 4.0):
            u = rng.normal(size=6)
            np.testing.assert_allclose(
                matrix_tree_marginals(K4, u, t).x,
                gibbs_marginals_bruteforce(spec, u, t),
                atol=1e-12,
            )

    def test_total_mass(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = rng.normal(size=6)
            assert matrix_tree_marginals(K4, u).x.sum() == pytest.approx(3.0, abs=1e-8)

    def test_drop_index_immaterial(self):
        # Any node can be the boundary whose row and column the reduced
        # Laplacian drops.  On a symmetric digraph the arborescences rooted
        # anywhere are the spanning trees oriented away from the root, so
        # the marginals of an edge's two arcs sum to its marginal.
        kernel = importlib.import_module("sst.relax")._tree_marginals_by_logdet
        rng = np.random.default_rng(13)
        cases = [(K4, rng.normal(size=6))]
        while len(cases) < 2:
            g = Graph(6, [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.6])
            if g.is_connected():
                cases.append((g, rng.normal(size=g.num_edges)))
        for g, theta in cases:
            outs = [kernel(g.num_nodes, *g.tree_plan(b), theta[None], directed=False)[0]
                    for b in range(g.num_nodes)]
            for x in outs[1:]:
                np.testing.assert_allclose(x, outs[0], atol=1e-12)
            arcs = Graph(g.num_nodes, list(g.edges) + [(h, t) for t, h in g.edges], directed=True)
            for root in range(g.num_nodes):
                mu = kernel(g.num_nodes, *arcs.tree_plan(root), np.r_[theta, theta][None],
                            directed=True)[0]
                np.testing.assert_allclose(mu[:g.num_edges] + mu[g.num_edges:], outs[0],
                                           atol=1e-12)

    def test_deep_temperature_stays_exact(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K4)
        u = np.random.default_rng(14).normal(size=6)
        for t in (1e-2, 1e-4):
            np.testing.assert_allclose(
                matrix_tree_marginals(K4, u, t).x,
                gibbs_marginals_bruteforce(spec, u, t),
                atol=1e-10,
            )

    def test_k6_against_enumeration(self):
        # 6^4 = 1296 trees keeps the oracle feasible
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(6))
        u = np.random.default_rng(22).normal(size=15)
        np.testing.assert_allclose(
            matrix_tree_marginals(spec.graph, u, 0.8).x,
            gibbs_marginals_bruteforce(spec, u, 0.8),
            atol=1e-11,
        )


class TestDirectedMatrixTree:
    def test_two_node(self):
        g = Graph(2, [(0, 1)], directed=True)
        assert directed_matrix_tree_marginals(g, 0, np.array([0.3])).x[0] == pytest.approx(1.0, abs=1e-14)

    def test_flat_scores_match_enumeration(self):
        spec = StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=0)
        got = directed_matrix_tree_marginals(D3, 0, np.zeros(6)).x
        want = gibbs_marginals_bruteforce(spec, np.zeros(6), 1.0)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_random_digraphs_match_enumeration(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 5))
            edges = [
                (i, j) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.7
            ]
            root = int(rng.integers(n))
            try:
                g = Graph(n, edges, directed=True)
                spec = StructureSpec(StructureKind.ARBORESCENCE, graph=g, root=root)
            except Exception:
                continue
            u = rng.normal(size=g.num_edges)
            np.testing.assert_allclose(
                directed_matrix_tree_marginals(g, root, u, 1.0).x,
                gibbs_marginals_bruteforce(spec, u, 1.0),
                atol=1e-8,
            )
            checked += 1

    def test_entering_group_shift_invariance(self):
        # every arborescence uses exactly one edge entering node 1
        rng = np.random.default_rng(16)
        u = rng.normal(size=6)
        shifted = u.copy()
        for e, (_, head) in enumerate(D3.edges):
            if head == 1:
                shifted[e] += 3.7
        np.testing.assert_allclose(
            directed_matrix_tree_marginals(D3, 0, u).x,
            directed_matrix_tree_marginals(D3, 0, shifted).x,
            atol=1e-10,
        )

    def test_in_degree_sums(self):
        u = np.random.default_rng(17).normal(size=6)
        x = directed_matrix_tree_marginals(D3, 0, u).x
        for v in (1, 2):
            entering = sum(x[e] for e, (_, h) in enumerate(D3.edges) if h == v)
            assert entering == pytest.approx(1.0, abs=1e-8)


class TestSinkhorn:
    def test_singleton(self):
        assert sinkhorn_relax(np.array([[4.2]]), 1.0).x[0] == pytest.approx(1.0, abs=1e-12)

    def test_flat_two_by_two(self):
        np.testing.assert_allclose(sinkhorn_relax(np.zeros((2, 2)), 1.0).x, 0.5, atol=1e-10)

    def test_doubly_stochastic(self):
        u = np.random.default_rng(18).normal(size=(4, 4))
        point = sinkhorn_relax(u, 0.7, tol=1e-10, max_iter=10_000)
        x = point.x.reshape(4, 4)
        np.testing.assert_allclose(x.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)
        assert point.residual <= 1e-10

    def test_cold_matches_hungarian(self):
        u = np.array([[5.0, 1.0, 0.0], [0.0, 4.0, 1.0], [1.0, 0.0, 3.0]])
        hard = hungarian_match(u).astype(float)
        x = sinkhorn_relax(u, 0.01, tol=1e-9, max_iter=50_000).x
        assert np.abs(x - hard).max() <= 1e-3

    def test_non_convergence_reports_residual(self):
        u = np.random.default_rng(19).normal(size=(3, 3))
        with pytest.raises(ConvergenceError) as exc:
            sinkhorn_relax(u, 0.01, tol=1e-12, max_iter=2)
        assert exc.value.residual is not None
        assert exc.value.residual > 1e-12

    def test_warm_start_accepted(self):
        u = np.random.default_rng(20).normal(size=(3, 3))
        first = sinkhorn_relax(u, 0.5, tol=1e-10, max_iter=5000)
        again = sinkhorn_relax(u, 0.4, tol=1e-10, max_iter=5000, warm_start=first.dual)
        x = again.x.reshape(3, 3)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)


def _hull_violation(spec, x):
    kind = spec.kind
    if kind == StructureKind.ONE_HOT:
        return abs(x.sum() - 1.0)
    if kind == StructureKind.SUBSETS:
        return 0.0
    if kind == StructureKind.K_SUBSETS:
        return abs(x.sum() - spec.k)
    if kind == StructureKind.CORR_K_SUBSETS:
        n = spec.n
        v = abs(x[:n].sum() - spec.k)
        for i in range(n - 1):
            v = max(v, x[n + i] - min(x[i], x[i + 1]))
            v = max(v, (x[i] + x[i + 1] - 1.0) - x[n + i])
        return v
    if kind == StructureKind.MATCHING:
        m = x.reshape(spec.n, spec.n)
        return max(np.abs(m.sum(axis=0) - 1).max(), np.abs(m.sum(axis=1) - 1).max())
    if kind == StructureKind.SPANNING_TREE:
        return abs(x.sum() - (spec.graph.num_nodes - 1))
    if kind == StructureKind.ARBORESCENCE:
        worst = 0.0
        for v in range(spec.graph.num_nodes):
            if v == spec.root:
                continue
            s = sum(x[e] for e, (_, h) in enumerate(spec.graph.edges) if h == v)
            worst = max(worst, abs(s - 1.0))
        return worst
    raise AssertionError(kind)


def _instance_for(kind):
    return {
        StructureKind.ONE_HOT: StructureSpec(StructureKind.ONE_HOT, n=5),
        StructureKind.SUBSETS: StructureSpec(StructureKind.SUBSETS, n=5),
        StructureKind.K_SUBSETS: StructureSpec(StructureKind.K_SUBSETS, n=5, k=2),
        StructureKind.CORR_K_SUBSETS: StructureSpec(StructureKind.CORR_K_SUBSETS, n=4, k=2),
        StructureKind.MATCHING: StructureSpec(StructureKind.MATCHING, n=3),
        StructureKind.SPANNING_TREE: StructureSpec(StructureKind.SPANNING_TREE, graph=K4),
        StructureKind.ARBORESCENCE: StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=0),
    }[kind]


class TestRelaxDispatch:
    def test_flat_one_hot(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        x = relax(spec, RelaxationSpec(Regularizer.SHANNON, temperature=1.0), np.zeros(2)).x
        np.testing.assert_allclose(x, 0.5, atol=1e-15)

    def test_flat_k_subsets(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        x = relax(spec, RelaxationSpec(Regularizer.BINARY_ENTROPY, temperature=1.0), np.full(4, 0.3)).x
        np.testing.assert_allclose(x, 0.5, atol=1e-9)

    def test_flat_k3_tree(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K3)
        x = relax(spec, RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=1.0), np.zeros(3)).x
        np.testing.assert_allclose(x, 2 / 3, atol=1e-13)

    @pytest.mark.parametrize("kind, reg", [
        (StructureKind.SPANNING_TREE, Regularizer.EUCLIDEAN),
        (StructureKind.CORR_K_SUBSETS, Regularizer.BINARY_ENTROPY),
        (StructureKind.MATCHING, Regularizer.EUCLIDEAN),
        (StructureKind.SUBSETS, Regularizer.SHANNON),
        (StructureKind.ARBORESCENCE, Regularizer.CATEGORICAL_ENTROPY),
    ])
    def test_unsupported_pairs_raise(self, kind, reg):
        spec = _instance_for(kind)
        with pytest.raises(UnsupportedPairError):
            relax(spec, RelaxationSpec(reg, temperature=1.0), np.zeros(spec.dim))

    @pytest.mark.parametrize("kind, reg", supported_pairs())
    def test_hull_membership(self, kind, reg):
        """Relaxed points satisfy their structure's linear constraints to 1e-8."""
        spec = _instance_for(kind)
        rspec = RelaxationSpec(reg, temperature=0.8, tol=1e-10, max_iter=50_000)
        rng = np.random.default_rng(zlib.crc32(f"{kind.value}/{reg.value}".encode()))
        for _ in range(5):
            x = relax(spec, rspec, rng.normal(size=spec.dim)).x
            assert (x >= -1e-12).all() and (x <= 1 + 1e-12).all()
            assert _hull_violation(spec, x) <= 1e-8

    @pytest.mark.parametrize("kind, reg", [
        (StructureKind.SUBSETS, Regularizer.BINARY_ENTROPY),
        (StructureKind.K_SUBSETS, Regularizer.EUCLIDEAN),
        (StructureKind.SPANNING_TREE, Regularizer.EXPFAM_ENTROPY),
    ])
    def test_zero_temperature_limit_quick(self, kind, reg):
        spec = _instance_for(kind)
        rng = np.random.default_rng(21)
        for _ in range(5):
            u = rng.normal(size=spec.dim)
            hard = solve_map(spec, u).vertex.astype(float)
            t, done = 1.0, False
            while t >= 1e-6:
                x = relax(spec, RelaxationSpec(reg, temperature=t), u).x
                if np.abs(x - hard).max() <= 1e-3:
                    done = True
                    break
                t *= 0.5
            assert done

    def test_bisection_non_convergence_reports_residual(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        with pytest.raises(ConvergenceError) as exc:
            binary_entropy_relax(spec, np.array([3.0, -1.0, 0.5, 0.2]), 1.0, max_iter=1)
        assert exc.value.residual is not None

    def test_spec_validation(self):
        with pytest.raises(InvalidSpecError):
            RelaxationSpec(Regularizer.SHANNON, temperature=0.0)
        with pytest.raises(InvalidSpecError):
            RelaxationSpec(Regularizer.SHANNON, temperature=1.0, tol=-1.0)

    def test_overflowing_temperature_reported(self):
        from sst.errors import NumericalError

        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        rspec = RelaxationSpec(Regularizer.SHANNON, temperature=1e-307)
        with pytest.raises(NumericalError):
            relax(spec, rspec, np.array([200.0, 0.0]))

    def test_overflowing_temperature_reported_by_the_enumeration_callers(self):
        from sst.errors import NumericalError

        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=1e-320)
        u = np.array([1.0, -0.5, 0.25, 2.0])
        with pytest.raises(NumericalError, match="overflows"):
            analytic_jacobian(spec, rspec, u)
        with pytest.raises(NumericalError, match="overflows"):
            gibbs_marginals_bruteforce(spec, u, 1e-320)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_utilities_are_input_errors(bad):
    """Every solver that divides by the temperature blames the utilities,
    not the temperature, for a non-finite input."""
    kspec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
    ones = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=1.0)
    vec = np.array([0.0, bad, 1.0, 2.0])
    tree_u = np.zeros(K4.num_edges)
    tree_u[2] = bad
    arb_u = np.zeros(D3.num_edges)
    arb_u[1] = bad
    calls = [
        lambda: matrix_tree_marginals(K4, tree_u),
        lambda: directed_matrix_tree_marginals(D3, 0, arb_u),
        lambda: expfam_marginals(kspec, vec, 1.0),
        lambda: expfam_marginals(StructureSpec(StructureKind.SUBSETS, n=4), vec, 1.0),
        lambda: euclidean_project(StructureSpec(StructureKind.ONE_HOT, n=4), vec, 1.0),
        lambda: softmax_simplex(vec, 1.0),
        lambda: analytic_jacobian(kspec, ones, vec),
        lambda: gradcheck(kspec, ones, vec),
        lambda: gibbs_marginals_bruteforce(kspec, vec, 1.0),
    ]
    for call in calls:
        with pytest.raises(InputError, match="utilities must be finite"):
            call()


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan])
def test_non_positive_temperatures_are_input_errors(t):
    """The callers above reject a temperature that is not positive instead
    of returning the law of -u or overflowing; a ``RelaxationSpec`` refuses
    to hold one."""
    kspec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
    vec = np.array([0.0, 0.5, 1.0, 2.0])
    calls = [
        lambda: matrix_tree_marginals(K4, np.arange(6.0), t),
        lambda: directed_matrix_tree_marginals(D3, 0, np.arange(6.0), t),
        lambda: expfam_marginals(kspec, vec, t),
        lambda: expfam_marginals(StructureSpec(StructureKind.SUBSETS, n=4), vec, t),
        lambda: euclidean_project(StructureSpec(StructureKind.ONE_HOT, n=4), vec, t),
        lambda: softmax_simplex(vec, t),
        lambda: analytic_jacobian(kspec, RelaxationSpec(Regularizer.EXPFAM_ENTROPY, t), vec),
        lambda: gradcheck(kspec, RelaxationSpec(Regularizer.EXPFAM_ENTROPY, t), vec),
        lambda: gibbs_marginals_bruteforce(kspec, vec, t),
        lambda: sinkhorn_relax(np.eye(3), t),
        lambda: binary_entropy_relax(kspec, vec, t),
        lambda: categorical_entropy_relax(kspec, vec, t),
    ]
    for call in calls:
        with pytest.raises(InputError, match="temperature must be > 0"):
            call()


def test_edge_vector_gate_is_shared():
    """The maximizers, the samplers and the marginal solvers of trees and
    arborescences reject a graph of the wrong direction, a vector of the
    wrong length and a root out of range with the same errors."""
    rng = np.random.default_rng(0)
    undirected = [
        lambda g, x: kruskal_max_tree(g, x),
        lambda g, x: sample_tree_categorical(g, x, rng),
        lambda g, x: matrix_tree_marginals(g, x),
    ]
    directed = [
        lambda g, x, r=0: cle_max_arborescence(g, r, x),
        lambda g, x, r=0: sample_arborescence_categorical(g, r, np.exp(x), rng),
        lambda g, x, r=0: directed_matrix_tree_marginals(g, r, x),
    ]
    for call in undirected:
        with pytest.raises(InvalidSpecError, match="^spanning trees need an undirected graph$"):
            call(D3, np.zeros(D3.num_edges))
        with pytest.raises(InputError, match=r"^expected 6 edge \w+, got shape \(5,\)$"):
            call(K4, np.zeros(5))
    for call in directed:
        with pytest.raises(InvalidSpecError, match="^arborescences need a directed graph$"):
            call(K4, np.zeros(K4.num_edges))
        with pytest.raises(InputError, match=r"^expected 6 (edge utilities|rates), got shape \(2, 3\)$"):
            call(D3, np.zeros((2, 3)))
        for root in (-1, 3):
            with pytest.raises(InputError, match=f"^root {root} out of range$"):
                call(D3, np.zeros(D3.num_edges), root)


def test_tree_solves_trust_the_spec(monkeypatch):
    """A ``StructureSpec`` proves on construction that its graph has a tree,
    so no solve searches the graph again."""
    specs = [StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(5)),
             StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(4), root=1)]
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=0.5)

    def solves(spec):
        u = np.random.default_rng(4).normal(size=spec.dim)
        return [relax(spec, rspec, u).x, expfam_marginals(spec, u, 0.5).x,
                fd_vjp(spec, rspec, u, np.ones(spec.dim))]

    before = [solves(spec) for spec in specs]

    def no_search(self, *args):
        raise AssertionError("graph searched during a solve")

    monkeypatch.setattr(Graph, "_reach", no_search)
    monkeypatch.setattr(Graph, "is_connected", no_search)
    for spec, want in zip(specs, before):
        for got, ref in zip(solves(spec), want):
            assert got.tobytes() == ref.tobytes()


def test_raw_graph_solvers_check_feasibility_after_the_edge_gate():
    """The two marginal solvers that take a bare graph check that it has a
    tree after its direction, length and root, and before the finiteness
    and temperature of the utilities."""
    disconnected = Graph(4, [(0, 1), (2, 3)])
    unreachable = Graph(3, [(0, 1), (2, 1)], directed=True)  # no root reaches all
    no_tree = "^graph is disconnected; no spanning tree exists$"
    no_arborescence = "^no arborescence: some node unreachable from the root$"
    with pytest.raises(InvalidSpecError, match="^spanning trees need an undirected graph$"):
        matrix_tree_marginals(unreachable, np.zeros(2))
    with pytest.raises(InputError, match=r"^expected 2 edge utilities, got shape \(3,\)$"):
        matrix_tree_marginals(disconnected, np.zeros(3))
    with pytest.raises(InvalidSpecError, match="^arborescences need a directed graph$"):
        directed_matrix_tree_marginals(disconnected, 0, np.zeros(2))
    with pytest.raises(InputError, match=r"^expected 2 edge utilities, got shape \(3,\)$"):
        directed_matrix_tree_marginals(unreachable, 0, np.zeros(3))
    with pytest.raises(InputError, match="^root 3 out of range$"):
        directed_matrix_tree_marginals(unreachable, 3, np.zeros(2))
    for u, t in ((np.zeros(2), 1.0), (np.full(2, np.nan), 1.0), (np.zeros(2), 0.0)):
        with pytest.raises(InfeasibleStructureError, match=no_tree):
            matrix_tree_marginals(disconnected, u, t)
        with pytest.raises(InfeasibleStructureError, match=no_arborescence):
            directed_matrix_tree_marginals(unreachable, 0, u, t)


def test_square_and_k_of_n_gates_are_shared():
    for call in (hungarian_match, lambda u: sinkhorn_relax(u, 1.0)):
        with pytest.raises(InputError, match=r"^utility matrix must be square, got shape \(2, 3\)$"):
            call(np.zeros((2, 3)))
    rng = np.random.default_rng(0)
    for call in (topk_select, lambda u, k: sample_topk_without_replacement(u, k, rng)):
        for k in (0, 4):
            with pytest.raises(InputError, match=f"^k must satisfy 1 <= k < 4, got {k}$"):
                call(np.zeros(4), k)


def test_one_node_graphs_have_empty_marginals_and_samples():
    """A one-node graph has one tree (and one arborescence): the empty edge
    set.  Every entry returns the empty vector, as ``solve_map`` and the
    enumeration oracle do, and the samplers draw nothing."""
    tree = StructureSpec(StructureKind.SPANNING_TREE, graph=Graph(1, ()))
    arb = StructureSpec(StructureKind.ARBORESCENCE, graph=Graph(1, (), directed=True), root=0)
    u = np.zeros(0)
    points = [matrix_tree_marginals(tree.graph, u, 0.5),
              directed_matrix_tree_marginals(arb.graph, 0, u, 0.5)]
    points += [relax(s, RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=0.5), u)
               for s in (tree, arb)]
    for p in points:
        assert p.x.shape == (0,) and p.condition_estimate == 0.0
    for s in (tree, arb):
        assert gibbs_marginals_bruteforce(s, u, 0.5).shape == (0,)
        assert solve_map(s, u).vertex.shape == (0,)
    with pytest.raises(InputError, match="temperature"):
        matrix_tree_marginals(tree.graph, u, 0.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert sample_tree_categorical(tree.graph, u, rng).shape == (0,)
    assert sample_arborescence_categorical(arb.graph, 0, u, rng).shape == (0,)
    assert cle_max_arborescence(arb.graph, 0, u).shape == (0,)
    assert rng.bit_generator.state == state


# --- blocks of rows -------------------------------------------------------------
#
# Every exponential-family pair (one-hot under a closed-simplex regularizer
# included) has one solve path, ``relax._expfam_rows``, which solves a
# (rows, dim) block at once: ``relax`` reaches it through
# ``expfam_marginals`` as a block of one row, and ``relax._relax_rows`` with
# the whole block.  Each row must carry the bytes of its own one-row
# ``relax``, whatever rows share its block.

_relax_module = importlib.import_module("sst.relax")
_relax_rows, _expfam_rows = _relax_module._relax_rows, _relax_module._expfam_rows


def _public_point(spec, u, t):
    """The public tree solver's point for the tree or arborescence ``spec``."""
    if spec.root is None:
        return matrix_tree_marginals(spec.graph, u, t)
    return directed_matrix_tree_marginals(spec.graph, spec.root, u, t)


def _block_conditions(spec, u, t):
    """The condition estimates a tree block gives its rows: the log of each
    row's Skeel number, as ``_tree_point`` takes it."""
    return [math.log(c) for c in _relax_module._tree_rows(spec.graph, u, t, spec.root)[1]]


def _bridged_graph():
    # two K4 blobs joined by the bridge path 3-4-5-6
    blob = list(itertools.combinations(range(4), 2))
    return Graph(10, blob + [(a + 6, b + 6) for a, b in blob] + [(3, 4), (4, 5), (5, 6)])


_BLOCK_SPECS = (
    [StructureSpec(StructureKind.ONE_HOT, n=6), StructureSpec(StructureKind.SUBSETS, n=6)]
    + [StructureSpec(StructureKind.K_SUBSETS, n=n, k=k) for n, k in ((2, 1), (9, 4), (40, 10))]
    + [StructureSpec(StructureKind.CORR_K_SUBSETS, n=n, k=k) for n, k in ((2, 1), (9, 5), (30, 10))]
    + [StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(n)) for n in range(3, 13)]
    + [StructureSpec(StructureKind.SPANNING_TREE, graph=_bridged_graph())]
    + [StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(n), root=n // 2)
       for n in range(3, 11)]
)


def _spec_id(spec):
    if spec.graph is not None:
        return f"{spec.kind.value}-{spec.graph.num_nodes}-{spec.graph.num_edges}"
    return f"{spec.kind.value}-{spec.n}-{spec.k}"


@pytest.mark.parametrize("t", [1.0, 0.2, 1e-2, 1e-4])
@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=_spec_id)
def test_block_rows_equal_one_row_relax(spec, t):
    rng = np.random.default_rng(zlib.crc32(f"{_spec_id(spec)}/{t}".encode()))
    dim = spec.dim
    u = np.stack([
        rng.normal(size=dim),
        np.round(rng.normal(size=dim)),  # ties
        np.round(2.0 * rng.normal(size=dim)) / 2.0 + t * rng.normal(size=dim),  # near-ties
        3.0 * rng.normal(size=dim),
    ])
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
    block = _relax_rows(spec, rspec, u)
    assert block.shape == u.shape
    assert _expfam_rows(spec, u, t).tobytes() == block.tobytes()
    cond = _block_conditions(spec, u, t) if spec.graph is not None else None
    for b in range(len(u)):
        one = relax(spec, rspec, u[b])
        assert block[b].tobytes() == one.x.tobytes()
        # and alone in a block of its own
        assert _relax_rows(spec, rspec, u[b:b + 1])[0].tobytes() == one.x.tobytes()
        if cond is None:
            assert one.condition_estimate is None
        else:  # and as the public tree solvers give it, with the block's condition
            public = _public_point(spec, u[b], t)
            assert public.x.tobytes() == one.x.tobytes()
            assert one.condition_estimate == public.condition_estimate == float(cond[b])


def test_tree_block_rows_with_tied_largest_edges():
    """Two tied largest edges with different tails, nudged apart in opposite
    directions: each row's marginals and condition estimate from one
    ``_expfam_rows`` block still equal its one-row solve, by ``relax`` and
    by the public ``matrix_tree_marginals``."""
    graph = complete_graph(7)
    spec = StructureSpec(StructureKind.SPANNING_TREE, graph=graph)
    first, second = graph.edges.index((0, 1)), graph.edges.index((2, 5))
    for t in (1.0, 1e-2, 1e-4):
        rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
        u = np.random.default_rng(3).normal(size=graph.num_edges)
        u[[first, second]] = u.max() + 1.0  # tied largest edges, tails 0 and 2
        d = np.zeros_like(u)
        d[second] = 1.0
        block = np.stack([u + 1e-4 * d, u - 1e-4 * d, u])
        assert [graph.edges[i][0] for i in block.argmax(axis=1)] == [2, 0, 0]
        got = _relax_rows(spec, rspec, block)
        assert _expfam_rows(spec, block, t).tobytes() == got.tobytes()
        for row, x, c in zip(block, got, _block_conditions(spec, block, t)):
            one = relax(spec, rspec, row)
            public = matrix_tree_marginals(graph, row, t)
            assert x.tobytes() == one.x.tobytes() == public.x.tobytes()
            assert one.condition_estimate == public.condition_estimate == float(c)


def test_tree_solves_take_one_kernel_call(monkeypatch):
    """Every row of a block eliminates toward the same boundary, so each
    ``relax``, ``expfam_marginals`` and public tree solve and each
    ``fd_vjp`` pair on K10 and on an 8-node digraph is one certified
    inverse and at most one call of the elimination kernel, on exactly the
    rows the certificate rejected; a point's condition estimate costs no
    other call."""
    log = watch_tree_solves(monkeypatch)
    specs = [StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(10)),
             StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(8), root=3)]
    eps = FDConfig().epsilon
    rng = np.random.default_rng(5)
    point_paths, pair_paths = set(), set()
    for spec in specs:
        for t in (1.0, 0.2):
            rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
            for _ in range(3):
                u, d = rng.normal(size=(2, spec.dim))
                for solve in (lambda: relax(spec, rspec, u), lambda: expfam_marginals(spec, u, t),
                              lambda: _public_point(spec, u, t)):
                    log.clear()
                    solve()
                    point_paths.update(assert_one_solve_per_block(log, u[None], t))
                log.clear()
                fd_vjp(spec, rspec, u, d)
                pair_paths.update(assert_one_solve_per_block(
                    log, np.stack([u + eps * d, u - eps * d]), t))
    assert point_paths == pair_paths == {False, True}  # both paths ran


def test_dp_solves_take_one_kernel_call(monkeypatch):
    """Each ``relax`` and ``expfam_marginals`` point and each ``fd_vjp`` pair
    on n = 100, k = 10 subsets and on the n = 50, k = 10 chain is at most
    one linear-semiring DP call, on exactly the rows the certificate
    accepts, then at most one log-semiring call on the rest: no row pays
    for both."""
    log = watch_dp_solves(monkeypatch)
    specs = [StructureSpec(StructureKind.K_SUBSETS, n=100, k=10),
             StructureSpec(StructureKind.CORR_K_SUBSETS, n=50, k=10)]
    eps = FDConfig().epsilon
    rng = np.random.default_rng(6)
    paths = set()
    for spec in specs:
        for t, scale in ((1.0, 1.0), (0.1, 0.3), (0.1, 1.0)):
            rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
            u, d = scale * rng.normal(size=(2, spec.dim))
            for solve in (lambda: relax(spec, rspec, u), lambda: expfam_marginals(spec, u, t)):
                log.clear()
                solve()
                paths.update(assert_one_solve_per_dp_block(log, u[None], t, spec.n, spec.k))
            log.clear()
            fd_vjp(spec, rspec, u, d)
            pair = np.stack([u + eps * d, u - eps * d])
            ok = assert_one_solve_per_dp_block(log, pair, t, spec.n, spec.k)
            if t == 1.0:
                assert [entry[0] for entry in log] == ["linear"] and len(log[0][1]) == 2
            paths.update(ok)
    assert paths == {False, True}  # both paths ran


def _assert_rows_keep_their_one_row_solves(spec, u, t):
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
    mu, cond = _expfam_rows(spec, u, t), _block_conditions(spec, u, t)
    for b in range(len(u)):
        one = relax(spec, rspec, u[b])
        assert mu[b].tobytes() == one.x.tobytes()
        assert (one.condition_estimate == _public_point(spec, u[b], t).condition_estimate
                == float(cond[b]))


@pytest.mark.parametrize("root", [None, 2])
def test_tree_block_mixing_both_paths_keeps_the_one_row_bytes(monkeypatch, root):
    """At t = 0.2 a block holds rows the certificate accepts and rows it
    sends to the kernel; each keeps its marginals and its condition
    estimate alone."""
    graph = complete_graph(8) if root is None else complete_digraph(8)
    kind = StructureKind.SPANNING_TREE if root is None else StructureKind.ARBORESCENCE
    spec = StructureSpec(kind, graph=graph, root=root)
    u = np.random.default_rng(21).normal(size=(6, spec.dim)) * [[0.5], [1], [1], [2], [3], [0.5]]
    log = watch_tree_solves(monkeypatch)
    _expfam_rows(spec, u, 0.2)
    ok = assert_one_solve_per_block(log, u, 0.2)
    assert ok.any() and not ok.all()
    monkeypatch.undo()
    _assert_rows_keep_their_one_row_solves(spec, u, 0.2)


@pytest.mark.parametrize("directed", [False, True])
def test_tree_block_with_a_singular_row(monkeypatch, directed):
    """Node 0 hangs on one edge (arc) from node 3; a utility 800 under the
    rest underflows its weight to 0, so that row's reduced Laplacian is
    singular in the linear domain and ``np.linalg.inv`` fails the whole
    stack.  The block then inverts row by row: the singular row goes to
    the kernel, whose log domain keeps the edge, and every row keeps its
    one-row bytes."""
    rest = complete_arcs(6) if directed else complete_edges(6)
    graph = Graph(7, [(3, 0)] + [(a + 1, b + 1) for a, b in rest], directed=directed)
    spec = (StructureSpec(StructureKind.ARBORESCENCE, graph=graph, root=6) if directed
            else StructureSpec(StructureKind.SPANNING_TREE, graph=graph))
    u = 0.5 * np.random.default_rng(22).normal(size=(3, spec.dim))
    u[1, 0] = -800.0
    log = watch_tree_solves(monkeypatch)
    mu = _expfam_rows(spec, u, 1.0)
    assert list(assert_one_solve_per_block(log, u, 1.0)) == [True, False, True]
    assert mu[1, 0] == 1.0  # a bridge is in every tree
    monkeypatch.undo()
    _assert_rows_keep_their_one_row_solves(spec, u, 1.0)


@pytest.mark.parametrize("kind, reg", supported_pairs())
def test_block_rows_of_every_pair(kind, reg):
    spec = _instance_for(kind)
    rspec = RelaxationSpec(reg, temperature=0.7, tol=1e-12, max_iter=20_000)
    u = np.random.default_rng(zlib.crc32(f"{kind.value}/{reg.value}".encode())).normal(
        size=(3, spec.dim))
    got = _relax_rows(spec, rspec, u)
    for row, x in zip(u, got):
        assert x.tobytes() == relax(spec, rspec, row).x.tobytes()


def test_supported_pairs_keep_their_order():
    """The limits and gradcheck suites zip the pairs with seeds spawned in
    order, so a reordered list would change their reports."""
    assert [(kind.value, reg.value) for kind, reg in supported_pairs()] == [
        ("one_hot", "shannon"), ("matching", "shannon"),
        ("one_hot", "euclidean"), ("subsets", "euclidean"), ("k_subsets", "euclidean"),
        ("one_hot", "binary_entropy"), ("subsets", "binary_entropy"),
        ("k_subsets", "binary_entropy"),
        ("one_hot", "categorical_entropy"), ("subsets", "categorical_entropy"),
        ("k_subsets", "categorical_entropy"),
        ("one_hot", "expfam_entropy"), ("subsets", "expfam_entropy"),
        ("k_subsets", "expfam_entropy"), ("corr_k_subsets", "expfam_entropy"),
        ("matching", "expfam_entropy"), ("spanning_tree", "expfam_entropy"),
        ("arborescence", "expfam_entropy"),
    ]


@pytest.mark.parametrize("kind, reg", supported_pairs())
def test_relax_has_the_bytes_of_its_pairs_solver(kind, reg):
    """Sinkhorn for matchings under shannon, the exponential-family marginals
    for every kind under its entropy and for one-hot under the regularizers
    whose simplex solution is the softmax, else the regularizer's own solver."""
    spec = _instance_for(kind)
    t, tol, max_iter = 0.7, 1e-12, 20_000
    u = np.random.default_rng(zlib.crc32(f"{kind.value}/{reg.value}".encode())).normal(
        size=spec.dim)
    if kind == StructureKind.MATCHING and reg == Regularizer.SHANNON:
        want = sinkhorn_relax(u.reshape(spec.n, spec.n), t, tol, max_iter)
    elif reg == Regularizer.EXPFAM_ENTROPY or (
            kind == StructureKind.ONE_HOT
            and reg in (Regularizer.SHANNON, Regularizer.CATEGORICAL_ENTROPY)):
        want = expfam_marginals(spec, u, t)
    else:
        solver = {Regularizer.EUCLIDEAN: euclidean_project,
                  Regularizer.BINARY_ENTROPY: binary_entropy_relax,
                  Regularizer.CATEGORICAL_ENTROPY: categorical_entropy_relax}[reg]
        want = solver(spec, u, t, tol, max_iter)
    got = relax(spec, RelaxationSpec(reg, temperature=t, tol=tol, max_iter=max_iter), u)
    assert got.x.tobytes() == want.x.tobytes()


def test_default_iteration_limits(monkeypatch):
    """``max_iter=None`` is 1000 Sinkhorn sweeps and 200 shift evaluations."""
    matching = StructureSpec(StructureKind.MATCHING, n=8)
    u = np.random.default_rng(0).standard_normal(64)
    with pytest.raises(ConvergenceError, match="after 1000 iterations$"):
        relax(matching, RelaxationSpec(Regularizer.SHANNON, temperature=0.01), u)
    limits = []
    newton_shift = _relax_module._newton_shift

    def recorded(values_of, slope_of, target, z, tol, max_iter):
        limits.append(max_iter)
        return newton_shift(values_of, slope_of, target, z, tol, max_iter)

    monkeypatch.setattr(_relax_module, "_newton_shift", recorded)
    spec = StructureSpec(StructureKind.K_SUBSETS, n=5, k=2)
    for reg in (Regularizer.EUCLIDEAN, Regularizer.BINARY_ENTROPY,
                Regularizer.CATEGORICAL_ENTROPY):
        relax(spec, RelaxationSpec(reg), np.arange(5.0))
    assert limits == [200, 200, 200]


def test_block_gates_run_on_the_whole_block():
    spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K4)
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=1e-300)
    u = np.zeros((2, 6))
    u[1, 2] = 1e10
    with pytest.raises(NumericalError, match="overflows"):
        _relax_rows(spec, rspec, u)
    u[1, 2] = np.inf
    with pytest.raises(InputError, match="utilities must be finite"):
        _relax_rows(spec, RelaxationSpec(Regularizer.EXPFAM_ENTROPY), u)


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
def test_temperature_gate_is_one_helper(t):
    """A spec raises ``InvalidSpecError`` and a solver ``InputError``, with
    the same message."""
    with pytest.raises(InvalidSpecError, match="^temperature must be > 0$"):
        RelaxationSpec(Regularizer.SHANNON, temperature=t)
    with pytest.raises(InputError, match="^temperature must be > 0$") as exc:
        softmax_simplex(np.zeros(2), t)
    assert type(exc.value) is InputError


@pytest.mark.parametrize("u", [np.zeros((2, 3)), [], 0.5])
def test_softmax_takes_only_a_non_empty_vector(u):
    with pytest.raises(InputError, match="expected a non-empty vector"):
        softmax_simplex(u, 1.0)


@pytest.mark.parametrize("warm", [np.zeros((2, 1)), np.zeros(3), np.full((2, 3), np.nan)])
def test_sinkhorn_warm_start_gate(warm):
    with pytest.raises(InputError, match="warm_start"):
        sinkhorn_relax(np.zeros((3, 3)), 1.0, warm_start=warm)


@pytest.mark.parametrize("tol, max_iter, message", [
    (0.0, None, "^tol must be > 0$"),
    (-1.0, 50, "^tol must be > 0$"),
    (float("nan"), 50, "^tol must be > 0$"),
    (1e-10, 0, "^max_iter must be positive$"),
    (1e-10, 2.5, "^max_iter must be an integer, got 2.5$"),
])
def test_solver_controls_gate_is_one_helper(tol, max_iter, message):
    """A spec raises ``InvalidSpecError`` and Sinkhorn and the three shift
    solvers ``InputError``, with the same message."""
    with pytest.raises(InvalidSpecError, match=message):
        RelaxationSpec(Regularizer.SHANNON, tol=tol, max_iter=max_iter)
    max_iter = 50 if max_iter is None else max_iter
    spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
    solves = [lambda: sinkhorn_relax(np.zeros((3, 3)), 1.0, tol, max_iter)] + [
        lambda solve=solve: solve(spec, np.zeros(4), 1.0, tol, max_iter)
        for solve in (euclidean_project, binary_entropy_relax, categorical_entropy_relax)]
    for solve in solves:
        with pytest.raises(InputError, match=message) as exc:
            solve()
        assert type(exc.value) is InputError
