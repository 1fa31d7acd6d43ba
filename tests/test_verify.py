import numpy as np
import pytest
from scipy.special import gammaincc

from sst import (
    FrequencyTable,
    Graph,
    InputError,
    StructureKind,
    StructureSpec,
    chi_square_gof,
    gibbs_marginals_bruteforce,
    ks_report,
    mc_frequencies,
    run_suite,
    solve_map,
    two_sample_equivalence,
)
from sst.errors import DimensionMismatchError, EnumerationLimitError
from sst.structures import enumerate_vertices
from sst.verify import RETRY_OFFSET
from sst.utilities import UtilityFamily, UtilitySpec, draw

from graphs import K3, complete_digraph

def table(support, counts):
    counts = np.asarray(counts, dtype=np.int64)
    return FrequencyTable(support=tuple(map(tuple, support)), counts=counts,
                          total=int(counts.sum()))


class TestChiSquare:
    def test_exact_proportions_give_zero(self):
        t = table([(1, 0), (0, 1)], [75, 25])
        rep = chi_square_gof(t, np.array([0.75, 0.25]), level=0.01)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0
        assert rep.passed

    def test_all_mass_on_one_cell(self):
        # Pearson by hand: (200^2 + 100^2 + 100^2)/100 = 600
        t = table([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [300, 0, 0])
        rep = chi_square_gof(t, np.full(3, 1 / 3), level=0.01)
        assert rep.statistic == pytest.approx(600.0)
        assert rep.dof == 2
        assert not rep.passed

    def test_dof_is_cells_minus_one(self):
        t = table([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [100, 100, 100])
        assert chi_square_gof(t, np.full(3, 1 / 3)).dof == 2

    def test_preconditions(self):
        t = table([(1, 0), (0, 1)], [3, 4])
        with pytest.raises(InputError):
            chi_square_gof(t, np.array([0.5, 0.5]))  # expected count < 5
        t = table([(1, 0), (0, 1)], [500, 500])
        with pytest.raises(InputError):
            chi_square_gof(t, np.array([1.0, 0.0]))  # zero expected mass
        with pytest.raises(InputError):
            chi_square_gof(t, np.array([0.7, 0.7]))  # does not sum to 1

    def test_calibration_under_the_null(self):
        """At level 0.01 the test rejects about 1% of null samples."""
        rng = np.random.default_rng(0)
        p = np.full(4, 0.25)
        counts = rng.multinomial(400, p, size=2000)
        exp = 400 * p
        stats = (((counts - exp) ** 2) / exp).sum(axis=1)
        rate = float((gammaincc(1.5, stats / 2.0) < 0.01).mean())
        assert 0.005 <= rate <= 0.015


class TestTwoSample:
    def test_identical_tables_pass(self):
        a = table([(1, 0), (0, 1)], [60, 40])
        rep = two_sample_equivalence(a, a, level=0.01)
        assert rep.statistic == 0.0
        assert rep.passed

    def test_shifted_tables_fail(self):
        a = table([(1, 0), (0, 1)], [900, 100])
        b = table([(1, 0), (0, 1)], [100, 900])
        assert not two_sample_equivalence(a, b, level=0.01).passed

    def test_union_support(self):
        a = table([(1, 0)], [50])
        b = table([(0, 1)], [50])
        rep = two_sample_equivalence(a, b, level=0.01)
        assert rep.dof == 1
        assert not rep.passed

    def test_sparse_cells_are_merged(self):
        cells = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
        a = table(cells, [950, 40, 4, 3, 3])
        b = table(cells, [945, 45, 2, 4, 4])
        rep = two_sample_equivalence(a, b)
        merged = two_sample_equivalence(table(cells[:3], [950, 40, 10]),
                                        table(cells[:3], [945, 45, 10]))
        assert rep.dof == merged.dof == 2
        assert rep.statistic == pytest.approx(merged.statistic, rel=1e-12)
        # a lone sparse cell joins the next sparsest one
        lone = two_sample_equivalence(table(cells[:3], [950, 46, 4]), table(cells[:3], [946, 50, 4]))
        alike = two_sample_equivalence(table(cells[:2], [950, 50]), table(cells[:2], [946, 54]))
        assert lone.dof == alike.dof == 1
        assert lone.statistic == pytest.approx(alike.statistic, rel=1e-12)

    def test_tree_suite_reports_at_a_reduced_draw_count(self):
        # K4's 16 trees leave one pooled cell at 3.5 expected counts here
        (rep,) = run_suite("tree", 96, draws=2000)
        assert rep["dof"] == 14 and rep["passed"]

    def test_sparse_cells_rejected(self):
        a = table([(1, 0), (0, 1)], [999, 1])
        b = table([(1, 0), (0, 1)], [998, 2])
        with pytest.raises(InputError):
            two_sample_equivalence(a, b)


class TestMcFrequencies:
    def test_deterministic_sampler(self):
        t = mc_frequencies(lambda rng: np.array([1, 1, 0]), draws=25, seed=0)
        assert t.support == ((1, 1, 0),)
        assert t.counts[0] == 25

    def test_seed_reproducibility(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        uspec = UtilitySpec(UtilityFamily.GUMBEL, np.zeros(2))
        sampler = lambda rng: solve_map(spec, draw(uspec, rng).u).vertex
        a = mc_frequencies(sampler, 500, seed=9)
        b = mc_frequencies(sampler, 500, seed=9)
        assert a.support == b.support
        assert (a.counts == b.counts).all()

    def test_binomial_bound(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        uspec = UtilitySpec(UtilityFamily.GUMBEL, np.zeros(2))
        n_draws = 10_000
        t = mc_frequencies(
            lambda rng: solve_map(spec, draw(uspec, rng).u).vertex,
            n_draws, seed=1,
        )
        bound = 3 * np.sqrt(0.25 / n_draws)
        assert np.abs(t.frequencies - 0.5).max() <= bound

    def test_support_alignment(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=3)
        support = enumerate_vertices(spec)
        t = mc_frequencies(lambda rng: support[0], 10, seed=0, support=support)
        assert len(t.support) == 3
        assert t.counts.tolist() == [10, 0, 0]

    def test_unknown_vertex_rejected(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        with pytest.raises(InputError):
            mc_frequencies(
                lambda rng: np.array([1, 1]), 5, seed=0,
                support=enumerate_vertices(spec),
            )

    def test_table_invariants(self):
        with pytest.raises(InputError):
            FrequencyTable(support=((1,), (1,)), counts=np.array([1, 1]), total=2)
        with pytest.raises(InputError):
            FrequencyTable(support=((1,), (0,)), counts=np.array([1, 1]), total=3)


class TestGibbsOracle:
    def test_flat_one_hot(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=2)
        np.testing.assert_allclose(
            gibbs_marginals_bruteforce(spec, np.zeros(2), 1.0), 0.5, atol=1e-15
        )

    def test_weighted_k3_trees(self):
        # weights: {e0,e1}=2, {e0,e2}=2, {e1,e2}=1 -> Z=5
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K3)
        got = gibbs_marginals_bruteforce(spec, np.array([np.log(2.0), 0.0, 0.0]), 1.0)
        np.testing.assert_allclose(got, [0.8, 0.6, 0.6], atol=1e-14)

    def test_flat_two_subsets(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=3, k=2)
        np.testing.assert_allclose(
            gibbs_marginals_bruteforce(spec, np.zeros(3), 1.0), 2 / 3, atol=1e-15
        )

    def test_guard(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=30)
        with pytest.raises(EnumerationLimitError):
            gibbs_marginals_bruteforce(spec, np.zeros(30), 1.0)

    def test_limit_zero_is_a_limit(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=3)
        with pytest.raises(EnumerationLimitError, match="limit=0"):
            gibbs_marginals_bruteforce(spec, np.zeros(3), 1.0, limit=0)

    def test_wrong_length_is_a_dimension_mismatch(self):
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        with pytest.raises(DimensionMismatchError, match=r"length 4, got shape \(3,\)"):
            gibbs_marginals_bruteforce(spec, np.zeros(3), 1.0)


class TestKsReport:
    def test_exponential_null(self):
        rng = np.random.default_rng(2)
        samples = rng.exponential(scale=0.5, size=20_000)
        rep = ks_report(samples, lambda x: 1.0 - np.exp(-2.0 * x), level=0.01)
        assert rep.passed

    def test_wrong_rate_rejected(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(scale=1.0, size=20_000)
        rep = ks_report(samples, lambda x: 1.0 - np.exp(-2.0 * x), level=0.01)
        assert not rep.passed


class TestMcConsistency:
    def test_error_shrinks_at_root_n_rate(self):
        """Frequencies approach the softmax law; the per-cell error stays
        within three binomial standard errors at each sample size."""
        theta = np.array([0.2, -0.5, 0.8])
        spec = StructureSpec(StructureKind.ONE_HOT, n=3)
        uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
        e = np.exp(theta - theta.max())
        target = e / e.sum()
        support = enumerate_vertices(spec)
        target_by_vertex = np.array([target @ v for v in support])
        sampler = lambda rng: solve_map(spec, draw(uspec, rng).u).vertex
        for i, n_draws in enumerate((1_000, 10_000, 100_000)):
            t = mc_frequencies(sampler, n_draws, seed=100 + i, support=support)
            se = np.sqrt(target_by_vertex * (1 - target_by_vertex) / n_draws)
            assert (np.abs(t.frequencies - target_by_vertex) <= 3 * se).all()


def test_sparse_graph_tree_equivalence():
    """The edge process and Kruskal-on-Gumbel agree beyond complete graphs."""
    from sst import kruskal_max_tree, sample_tree_categorical
    from sst.utilities import UtilityFamily, UtilitySpec, draw

    house = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])
    rng = np.random.default_rng(41)
    theta = rng.uniform(-1.0, 1.0, house.num_edges)
    uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
    draws = 25_000
    ta = mc_frequencies(
        lambda rng: kruskal_max_tree(house, draw(uspec, rng).u), draws, seed=42
    )
    tb = mc_frequencies(
        lambda rng: sample_tree_categorical(house, theta, rng), draws, seed=43
    )
    assert two_sample_equivalence(ta, tb, level=0.01).passed


def test_four_node_arborescence_equivalence():
    """Maximizer-on-noise and rate-sampling agree on a 16-tree support,
    which forces the contraction recursion through nested cycles."""
    from sst import cle_max_arborescence, sample_arborescence_categorical

    d4 = complete_digraph(4)
    rng = np.random.default_rng(31)
    theta = rng.uniform(-1.0, 1.0, d4.num_edges)
    lam = np.exp(theta)
    draws = 25_000

    def maximize(rng):
        u = -rng.exponential(scale=1.0 / lam)
        return cle_max_arborescence(d4, 0, u)

    ta = mc_frequencies(maximize, draws, seed=32)
    tb = mc_frequencies(
        lambda rng: sample_arborescence_categorical(d4, 0, lam, rng),
        draws, seed=33,
    )
    assert len(set(ta.support) | set(tb.support)) == 16
    assert two_sample_equivalence(ta, tb, level=0.01).passed


def _per_draw_gumbel_max(seed, draws):
    """The gumbel-max suite's check, tallied one solve_map call per draw."""
    ss = np.random.SeedSequence(seed).spawn(2)
    theta = np.random.default_rng(ss[0]).uniform(-1.0, 1.0, 5)
    spec = StructureSpec(StructureKind.ONE_HOT, n=5)
    uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
    support = enumerate_vertices(spec)
    e = np.exp(theta - theta.max())
    expected = np.array([(e / e.sum()) @ v for v in support])
    noise_seed = int(ss[1].generate_state(1)[0])
    retried = False
    while True:
        table = mc_frequencies(
            lambda rng: solve_map(spec, draw(uspec, rng).u).vertex,
            draws, noise_seed, support=support,
        )
        rep = chi_square_gof(table, expected, level=0.01)
        if rep.passed or retried:
            return rep, retried
        noise_seed += RETRY_OFFSET
        retried = True


# Seed 87 was found by scanning seeds 0..399 at 2000 draws: its first
# attempt fails at level 0.01, so the suite reports the retry.  Seed 188490
# also retries, from a noise seed within RETRY_OFFSET of 2**32, so the retry
# seed does not fit a uint32.
@pytest.mark.parametrize("seed, retried", [(7, False), (87, True), (188490, True)])
def test_gumbel_max_suite_matches_per_draw_path(seed, retried):
    want, want_retried = _per_draw_gumbel_max(seed, 2000)
    assert want_retried is retried
    (got,) = run_suite("gumbel-max", seed, draws=2000)
    assert got["statistic"] == want.statistic
    assert got["p_value"] == want.p_value
    assert got["passed"] == want.passed
    assert got.get("retried", False) is retried


# At these seeds some first attempt of each statistical suite fails at 2000
# draws, so its report must say that it was retried.
@pytest.mark.parametrize("name, seed", [
    ("gumbel-max", 87), ("topk", 22), ("tree", 26), ("arborescence", 48), ("subsets", 95),
])
def test_every_statistical_suite_marks_its_retries(name, seed):
    reports = run_suite(name, seed, draws=2000)
    assert any(r.get("retried") is True for r in reports)
    assert all(r["passed"] for r in reports)


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite("nonsense", seed=0)


def test_matrix_tree_suite_smoke():
    reports = run_suite("matrix-tree", seed=123)
    assert all(r["passed"] for r in reports)
    assert all(r["suite"] == "matrix-tree" for r in reports)
