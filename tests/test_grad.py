import importlib
import itertools
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sst import (
    FDConfig,
    Graph,
    RelaxationSpec,
    Regularizer,
    StructureKind,
    StructureSpec,
    UnsupportedPairError,
    analytic_jacobian,
    fd_jacobian,
    fd_vjp,
    gradcheck,
    relax,
    supported_pairs,
)
from sst.errors import ConvergenceError, InputError, InvalidSpecError
from sst.structures import gibbs_moments

from graphs import D3, K3, K4, complete_digraph, complete_graph
from tree_solves import assert_one_solve_per_block, watch_tree_solves

_grad_module = importlib.import_module("sst.grad")
_relax_module = importlib.import_module("sst.relax")
_verify_module = importlib.import_module("sst.verify")
_relax_rows, _SEPARABLE = _relax_module._relax_rows, _relax_module._SEPARABLE

ONE_HOT2 = StructureSpec(StructureKind.ONE_HOT, n=2)
SHANNON = RelaxationSpec(Regularizer.SHANNON, temperature=1.0)


class TestFdVjp:
    def test_zero_direction(self):
        out = fd_vjp(ONE_HOT2, SHANNON, np.zeros(2), np.zeros(2))
        assert (out == 0).all()

    def test_softmax_direction(self):
        # J = diag(p) - p p^T = [[.25,-.25],[-.25,.25]] at u = 0, so J d = (0.5, -0.5)
        out = fd_vjp(ONE_HOT2, SHANNON, np.zeros(2), np.array([1.0, -1.0]))
        np.testing.assert_allclose(out, [0.5, -0.5], atol=1e-6)

    def test_sigmoid_slope(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=1)
        rspec = RelaxationSpec(Regularizer.BINARY_ENTROPY, temperature=1.0)
        out = fd_vjp(spec, rspec, np.zeros(1), np.ones(1))
        assert out[0] == pytest.approx(0.25, abs=1e-6)

    def test_matches_jacobian_column(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=4)
        u = np.random.default_rng(0).normal(size=4)
        jac = fd_jacobian(spec, SHANNON, u)
        e1 = np.zeros(4)
        e1[1] = 1.0
        np.testing.assert_allclose(fd_vjp(spec, SHANNON, u, e1), jac[:, 1], atol=1e-12)


class TestAnalyticJacobian:
    def test_softmax_closed_form(self):
        jac = analytic_jacobian(ONE_HOT2, SHANNON, np.zeros(2))
        np.testing.assert_allclose(jac, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_sigmoid_temperature(self):
        spec = StructureSpec(StructureKind.SUBSETS, n=1)
        rspec = RelaxationSpec(Regularizer.BINARY_ENTROPY, temperature=2.0)
        jac = analytic_jacobian(spec, rspec, np.zeros(1))
        assert jac[0, 0] == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("kind, reg, dim", [
        (StructureKind.ONE_HOT, Regularizer.SHANNON, 4),
        (StructureKind.SUBSETS, Regularizer.CATEGORICAL_ENTROPY, 4),
        (StructureKind.K_SUBSETS, Regularizer.BINARY_ENTROPY, 5),
    ])
    def test_temperature_scaling_identity(self, kind, reg, dim):
        """J at temperature t equals (1/t) times the t=1 Jacobian at u/t."""
        spec = (
            StructureSpec(kind, n=dim)
            if kind != StructureKind.K_SUBSETS
            else StructureSpec(kind, n=dim, k=2)
        )
        u = np.random.default_rng(1).normal(size=dim)
        t = 1.8
        jac_t = analytic_jacobian(spec, RelaxationSpec(reg, temperature=t), u)
        jac_1 = analytic_jacobian(spec, RelaxationSpec(reg, temperature=1.0), u / t)
        np.testing.assert_allclose(jac_t, jac_1 / t, atol=1e-12)

    def test_unsupported_pair(self):
        spec = StructureSpec(StructureKind.MATCHING, n=3)
        with pytest.raises(UnsupportedPairError):
            analytic_jacobian(spec, SHANNON, np.zeros(9))


class TestGradcheck:
    def test_softmax(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=3)
        rep = gradcheck(spec, SHANNON, np.random.default_rng(2).normal(size=3))
        assert rep.passed
        assert rep.max_discrepancy <= 1e-6

    def test_matrix_tree_symmetry(self):
        spec = StructureSpec(StructureKind.SPANNING_TREE, graph=K3)
        rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=1.0)
        rep = gradcheck(spec, rspec, np.random.default_rng(3).normal(size=3))
        assert rep.symmetry_defect <= 1e-6
        assert rep.passed

    def test_expfam_covariance_identity(self):
        """The Jacobian of exponential-family marginals is Cov(x)/t."""
        spec = StructureSpec(StructureKind.K_SUBSETS, n=4, k=2)
        rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=1.3)
        rep = gradcheck(spec, rspec, np.random.default_rng(4).normal(size=4))
        assert rep.covariance_discrepancy is not None
        assert rep.covariance_discrepancy <= 1e-6

    @pytest.mark.parametrize("spec", [
        StructureSpec(StructureKind.ONE_HOT, n=4),
        StructureSpec(StructureKind.SUBSETS, n=4),
        StructureSpec(StructureKind.K_SUBSETS, n=8, k=3),
        StructureSpec(StructureKind.CORR_K_SUBSETS, n=5, k=2),
        StructureSpec(StructureKind.MATCHING, n=3),
        StructureSpec(StructureKind.SPANNING_TREE, graph=K4),
        StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=1),
    ], ids=lambda spec: spec.kind.value)
    def test_expfam_enumerates_once(self, spec, monkeypatch):
        """Where ``analytic_jacobian`` is the enumerated covariance, its
        discrepancy is the covariance discrepancy; one-hot and subsets have
        closed forms and enumerate the covariance on their own.  Either way
        the report holds the former two-enumeration values."""
        calls = []
        monkeypatch.setattr(_grad_module, "gibbs_moments",
                            lambda *args, **kw: calls.append(1) or gibbs_moments(*args, **kw))
        rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=0.8)
        u = np.random.default_rng(1).normal(size=spec.dim)
        rep = gradcheck(spec, rspec, u)
        assert len(calls) == 1
        jac = fd_jacobian(spec, rspec, u)
        _, cov = gibbs_moments(spec, u / 0.8, 10_000, covariance=True)
        assert rep.covariance_discrepancy == float(np.abs(jac - cov / 0.8).max())
        assert rep.max_discrepancy == float(np.abs(jac - analytic_jacobian(spec, rspec, u)).max())
        assert rep.passed

    def test_failing_tolerance_reported(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=3)
        rep = gradcheck(spec, SHANNON, np.zeros(3), tolerance=1e-18)
        assert not rep.passed

    def test_report_dict_round_trip(self):
        spec = StructureSpec(StructureKind.ONE_HOT, n=3)
        d = gradcheck(spec, SHANNON, np.zeros(3)).to_dict()
        assert set(d) == {
            "symmetry_defect", "max_discrepancy", "covariance_discrepancy",
            "tolerance", "passed",
        }


@pytest.mark.parametrize("kind, reg", supported_pairs())
def test_jacobian_symmetry_everywhere(kind, reg):
    """Symmetry of dX/du justifies using one finite difference as a VJP."""
    spec = {
        StructureKind.ONE_HOT: StructureSpec(StructureKind.ONE_HOT, n=4),
        StructureKind.SUBSETS: StructureSpec(StructureKind.SUBSETS, n=4),
        StructureKind.K_SUBSETS: StructureSpec(StructureKind.K_SUBSETS, n=4, k=2),
        StructureKind.CORR_K_SUBSETS: StructureSpec(StructureKind.CORR_K_SUBSETS, n=3, k=2),
        StructureKind.MATCHING: StructureSpec(StructureKind.MATCHING, n=3),
        StructureKind.SPANNING_TREE: StructureSpec(StructureKind.SPANNING_TREE, graph=K3),
        StructureKind.ARBORESCENCE: StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=0),
    }[kind]
    rspec = RelaxationSpec(reg, temperature=1.0, tol=1e-12, max_iter=20_000)
    u = np.random.default_rng(
        zlib.crc32(f"{kind.value}/{reg.value}".encode())
    ).normal(size=spec.dim)
    jac = fd_jacobian(spec, rspec, u)
    assert np.abs(jac - jac.T).max() <= 1e-6


@pytest.mark.parametrize("kind, reg", [
    (StructureKind.ONE_HOT, Regularizer.SHANNON),
    (StructureKind.K_SUBSETS, Regularizer.EXPFAM_ENTROPY),
    (StructureKind.SPANNING_TREE, Regularizer.EXPFAM_ENTROPY),
])
def test_continuity_probe(kind, reg):
    """Small input perturbations move the solution by at most a loose
    Lipschitz envelope of (dim / t) * 10."""
    spec = {
        StructureKind.ONE_HOT: StructureSpec(StructureKind.ONE_HOT, n=5),
        StructureKind.K_SUBSETS: StructureSpec(StructureKind.K_SUBSETS, n=5, k=2),
        StructureKind.SPANNING_TREE: StructureSpec(StructureKind.SPANNING_TREE, graph=K3),
    }[kind]
    t = 0.7
    rspec = RelaxationSpec(reg, temperature=t)
    rng = np.random.default_rng(5)
    bound = spec.dim / t * 10.0
    for _ in range(20):
        u = rng.normal(size=spec.dim)
        h = rng.normal(size=spec.dim)
        h *= 1e-6 / np.linalg.norm(h)
        delta = np.linalg.norm(relax(spec, rspec, u + h).x - relax(spec, rspec, u).x)
        assert delta <= bound * 1e-6


def test_fd_config_validation():
    for eps in (0.0, -1e-4, np.nan):
        with pytest.raises(InvalidSpecError, match="^epsilon must be > 0$"):
            FDConfig(epsilon=eps)
    with pytest.raises(InvalidSpecError, match="^epsilon must be finite$"):
        FDConfig(epsilon=np.inf)


def test_gradcheck_takes_only_a_finite_non_negative_tolerance():
    spec = StructureSpec(StructureKind.ONE_HOT, n=3)
    for tol in (np.nan, np.inf, -1e-6):
        with pytest.raises(InputError, match=f"^tolerance must be a finite number >= 0, got {tol!r}$"):
            gradcheck(spec, SHANNON, np.zeros(3), tolerance=tol)
    assert not gradcheck(spec, SHANNON, np.zeros(3), tolerance=0.0).passed


# --- fd_vjp solves its two points as one block -------------------------------------

def _two_call_fd_vjp(spec, rspec, u, d, fd=FDConfig()):
    """The former ``fd_vjp``: one ``relax`` call per finite-difference point."""
    eps = fd.epsilon
    xp = relax(spec, rspec, u + eps * d).x
    xm = relax(spec, rspec, u - eps * d).x
    return (xp - xm) / (2.0 * eps)


_EXPFAM_SPECS = (
    [StructureSpec(StructureKind.K_SUBSETS, n=n, k=k) for n, k in ((2, 1), (9, 4), (100, 10))]
    + [StructureSpec(StructureKind.CORR_K_SUBSETS, n=n, k=k) for n, k in ((2, 1), (9, 5), (50, 10))]
    + [StructureSpec(StructureKind.SPANNING_TREE, graph=complete_graph(n)) for n in range(3, 13)]
    + [StructureSpec(StructureKind.ARBORESCENCE, graph=complete_digraph(n), root=0)
       for n in range(3, 11)]
    + [StructureSpec(StructureKind.ONE_HOT, n=6), StructureSpec(StructureKind.SUBSETS, n=6)]
)


@pytest.mark.parametrize("t", [1.0, 1e-2, 1e-4])
@pytest.mark.parametrize("spec", _EXPFAM_SPECS,
                         ids=lambda s: f"{s.kind.value}-{s.dim}")
def test_fd_vjp_keeps_the_two_call_bytes(spec, t):
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
    rng = np.random.default_rng(zlib.crc32(f"{spec.kind.value}/{spec.dim}/{t}".encode()))
    for u in (rng.normal(size=spec.dim), np.round(rng.normal(size=spec.dim))):
        d = rng.normal(size=spec.dim)
        for fd in (FDConfig(), FDConfig(epsilon=1e-2)):
            got = fd_vjp(spec, rspec, u, d, fd)
            assert got.tobytes() == _two_call_fd_vjp(spec, rspec, u, d, fd).tobytes()


@pytest.mark.parametrize("kind, reg", supported_pairs())
def test_fd_vjp_keeps_the_two_call_bytes_on_every_pair(kind, reg):
    spec = {
        StructureKind.ONE_HOT: StructureSpec(StructureKind.ONE_HOT, n=4),
        StructureKind.SUBSETS: StructureSpec(StructureKind.SUBSETS, n=4),
        StructureKind.K_SUBSETS: StructureSpec(StructureKind.K_SUBSETS, n=5, k=2),
        StructureKind.CORR_K_SUBSETS: StructureSpec(StructureKind.CORR_K_SUBSETS, n=4, k=2),
        StructureKind.MATCHING: StructureSpec(StructureKind.MATCHING, n=3),
        StructureKind.SPANNING_TREE: StructureSpec(StructureKind.SPANNING_TREE, graph=K3),
        StructureKind.ARBORESCENCE: StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=0),
    }[kind]
    rspec = RelaxationSpec(reg, temperature=0.5, tol=1e-12, max_iter=20_000)
    rng = np.random.default_rng(zlib.crc32(f"{kind.value}/{reg.value}/pair".encode()))
    u, d = rng.normal(size=spec.dim), rng.normal(size=spec.dim)
    assert fd_vjp(spec, rspec, u, d).tobytes() == _two_call_fd_vjp(spec, rspec, u, d).tobytes()


def _column_fd_jacobian(spec, rspec, u, fd=FDConfig()):
    """The former ``fd_jacobian``: one ``fd_vjp`` per coordinate direction."""
    n = len(u)
    cols = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols[:, j] = fd_vjp(spec, rspec, u, e, fd)
    return cols


@pytest.mark.parametrize("spec, reg", _verify_module._pair_instances(4),
                         ids=lambda x: x.value if isinstance(x, Regularizer) else x.kind.value)
def test_fd_jacobian_keeps_the_column_bytes(spec, reg):
    rspec = RelaxationSpec(reg, temperature=0.5, tol=1e-12, max_iter=20_000)
    rng = np.random.default_rng(zlib.crc32(f"{spec.kind.value}/{reg.value}/jacobian".encode()))
    u = rng.normal(size=spec.dim)
    assert fd_jacobian(spec, rspec, u).tobytes() == _column_fd_jacobian(spec, rspec, u).tobytes()


def test_fd_jacobian_raises_the_first_column_failure():
    """A Sinkhorn solve capped at 20 iterations, with eps = 0.3, converges at
    u + eps e_0 and fails at u - eps e_0 and u + eps e_1: the one block
    raises on u - eps e_0, as the column loop does."""
    spec = StructureSpec(StructureKind.MATCHING, n=3)
    rspec = RelaxationSpec(Regularizer.SHANNON, temperature=0.05, max_iter=20)
    fd = FDConfig(epsilon=0.3)
    u = np.random.default_rng(8).normal(size=spec.dim)
    e0 = np.eye(spec.dim)[0]
    relax(spec, rspec, u + fd.epsilon * e0)
    with pytest.raises(ConvergenceError) as want:
        relax(spec, rspec, u - fd.epsilon * e0)
    with pytest.raises(ConvergenceError) as loop:
        _column_fd_jacobian(spec, rspec, u, fd)
    with pytest.raises(ConvergenceError) as got:
        fd_jacobian(spec, rspec, u, fd)
    for info in (loop, got):
        assert str(info.value) == str(want.value)
        assert info.value.residual == want.value.residual


def test_tree_fd_pair_with_tied_largest_edges(monkeypatch):
    # tied largest edges with tails 0 and 2, nudged apart in opposite
    # directions by u + eps d and u - eps d: the pair is one certified
    # inverse and at most one kernel call, on the rows it rejected, and
    # each point keeps the bytes of its own relax call
    log = watch_tree_solves(monkeypatch)
    graph = complete_graph(6)
    spec = StructureSpec(StructureKind.SPANNING_TREE, graph=graph)
    u = np.random.default_rng(8).normal(size=graph.num_edges)
    i, j = graph.edges.index((0, 3)), graph.edges.index((2, 4))
    u[[i, j]] = u.max() + 0.5
    d = np.random.default_rng(9).normal(size=graph.num_edges)
    d[i], d[j] = -1.0, 1.0
    eps = FDConfig().epsilon
    for t in (1.0, 1e-2):
        rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
        log.clear()
        got = fd_vjp(spec, rspec, u, d)
        assert_one_solve_per_block(log, np.stack([u + eps * d, u - eps * d]), t)
        assert got.tobytes() == _two_call_fd_vjp(spec, rspec, u, d).tobytes()


def _former_separable_jacobian(s, t):
    total = s.sum()
    if total == 0.0:
        return np.zeros((len(s), len(s)))
    return (np.diag(s) - np.outer(s, s) / total) / t


def _assert_former_bytes(spec, rspec, u, free=None):
    """``analytic_jacobian`` against the dense formula, signed zeros included;
    ``free`` pins the number of coordinates of nonzero slope the case has."""
    s = _SEPARABLE[rspec.regularizer][1](relax(spec, rspec, u).x)
    if free is not None:
        assert np.count_nonzero(s) == free
    t = rspec.temperature
    assert analytic_jacobian(spec, rspec, u).tobytes() == _former_separable_jacobian(s, t).tobytes()


@pytest.mark.parametrize("reg", [Regularizer.EUCLIDEAN, Regularizer.BINARY_ENTROPY,
                                 Regularizer.CATEGORICAL_ENTROPY])
def test_separable_jacobian_keeps_the_former_bytes(reg):
    """The dense form or the block on the free coordinates, whichever runs,
    has the bytes of the dense formula: a coordinate of slope 0 has +0.0 in
    its row and column, and the sum of slopes runs over every coordinate."""
    spec = StructureSpec(StructureKind.K_SUBSETS, n=60, k=6)
    for t in (1.0, 0.1, 1e-3):
        u = 3.0 * np.random.default_rng(6).normal(size=60)
        _assert_former_bytes(spec, RelaxationSpec(reg, temperature=t), u)
    # a falling schedule, then t = 1e-3, where the capped and the underflowed
    # coordinates of the entropic maps leave a free block whose slope sum
    # over F alone rounds differently
    spec = StructureSpec(StructureKind.K_SUBSETS, n=200, k=20)
    for t in (*np.geomspace(1.0, 0.03, 6), 1e-3):
        for draw in range(4):
            _assert_former_bytes(spec, RelaxationSpec(reg, temperature=float(t)),
                                 np.random.default_rng(draw).normal(size=200))
    # no free coordinate: the top two are 1 and the rest 0 under every map
    _assert_former_bytes(StructureSpec(StructureKind.K_SUBSETS, n=4, k=2), RelaxationSpec(reg),
                         np.array([3000.0, 0.0, -2000.0, -2000.0]), free=0)
    # every coordinate free
    _assert_former_bytes(StructureSpec(StructureKind.K_SUBSETS, n=6, k=3), RelaxationSpec(reg),
                         0.01 * np.random.default_rng(8).normal(size=6), free=6)


def test_separable_jacobian_edges_of_the_free_block():
    """One free coordinate of slope 1.9e-174, and the free sets on either side
    of the switch between the block and the dense form (13 of 20 is the
    block, 14 of 20 the dense form)."""
    _assert_former_bytes(StructureSpec(StructureKind.ONE_HOT, n=3),
                         RelaxationSpec(Regularizer.BINARY_ENTROPY),
                         np.array([800.0, 0.0, -800.0]), free=1)
    spec = StructureSpec(StructureKind.K_SUBSETS, n=20, k=10)
    for free, clamped_at_1 in ((13, 3), (14, 3)):
        # the free scores sum to a half-integer or an integer, so the shift
        # keeps every one of them strictly inside (0, 1)
        mid = np.linspace(0.3, 0.7, free)
        u = np.concatenate([np.full(clamped_at_1, 10.0), mid, np.full(20 - free - clamped_at_1, -10.0)])
        for t in (1.0, 0.5):
            _assert_former_bytes(spec, RelaxationSpec(Regularizer.EUCLIDEAN, temperature=t),
                                 t * u, free=free)


# --- random small instances against the enumerated moments --------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_block_marginals_and_vjps_match_enumeration(data):
    kind = data.draw(st.sampled_from(["one_hot", "subsets", "k_subsets", "corr_k_subsets",
                                      "spanning_tree", "arborescence"]))
    n = data.draw(st.integers(2, 5))
    if kind in ("one_hot", "subsets"):
        spec = StructureSpec(kind, n=n)
    elif kind in ("k_subsets", "corr_k_subsets"):
        spec = StructureSpec(kind, n=n, k=data.draw(st.integers(1, n - 1)))
    elif kind == "spanning_tree":
        pairs = list(itertools.combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        graph = Graph(n, [p for p, k in zip(pairs, keep) if k])
        assume(graph.is_connected())
        spec = StructureSpec(kind, graph=graph)
    else:
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
        keep = data.draw(st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs)))
        graph = Graph(n, [a for a, k in zip(arcs, keep) if k], directed=True)
        assume(graph.reachable_from(0) == set(range(n)))
        spec = StructureSpec(kind, graph=graph, root=0)
    t = data.draw(st.sampled_from([1.0, 0.3, 0.1]))
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    rows = np.array(data.draw(st.lists(st.lists(floats, min_size=spec.dim, max_size=spec.dim),
                                       min_size=1, max_size=3)))
    if data.draw(st.booleans()):
        rows = np.round(rows)  # ties
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY, temperature=t)
    block = _relax_rows(spec, rspec, rows)
    for u, x in zip(rows, block):
        mean, cov = gibbs_moments(spec, u / t, 10_000, covariance=True)
        assert np.abs(x - mean).max() <= 1e-8
        d = np.cos(np.arange(spec.dim) + u.sum())
        # the same step in u / t at every temperature
        vjp = fd_vjp(spec, rspec, u, d, FDConfig(epsilon=1e-4 * t))
        assert np.abs(vjp - cov @ d / t).max() <= 1e-6
