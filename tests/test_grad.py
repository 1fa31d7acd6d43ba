import zlib

import numpy as np
import pytest

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
from sst.errors import InvalidSpecError

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
D3 = Graph(3, [(i, j) for i in range(3) for j in range(3) if i != j], directed=True)

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
    with pytest.raises(InvalidSpecError):
        FDConfig(epsilon=0.0)
