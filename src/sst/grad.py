"""Gradients of relaxed solutions with respect to utilities.

The Jacobian of every relaxation here is symmetric, so a single central
finite difference along a direction ``d`` doubles as the vector-Jacobian
product needed for backpropagation: the two points ``u +- eps d`` solved
as one two-row block, no dense matrix.  Closed forms exist for the
softmax, the coordinatewise maps, the shift solvers (by the implicit
function theorem), and any exponential-family relaxation small enough to
enumerate, where the Jacobian is the Gibbs covariance over temperature.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (EnumerationLimitError, InputError, InvalidSpecError,
                     UnsupportedPairError, _as_floats, _require_finite, _require_positive)
from .relax import (
    _PAIRS,
    _SEPARABLE,
    _relax_rows,
    _scaled,
    Regularizer,
    RelaxationSpec,
    relax,
    softmax_simplex,
)
from .structures import DEFAULT_ENUM_LIMIT, StructureKind, StructureSpec, _check_dim, gibbs_moments

__all__ = [
    "FDConfig",
    "GradcheckReport",
    "fd_vjp",
    "fd_jacobian",
    "analytic_jacobian",
    "gradcheck",
]


@dataclass(frozen=True)
class FDConfig:
    """Step of the central differences ``(f(u + eps d) - f(u - eps d)) / (2 eps)``."""

    epsilon: float = 1e-4

    def __post_init__(self):
        _require_positive(self.epsilon, "epsilon", InvalidSpecError)
        _require_finite(self.epsilon, "epsilon", InvalidSpecError)


def fd_vjp(spec: StructureSpec, rspec: RelaxationSpec, u: np.ndarray,
           d: np.ndarray, fd: FDConfig = FDConfig()) -> np.ndarray:
    """Symmetric finite-difference estimate of J(u) . d.

    Because the Jacobian of the relaxed solution is symmetric, this is
    also the pullback of ``d`` through the solver.  Both points go to the
    solver as one block; each gets the bytes of its own ``relax`` call.
    """
    u = _check_dim(spec, u)
    d = _as_floats(d, "direction")
    if d.shape != u.shape:
        raise InputError(f"direction must have shape {u.shape}, got {d.shape}")
    _require_finite(d, "direction")
    return _central_differences(spec, rspec, u, d[None], fd.epsilon)[0]


def fd_jacobian(spec: StructureSpec, rspec: RelaxationSpec, u: np.ndarray,
                fd: FDConfig = FDConfig()) -> np.ndarray:
    """Dense central-difference Jacobian: column j is ``fd_vjp`` along the
    j-th coordinate direction, byte for byte."""
    u = _check_dim(spec, u)
    return _central_differences(spec, rspec, u, np.eye(u.shape[0]), fd.epsilon).T.copy()


def _central_differences(spec: StructureSpec, rspec: RelaxationSpec, u: np.ndarray,
                         directions: np.ndarray, eps: float) -> np.ndarray:
    """The central difference along each row of ``directions``, from one solver
    block ordered ``u + eps d_0, u - eps d_0, u + eps d_1, ...``: a solve
    that fails raises on the point the rows taken one at a time would."""
    step = eps * directions
    x = _relax_rows(spec, rspec, np.stack([u + step, u - step], axis=1).reshape(-1, u.shape[0]))
    return (x[0::2] - x[1::2]) / (2.0 * eps)


def _enumerated_jacobian(spec: StructureSpec, u: np.ndarray, t: float) -> np.ndarray:
    """The Gibbs covariance at scores ``u / t`` over ``t``, enumerated."""
    try:
        _, cov = gibbs_moments(spec, _scaled(u, t), DEFAULT_ENUM_LIMIT, covariance=True)
    except EnumerationLimitError as exc:
        raise UnsupportedPairError(
            f"{spec.kind.value!r} instance too large to enumerate a covariance Jacobian; use fd_vjp"
        ) from exc
    return cov / t


def analytic_jacobian(spec: StructureSpec, rspec: RelaxationSpec, u: np.ndarray) -> np.ndarray:
    """Exact Jacobian of the relaxed solution in ``u`` where a form is known.

    The softmax has ``(diag(p) - p p^T) / t``; an exponential family small
    enough to enumerate has its Gibbs covariance over ``t``.  A separable
    relaxation with coordinate slopes ``s`` has ``diag(s) / t`` on subsets
    and ``(diag(s) - s s^T / sum(s)) / t`` under a cardinality sum, whose
    shift moves with ``u``; the product-Bernoulli family on subsets is the
    binary-entropy sigmoid.
    """
    u = _check_dim(spec, u)
    t = rspec.temperature
    reg = rspec.regularizer
    kind = spec.kind
    rule = _PAIRS.get((kind, reg))
    if rule == "expfam" and kind == StructureKind.ONE_HOT:
        p = softmax_simplex(u, t).x
        return (np.diag(p) - np.outer(p, p)) / t
    if rule == "expfam" and kind != StructureKind.SUBSETS:
        return _enumerated_jacobian(spec, u, t)
    if rule == "expfam":
        reg = Regularizer.BINARY_ENTROPY  # the product-Bernoulli marginals are the sigmoid
    elif rule != "separable":
        raise UnsupportedPairError(
            f"no closed-form Jacobian for {kind.value!r} with {reg.value!r}; use fd_vjp"
        )
    s = _SEPARABLE[reg][1](relax(spec, rspec, u).x)
    if kind == StructureKind.SUBSETS:
        return np.diag(s) / t
    # A coordinate of slope 0 has +0.0 in its whole row and column, so the
    # block on the free set F = {i : s_i > 0} is the whole computation; the
    # zero fill and the scatter cost more than the dense form once F holds
    # most coordinates.  The sum runs over all of s, with the same bits.
    total = np.add.reduce(s)
    free = np.flatnonzero(s)
    if len(free) > 0.65 * len(s):
        return _rank_one_update(s, total, t)
    jac = np.zeros((len(s), len(s)))
    jac[np.ix_(free, free)] = _rank_one_update(s[free], total, t)
    return jac


def _rank_one_update(s: np.ndarray, total: float, t: float) -> np.ndarray:
    """``(diag(s) - s s^T / total) / t`` in one buffer, with the roundings of
    that formula: 0 - a off the diagonal (+0.0 where a is 0), and
    -a + s == s - a on it."""
    jac = np.multiply.outer(s, s)
    jac /= total
    np.subtract(0.0, jac, out=jac)
    jac.reshape(-1)[::len(s) + 1] += s
    jac /= t
    return jac


@dataclass(frozen=True)
class GradcheckReport:
    symmetry_defect: float
    max_discrepancy: Optional[float]
    covariance_discrepancy: Optional[float]
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def gradcheck(spec: StructureSpec, rspec: RelaxationSpec, u: np.ndarray,
              tolerance: float = 1e-6, fd: FDConfig = FDConfig()) -> GradcheckReport:
    """Compare the dense finite-difference Jacobian against every exact
    form available for the pair, and measure its symmetry defect; passes
    when none exceeds ``tolerance``, a finite number >= 0."""
    if not isinstance(tolerance, numbers.Real) or not 0 <= tolerance < np.inf:
        raise InputError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    jac = fd_jacobian(spec, rspec, u, fd)
    symmetry = float(np.abs(jac - jac.T).max())
    discrepancy = None
    try:
        exact = analytic_jacobian(spec, rspec, u)
        discrepancy = float(np.abs(jac - exact).max())
    except UnsupportedPairError:
        pass
    cov_disc = None
    expfam = rspec.regularizer == Regularizer.EXPFAM_ENTROPY
    if expfam and spec.kind not in (StructureKind.ONE_HOT, StructureKind.SUBSETS):
        cov_disc = discrepancy  # analytic_jacobian enumerated this covariance
    elif expfam:
        try:
            cov_disc = float(np.abs(jac - _enumerated_jacobian(spec, u, rspec.temperature)).max())
        except UnsupportedPairError:
            pass
    checks = [symmetry] + [v for v in (discrepancy, cov_disc) if v is not None]
    return GradcheckReport(
        symmetry_defect=symmetry,
        max_discrepancy=discrepancy,
        covariance_discrepancy=cov_disc,
        tolerance=tolerance,
        passed=bool(max(checks) <= tolerance),
    )
