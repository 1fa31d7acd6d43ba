"""Temperature-controlled relaxations: maximize ``u . x - t * f(x)`` over
the convex hull of a structure's vertex set.

``_PAIRS`` holds the (structure, regularizer) pairs ``relax`` accepts
and the solver each one takes; ``supported_pairs()`` lists them and the
README tabulates them.  On the probability simplex the shannon,
categorical-entropy and exponential-family solutions coincide with the
tempered softmax, so all three take it.  Every solver works in a shifted
or log domain so that temperatures far below 1 stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import expit

from .errors import (
    ConvergenceError,
    EnumerationLimitError,
    InfeasibleStructureError,
    InputError,
    InvalidSpecError,
    NumericalError,
    UnsupportedPairError,
    _as_floats,
    _as_member,
    _require_finite,
    _require_solver_controls,
    _require_temperature,
)
from .structures import (
    DEFAULT_ENUM_LIMIT,
    Graph,
    StructureKind,
    StructureSpec,
    _check_dim,
    _edge_vector,
    _square_matrix,
    gibbs_moments,
)

__all__ = [
    "Regularizer",
    "RelaxationSpec",
    "RelaxedPoint",
    "relax",
    "softmax_simplex",
    "euclidean_project",
    "binary_entropy_relax",
    "categorical_entropy_relax",
    "expfam_marginals",
    "matrix_tree_marginals",
    "directed_matrix_tree_marginals",
    "sinkhorn_relax",
]

DEFAULT_BISECT_ITER = 200
DEFAULT_SINKHORN_ITER = 1000
MATCHING_EXACT_LIMIT = 6
_EPS = float(np.finfo(float).eps)
_LOWEST = -float(np.finfo(float).max)


class Regularizer(str, Enum):
    SHANNON = "shannon"
    EUCLIDEAN = "euclidean"
    BINARY_ENTROPY = "binary_entropy"
    CATEGORICAL_ENTROPY = "categorical_entropy"
    EXPFAM_ENTROPY = "expfam_entropy"


@dataclass(frozen=True)
class RelaxationSpec:
    """Regularizer choice, temperature and solver tolerances.

    ``relax`` looks the solver of a (structure kind, regularizer) pair up
    in ``_PAIRS``, the one place where that choice is made.  ``max_iter``
    of ``None`` resolves to 200 for the shift searches and 1000 for
    Sinkhorn.
    """

    regularizer: Regularizer
    temperature: float = 1.0
    tol: float = 1e-10
    max_iter: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "regularizer",
                           _as_member(Regularizer, self.regularizer, "regularizer"))
        _require_temperature(self.temperature, error=InvalidSpecError)
        _require_solver_controls(self.tol, self.max_iter, error=InvalidSpecError)


@dataclass(frozen=True)
class RelaxedPoint:
    """A point of the hull, with solver by-products where they exist.

    Tree and arborescence points carry ``condition_estimate``: the natural
    log of Skeel's condition number ``|| |G| |L| ||_inf`` of the reduced
    Laplacian L of the max-shifted edge weights, with G its inverse.  It
    is inf where L is singular in double precision and 0.0 on a one-node
    graph.
    """

    x: np.ndarray
    dual: Optional[np.ndarray] = None
    residual: Optional[float] = None
    condition_estimate: Optional[float] = None


def _scaled(u: np.ndarray, t: float) -> np.ndarray:
    """``u / t`` for finite ``u`` (a vector or a block of rows) and ``t > 0``,
    failing loudly if the division itself overflows.  Every solver that
    takes a temperature divides by it here."""
    u = _as_floats(u, "utilities")
    _require_finite(u, "utilities")
    _require_temperature(t)
    with np.errstate(over="ignore"):
        z = u / t
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise NumericalError(
            f"u / t overflows double precision at temperature {t:.3e}"
        )
    return z


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of ``z``, with max-subtraction; a score that
    falls past the doubles below its row's max gets 0."""
    with np.errstate(over="ignore"):
        z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_simplex(u: np.ndarray, t: float) -> RelaxedPoint:
    """Tempered softmax of a non-empty vector, with max-subtraction."""
    u = _as_floats(u, "utilities")
    if u.ndim != 1 or not u.size:
        raise InputError(f"expected a non-empty vector, got shape {u.shape}")
    return RelaxedPoint(x=_softmax_rows(_scaled(u, t)[None])[0])


def _newton_shift(values_of, slope_of, target, z, tol, max_iter):
    """Find ``nu`` with ``sum(values_of(z - nu)) = target``; returns ``(nu, x)``.

    ``values_of`` is one of the coordinate maps of ``_SEPARABLE``, each
    nondecreasing in ``w = z - nu`` with values in [0, 1], and
    ``slope_of(x)`` is its derivative in ``w``, written through
    ``x = values_of(w)``; the sum falls as ``nu`` grows.  ``target`` is
    an integer k with 1 <= k < n = len(z).

    The bracket comes from two order statistics.  Let ``L = log n + 1``
    and let z_(j) be the j-th largest score.  At ``nu = z_(k+1) - L`` the
    k + 1 largest coordinates have ``w >= L >= 1``: the clamp and the
    capped exponential give 1 there and the sigmoid at least
    ``1 - e^-L = 1 - 1/(e n)``, so the sum is at least
    ``(k + 1)(1 - 1/(e n)) > k``.  At ``nu = z_(k) + L`` every coordinate
    from the k-th on has ``w <= -L`` and gives at most
    ``e^-L = 1/(e n)``, and the k - 1 above it at most 1 each, so the sum
    is at most ``k - 1 + 1/e < k``.  The margin L is widened by
    ``2 eps (|z_(j)| + L)``, so the rounded ends and the rounded ``w``
    still keep ``|w| >= L``; one ``np.partition`` gives both statistics
    and no end is evaluated.

    Each step evaluates the sum once, shrinks the bracket to the side the
    root lies on, and takes the Newton step when it lands strictly inside
    the bracket and is at most half the step before last; otherwise it
    bisects (Numerical Recipes' ``rtsafe``).  With the capped
    exponential's slope (``_uncapped``, the coordinates below the cap)
    the step is taken in log space: the uncapped part of the sum is
    ``e^-nu`` times a constant until a coordinate reaches the cap, so the
    Newton ratio ``delta = (sum - k) / sum(slope)`` becomes the step
    ``-log1p(-delta)``, exact while no coordinate crosses the cap, and a
    bisection where ``delta >= 1``.  ``tol`` bounds ``|sum(x) - target|``
    and ``max_iter`` the evaluations; a search whose bisection midpoint
    is no longer strictly inside the bracket has no double left to try
    and raises at once.
    """
    n = z.shape[0]
    k = int(target)
    below, above = map(float, np.partition(z, (n - k - 1, n - k))[n - k - 1:n - k + 1])
    reach = math.log(n) + 1.0
    # in Python floats, which overflow to +-inf without a warning
    lo = max(below - reach - 2.0 * _EPS * (abs(below) + reach), _LOWEST)
    hi = min(above + reach + 2.0 * _EPS * (abs(above) + reach), -_LOWEST)
    log_step = slope_of is _uncapped
    add = np.add.reduce
    best_res = math.inf
    nu = 0.5 * lo + 0.5 * hi
    last = prev = hi - lo
    with np.errstate(over="ignore"):  # z - nu may pass the doubles; the maps take +-inf
        for _ in range(max_iter):
            x = values_of(z - nu)
            s = float(add(x))
            res = abs(s - target)
            if res <= tol:
                return nu, x
            best_res = min(best_res, res)
            if s > target:
                lo = nu
            else:
                hi = nu
            slope = float(add(slope_of(x)))
            step = (s - target) / slope if slope > 0.0 else math.nan
            if log_step:
                step = -math.log1p(-step) if step < 1.0 else math.nan
            if lo < nu + step < hi and abs(step) <= 0.5 * abs(prev):
                nu_next = nu + step
            else:
                nu_next = 0.5 * lo + 0.5 * hi
                if not lo < nu_next < hi:
                    break
            prev, last = last, nu_next - nu
            nu = nu_next
    raise ConvergenceError(
        f"shift search did not reach |sum(x) - {target}| <= {tol}", residual=best_res
    )


def _uncapped(x):
    return np.where(x < 1.0, x, 0.0)


# The coordinate map ``x = values(w)`` of each separable regularizer, the
# maximizer of ``w x - f(x)`` over [0, 1], and its slope ``dx/dw``
# written as a function of ``x``: the shift search steps with the slope
# (in log space with ``_uncapped``, see ``_newton_shift``), and the
# Jacobian of every separable relaxation is formed from it alone.  The
# clamp calls the two ufuncs ``np.clip`` would, with the same bytes.
_SEPARABLE = {
    Regularizer.EUCLIDEAN: (lambda w: np.minimum(np.maximum(0.0, w), 1.0),
                            lambda x: ((x > 0.0) & (x < 1.0)).astype(float)),
    Regularizer.BINARY_ENTROPY: (expit, lambda x: x * (1.0 - x)),
    Regularizer.CATEGORICAL_ENTROPY: (lambda w: np.minimum(1.0, np.exp(np.minimum(w, 0.0))),
                                      _uncapped),
}


def _separable_point(reg, spec, u, t, tol, max_iter):
    """The coordinate map of ``reg`` applied to ``u / t`` on subsets; on
    one-hot and k-subsets applied to ``u / t - nu``, with the shift ``nu``
    searched so that the coordinates sum to the cardinality."""
    u = _check_dim(spec, u)
    if (spec.kind, reg) not in _PAIRS:
        raise UnsupportedPairError(
            f"{reg.value.replace('_', '-')} relaxation does not support {spec.kind.value}"
        )
    values, slope = _SEPARABLE[reg]
    if spec.kind == StructureKind.SUBSETS:
        return RelaxedPoint(x=values(_scaled(u, t)))
    target = 1 if spec.kind == StructureKind.ONE_HOT else spec.k
    z = _scaled(u, t)
    if target == z.shape[0]:  # the feasible set is the single all-ones point
        return RelaxedPoint(x=np.ones(target))
    nu, x = _newton_shift(values, slope, target, z, tol, max_iter)
    return RelaxedPoint(x=x, dual=np.asarray(nu), residual=abs(float(np.add.reduce(x)) - target))


def _project_simplex(z: np.ndarray) -> tuple:
    """Euclidean projection onto the probability simplex; returns (x, threshold)."""
    srt = np.sort(z)[::-1]
    css = np.cumsum(srt)
    ks = np.arange(1, z.shape[0] + 1)
    cond = srt - (css - 1.0) / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(z - tau, 0.0), tau


def euclidean_project(spec: StructureSpec, u: np.ndarray, t: float,
                      tol: float = 1e-10, max_iter: int = DEFAULT_BISECT_ITER) -> RelaxedPoint:
    """Euclidean projection of ``u / t`` onto the structure's hull.

    One-hot uses the simplex threshold rule, subsets clamp to the unit
    box, and k-subsets search the shift of a clamped affine map on the
    capped simplex.
    """
    _require_solver_controls(tol, max_iter)
    if spec.kind == StructureKind.ONE_HOT:
        x, tau = _project_simplex(_scaled(_check_dim(spec, u), t))
        return RelaxedPoint(x=x, dual=np.asarray(tau))
    return _separable_point(Regularizer.EUCLIDEAN, spec, u, t, tol, max_iter)


def binary_entropy_relax(spec: StructureSpec, u: np.ndarray, t: float,
                         tol: float = 1e-10, max_iter: int = DEFAULT_BISECT_ITER) -> RelaxedPoint:
    """Coordinatewise sigmoid, with a searched shift under a cardinality sum."""
    _require_solver_controls(tol, max_iter)
    return _separable_point(Regularizer.BINARY_ENTROPY, spec, u, t, tol, max_iter)


def categorical_entropy_relax(spec: StructureSpec, u: np.ndarray, t: float,
                              tol: float = 1e-10, max_iter: int = DEFAULT_BISECT_ITER) -> RelaxedPoint:
    """Capped exponential, with a searched shift under a cardinality sum."""
    _require_solver_controls(tol, max_iter)
    if spec.kind == StructureKind.ONE_HOT:
        # the cap is inactive on the simplex; coincides with the softmax
        return softmax_simplex(_check_dim(spec, u), t)
    return _separable_point(Regularizer.CATEGORICAL_ENTROPY, spec, u, t, tol, max_iter)


# --- exponential-family marginals -------------------------------------------
#
# Every kernel below takes a block with one row per utility vector and
# gives each row the bytes of its own one-row solve: the Python loops run
# once per block, and every reduction stays along a contiguous last axis,
# where numpy sums a row of a block exactly as it sums the row alone.

class _Semiring(NamedTuple):
    """The arithmetic a DP kernel runs in.  ``weight`` maps scores to table
    elements, ``value`` maps an element back to a number and ``count``
    maps a cardinality in; ``times`` and ``divide`` are the product and
    its inverse, and ``plus`` is the sum, a ufunc whose ``accumulate`` and
    ``reduce`` run along the positions and the counts."""

    weight: Callable
    value: Callable
    count: Callable
    times: np.ufunc
    divide: np.ufunc
    plus: np.ufunc
    zero: float
    one: float


def _identity(x):
    return x


# The linear semiring multiplies weights and adds positive sums, so every
# entry of a DP table is a sum of monomials (products of weights) and
# carries a relative error of O((n + k) eps), unless a monomial falls below
# the smallest normal double or a sum overflows.  ``_dp_certified`` rules
# both out before any table is built; the rows it rejects run in the log
# semiring, whose entries are the logs of the same sums and span every
# exponent.
_LINEAR = _Semiring(np.exp, _identity, float, np.multiply, np.divide, np.add, 0.0, 1.0)
_LOG = _Semiring(_identity, np.exp, math.log, np.add, np.subtract, np.logaddexp, -np.inf, 0.0)
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)


def _dp_certified(z, n, k):
    """The rows of scores ``z`` whose k-subset DP (n columns) or chain DP
    (2 n - 1 columns, the pair scores after the unary ones) may run in the
    linear semiring.

    Every monomial of a table is a product of at most k unary weights
    exp(phi - max phi), each in (0, 1], and, on a chain, at most k - 1
    pair factors exp(psi), so its log lies in [low, high] with
    ``low = k (min phi - max phi) + (k - 1) min(0, min psi)`` and
    ``high = (k - 1) max(0, max psi)``.  A row is certified when ``low``
    is at least the log of the smallest normal double plus a margin of 1,
    and ``high`` plus log(k C(n, c*)) at most the log of the largest double
    minus 1: C(n, c*), the binomial C(n, c) largest over c <= k, bounds how
    many monomials one entry sums, and the kernels' last sum, of every
    numerator, is k Z.  The margin is far wider than the kernels' relative
    error, so no computed entry leaves that range either.
    """
    phi, psi = z[:, :n], z[:, n:]
    # a spread past the doubles overflows to -inf and fails the test
    low = k * (phi.min(axis=1) - phi.max(axis=1))
    high = 0.0
    if psi.shape[1]:
        low = low + (k - 1) * psi.min(axis=1, initial=0.0)
        high = (k - 1) * psi.max(axis=1, initial=0.0)
    c = min(k, n // 2)
    count = math.log(k) + math.lgamma(n + 1) - math.lgamma(c + 1) - math.lgamma(n - c + 1)
    return (low >= _LOG_TINY + 1.0) & (high <= _LOG_HUGE - count - 1.0)


def _cardinality_dp(z: np.ndarray, k: int, sr: _Semiring) -> np.ndarray:
    """Inclusion marginals of the k-of-n distribution p(S) ~ exp(sum z_S),
    one row of marginals per row of ``z``, in the semiring ``sr``.

    Forward/backward over (position, count); O(n k).  Every subset holds
    k elements, so the weights w, of z - max z, leave the law alone and
    keep a large common offset out of the sums.  ``tab[:, 0, c, i]`` sums
    the products of the c-subsets of the first i weights, and
    ``tab[:, 1, c, i]`` those of the last i, from the same recursion on
    the reversed weights; each count is one ``plus.accumulate`` along the
    positions for both directions.  Element i's marginal is ``w_i sum_c
    tab[0, c, i] tab[1, k - 1 - c, n - 1 - i] / Z``, and these numerators
    sum to k Z, so no table needs count k.
    """
    rows, n = z.shape
    w = sr.weight(z - z.max(axis=1, keepdims=True))
    both = np.stack([w, w[:, ::-1]], axis=1)
    tab = np.full((rows, 2, k, n + 1), sr.zero)
    tab[:, :, 0] = sr.one
    for c in range(1, k):
        sr.plus.accumulate(sr.times(tab[:, :, c - 1, :-1], both), axis=2, out=tab[:, :, c, 1:])
    numer = sr.times(w, sr.plus.reduce(
        sr.times(tab[:, 0, :, :n], tab[:, 1, ::-1, n - 1::-1]), axis=1))
    scale = sr.divide(sr.count(k), sr.plus.reduce(numer, axis=1, keepdims=True))
    return np.clip(sr.value(sr.times(numer, scale)), 0.0, 1.0)


def _chain_dp(n: int, k: int, z: np.ndarray, sr: _Semiring) -> np.ndarray:
    """Unary and adjacent-pair marginals of the cardinality-k chain, one row
    of marginals per row of ``z``, in the semiring ``sr``.

    Scores: ``z[:, :n]`` per selected element, ``z[:, n + i]`` whenever
    elements i and i+1 are both selected.  Forward/backward over the
    (position, state, count) lattice, with unary factors a of
    phi - max phi, shifted as in ``_cardinality_dp`` since every
    configuration holds k ones, and pair factors b of psi, unshifted since
    configurations hold different numbers of adjacent pairs.
    ``tab[:, 0, c, s, i]`` sums the configurations of positions 0..i with
    c ones and x_i = s, and ``tab[:, 1]`` the same on the reversed chain,
    so ``tab[:, 1, c, s, n - 1 - i]`` covers positions i..n-1.  Each
    count takes one vector step for state 1 and one ``plus.accumulate``
    along the positions for state 0, both directions at once.  Element i
    is selected with c ones up to and at it and k + 1 - c from it on, so
    its numerator divides a_i out of the forward side first, and each of
    its products holds k unary factors, as every monomial does.  The unary
    numerators sum to k Z.
    """
    rows = z.shape[0]
    phi, psi = z[:, :n], z[:, n:]
    a = sr.weight(phi - phi.max(axis=1, keepdims=True))
    tab = np.full((rows, 2, k + 1, 2, n), sr.zero)
    tab[:, :, 0, 0] = sr.one
    tab[:, :, 1, 1] = both = np.stack([a, a[:, ::-1]], axis=1)
    if k > 1:  # k = 1 has no pair factors, and psi is not bounded then
        b = sr.weight(np.stack([psi, psi[:, ::-1]], axis=1))
    for c in range(1, k):
        sr.plus.accumulate(tab[:, :, c, 1, :-1], axis=2, out=tab[:, :, c, 0, 1:])
        prev = tab[:, :, c, :, :-1]
        tab[:, :, c + 1, 1, 1:] = sr.times(
            both[:, :, 1:], sr.plus(prev[:, :, 0], sr.times(prev[:, :, 1], b)))
    fwd, bwd = tab[:, 0, 1:, 1], tab[:, 1, :0:-1, 1, ::-1]
    mu = np.zeros((rows, 2 * n - 1))
    # an a_i of -inf divides out as the lowest double: -inf, not NaN, stays
    unary = sr.plus.reduce(sr.times(sr.divide(fwd, np.maximum(a, _LOWEST)[:, None]), bwd), axis=1)
    scale = sr.divide(sr.count(k), sr.plus.reduce(unary, axis=1, keepdims=True))
    mu[:, :n] = sr.value(sr.times(unary, scale))
    if k >= 2:
        # both endpoints selected: c ones up to i, k - c from i + 1 on
        pair = sr.plus.reduce(sr.times(fwd[:, :-1, :-1], bwd[:, 1:, 1:]), axis=1)
        mu[:, n:] = sr.value(sr.times(sr.times(pair, b[:, 0]), scale))
    return np.clip(mu, 0.0, 1.0)


def _tree_marginals_by_logdet(nn, src, dst, theta, directed):
    """Per-edge marginals as the gradient of the log-determinant, one row
    of marginals per row of log weights ``theta``.

    ``mu_e`` is the derivative of log Z = log det(reduced Laplacian) in
    the edge's log weight.  ``lw[:, a, c]`` is the log weight of arc a->c
    (-inf where absent; an undirected edge is a pair of arcs), with the
    nodes numbered by ``src`` and ``dst``: the boundary, whose row and
    column the reduced Laplacian drops, is last (``Graph.tree_plan``),
    and the forward pass eliminates the others in index order.
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
    edge's marginal is the adjoint of its arcs; an arc into the boundary
    lands in its column, which neither pass reads, and keeps adjoint 0.
    O(n^3) flops and about 2 n^3 / 3 doubles of shares per row.  It solves
    the rows whose inverse-Laplacian marginals the error bound of
    ``_tree_rows_by_inverse`` rejects: the inverse cancels once the
    distribution concentrates, this pass does not.
    """
    neg = -np.inf
    rows = theta.shape[0]
    lw = np.full((rows, nn, nn), neg)
    lw[:, src, dst] = theta
    if not directed:
        lw[:, dst, src] = theta
    pivots, steps = [], []
    for v in range(nn - 1):
        # shapes (rows, nodes after v, 1), (rows, 1, 1) and (rows, 1, nodes
        # after v but the boundary): no view is made twice
        incoming = lw[:, v + 1:, v:v + 1]
        top = incoming.max(axis=1, keepdims=True)
        soft = np.exp(incoming - top)
        total = soft.sum(axis=1, keepdims=True)
        # math.log, not np.log: numpy's vectorized log rounds differently
        pivot = top + np.fromiter(map(math.log, total.flat), float, rows).reshape(rows, 1, 1)
        pivots.append(pivot)
        old = lw[:, v + 1:, v + 1:nn - 1]
        x = incoming + (lw[:, v:v + 1, v + 1:nn - 1] - pivot)
        new = np.logaddexp(old, x)
        # both shares are 0 where both terms are -inf: -inf minus the
        # lowest double, not minus -inf
        live = np.maximum(new, _LOWEST)
        steps.append((soft / total, np.exp(x - live), np.exp(old - live)))
        old[...] = new
    # a node with no incoming arc left gets a NaN pivot (-inf minus -inf)
    if np.isnan(np.concatenate(pivots, axis=1)).any():
        raise NumericalError("singular reduced Laplacian")
    adj = np.zeros((rows, nn, nn))
    for v in range(nn - 2, -1, -1):
        soft, to_x, to_old = steps[v]
        block = adj[:, v + 1:, v + 1:nn - 1]
        through = block * to_x
        block *= to_old
        sums = through.sum(axis=2, keepdims=True)
        adj[:, v + 1:, v:v + 1] += sums + (1.0 - sums.sum(axis=1, keepdims=True)) * soft
        adj[:, v:v + 1, v + 1:nn - 1] += through.sum(axis=1, keepdims=True)
    return adj[:, src, dst] if directed else adj[:, src, dst] + adj[:, dst, src]


def _tree_rows_by_inverse(nn, src, dst, w, directed):
    """Tree marginals from the inverse G of the reduced Laplacian, one row
    per row of edge weights ``w``, with the rows whose error estimate
    accepts them.

    ``src`` and ``dst`` number the nodes with the boundary last, so the
    reduced Laplacian L is the leading (nn - 1) block of the Laplacian,
    and G padded with a zero row and column for the boundary gives
    ``w (G_ss + G_dd - G_sd - G_ds)`` for an edge {s, d} and
    ``w (G_bb - G_ba)`` for an arc a->b (Koo et al., 2007).
    ``np.linalg.inv`` solves L x_j = e_j column by column from one LU
    factorization, so each column carries its own backward error
    ``dL_j`` with ``|dL_j| <= 3 n eps |L^| |U^|`` (Higham, 2002, ch. 9
    and 14; n is the order of L), and a marginal reads two columns whose
    errors need not cancel.  To first order, taking ``|L^| |U^|`` as
    ``|L|``, an edge's error is at most
    ``w (3 n eps |r|^T |L| (|G e_s| + |G e_d|) + 4 eps (|G_ss| + |G_dd| + |G_sd| + |G_ds|))``
    with ``r = G^T (e_s - e_d)``, which cancels as well and so is widened
    by its own first-order error, ``3 n eps`` times rows s and d of
    ``|G| |L| |G|``; an arc's error is at most
    ``w (3 n eps |e_b^T G| |L| (|G e_b| + |G e_a|) + 4 eps (|G_bb| + |G_ba|))``.
    The last term is the rounding of the final combination.  A row is
    certified when its largest bound is at most 1e-12, its marginals are
    finite, and ``n eps cond <= 1e-3``, with Skeel's condition number
    ``cond = || |G| |L| ||_inf``, keeps the first-order term valid.  The
    bound is first order and leaves out the factors' growth, so it is not
    a proof: the tests check the certified rows against a 60-digit oracle
    and against the elimination kernel.  Returns the marginals, the
    certified mask and each row's ``cond``, inf where L is singular in
    double precision; each row's outputs are those of its one-row call.
    """
    rows, m = len(w), nn - 1
    # lap[:, c, a] is the Laplacian's [a, c] entry: -w(a->c) off the
    # diagonal, c's total in-weight on it, summed along a contiguous line
    lap = np.zeros((rows, nn, nn))
    lap[:, dst, src] = w
    if not directed:
        lap[:, src, dst] = w
    deg = lap.sum(axis=2)
    np.negative(lap, out=lap)
    lap.reshape(rows, -1)[:, ::nn + 1] = deg
    red = lap[:, :m, :m].transpose(0, 2, 1)
    g = np.zeros((rows, nn, nn))
    g[:, :m, :m] = _inverses(red)
    diag = g.reshape(rows, -1)[:, ::nn + 1]
    if directed:
        terms = (diag[:, dst], g[:, dst, src])
        mu = w * (terms[0] - terms[1])
    else:
        terms = (diag[:, src], diag[:, dst], g[:, src, dst], g[:, dst, src])
        mu = w * (terms[0] + terms[1] - terms[2] - terms[3])
    # |G| |L|, padded with a zero row for the boundary; NaN where L is singular
    skeel = np.zeros((rows, nn, m))
    np.matmul(np.abs(g[:, :m, :m]), np.abs(red), out=skeel[:, :m])
    cond = skeel.sum(axis=2).max(axis=1)
    # the rounding term costs O(1) per edge and the first-order term O(n),
    # and the whole bound is never below it, so it screens the rows first
    last = 4 * _EPS * sum(map(np.abs, terms))
    ok = (np.isfinite(mu).all(axis=1) & ((w * last).max(axis=1) <= 1e-12)
          & (m * _EPS * cond <= 1e-3))
    if ok.any():
        if directed:
            # the columns of |G| as rows, each arc reading those of a and b
            cols = np.abs(g.transpose(0, 2, 1)[:, :, :m])
            first = skeel[:, dst] * (cols[:, dst] + cols[:, src])
        else:
            # L and G are symmetric, so |L| |G e_s| is row s of |G| |L|;
            # r cancels where the distribution concentrates, so it
            # gets the first-order error of its two rows of G
            glg = np.zeros((rows, nn, m))
            np.matmul(skeel[:, :m], np.abs(g[:, :m, :m]), out=glg[:, :m])
            r = (np.abs(g[:, src, :m] - g[:, dst, :m])
                 + 3 * m * _EPS * (glg[:, src] + glg[:, dst]))
            first = r * (skeel[:, src] + skeel[:, dst])
        ok &= (w * (3 * m * _EPS * first.sum(axis=2) + last)).max(axis=1) <= 1e-12
    cond[np.isnan(cond)] = np.inf
    return mu, ok, cond


def _inverses(a):
    """``np.linalg.inv`` of every matrix of the stack ``a``.  One singular
    matrix fails the whole stack, so then each is inverted alone, and a
    singular one gets NaN."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full(a.shape, np.nan)
        for r, x in enumerate(a):
            try:
                out[r] = np.linalg.inv(x)
            except np.linalg.LinAlgError:
                pass
        return out


def _tree_rows(graph: Graph, u: np.ndarray, t: float, root: Optional[int] = None) -> tuple:
    """Marginals of the spanning trees (``root`` None) or arborescences
    rooted at ``root``, one row per row of edge utilities ``u``, with each
    row's Skeel ``cond``, whose log ``_tree_point`` reports (1 on one node).

    Every row eliminates toward one boundary: the root, or the last node
    of a spanning-tree graph (the marginals hold whichever row and column
    of the Laplacian are deleted).  Two paths share the graph's
    ``tree_plan`` for that boundary: one batched inverse of the reduced
    Laplacian solves the whole block, and the rows whose first-order
    per-edge error estimate exceeds 1e-12 go to the log-domain
    elimination in one call.  Either way every row keeps the bytes of its one-row solve;
    a certified row may differ from the elimination in its last bits.
    The graph must have such a tree: a ``StructureSpec`` proves it on
    construction, and the two raw-graph solvers check it before they get
    here.  One ``np.errstate`` covers the block and neither path sets its
    own: a score past the doubles below its row's max weighs 0, and a
    singular L leaves NaN, which the certificate rejects.
    """
    theta = _scaled(u, t)
    if not theta.shape[1]:  # one node: its only tree has no edges
        return theta, np.ones(len(theta))
    directed = root is not None
    nn = graph.num_nodes
    src, dst = graph.tree_plan(root if directed else nn - 1)
    with np.errstate(all="ignore"):
        # subtracting a row's max scales every tree's weight alike
        theta = theta - theta.max(axis=1, keepdims=True)
        mu, ok, cond = _tree_rows_by_inverse(nn, src, dst, np.exp(theta), directed)
        if not ok.all():
            mu[~ok] = _tree_marginals_by_logdet(nn, src, dst, theta[~ok], directed)
    return np.clip(mu, 0.0, 1.0), cond


def _tree_point(graph: Graph, u: np.ndarray, t: float, root: Optional[int] = None) -> RelaxedPoint:
    """The point of one vector of edge utilities ``u``, with ``log cond``."""
    mu, cond = _tree_rows(graph, u[None], t, root)
    return RelaxedPoint(x=mu[0], condition_estimate=math.log(cond[0]))


def matrix_tree_marginals(graph: Graph, u: np.ndarray, t: float = 1.0) -> RelaxedPoint:
    """Per-edge spanning-tree marginals of p(T) ~ exp(u . x_T / t).

    Works on the weighted Laplacian of exp(u/t) with the row and column
    of the last node deleted; the marginals are the gradient of its
    log-determinant in the log weights.  They come from its inverse where
    a first-order per-edge error estimate is at most 1e-12 (a filter the
    tests check against a high-precision oracle, not a proof), and
    otherwise from one log-domain elimination and its reverse pass.
    ``condition_estimate`` is the log of Skeel's condition number of that
    Laplacian (see ``RelaxedPoint``), the number the certificate reads.
    """
    u = _edge_vector(graph, u, "edge utilities", directed=False)
    if not graph.is_connected():
        raise InfeasibleStructureError("graph is disconnected; no spanning tree exists")
    return _tree_point(graph, u, t)


def directed_matrix_tree_marginals(graph: Graph, root: int, u: np.ndarray,
                                   t: float = 1.0) -> RelaxedPoint:
    """Per-edge marginals of the root-directed tree family p(T) ~ exp(u . x_T / t).

    The Laplacian collects entering weights on the diagonal and the
    root row/column is deleted; the marginals are the gradient of its
    log-determinant, from its certified inverse or from the log-domain
    elimination, as in the undirected case, and ``condition_estimate`` is
    the log of Skeel's condition number of this Laplacian.  Edges entering
    the root have marginal zero by definition.
    """
    u = _edge_vector(graph, u, "edge utilities", directed=True, root=root)
    if graph.reachable_from(root) != set(range(graph.num_nodes)):
        raise InfeasibleStructureError("no arborescence: some node unreachable from the root")
    return _tree_point(graph, u, t, root)


def _row_residual(sums):
    """``max |r - 1|`` over the row sums r, to the bit: ``|r - 1|`` is exact
    for r >= 0.5 (Sterbenz) and rounding is monotone below."""
    return float(max(sums.max() - 1.0, 1.0 - sums.min()))


def sinkhorn_relax(u: np.ndarray, t: float, tol: float = 1e-10,
                   max_iter: int = DEFAULT_SINKHORN_ITER,
                   warm_start: Optional[np.ndarray] = None) -> RelaxedPoint:
    """Doubly stochastic matrix from alternating log-domain normalization.

    Each sweep updates the row log-scalings ``f`` so that the rows of
    ``x = exp(U/t - f - g)`` sum to 1, then the column ones ``g`` so that
    its columns do.  The columns of the result therefore sum to 1 up to
    rounding, and ``residual`` is the worst row-sum deviation
    ``max(max r - 1, 1 - min r)``, read off the sums r of the next row
    update.  Iterates until it is at most ``tol``; raises
    ``ConvergenceError`` (carrying the residual) past ``max_iter`` sweeps.
    A sweep tests ``max r - 1`` first and reads ``min r`` only when that
    side passes; the residual returned or raised is the whole maximum,
    formed from the last row sums, which stay in their own buffer.  The
    output ``x`` is flattened row-major; ``dual`` stacks ``f`` and ``g``
    and can seed ``warm_start`` of a nearby solve, e.g. along a decreasing
    temperature schedule where cold starts converge slowly (only ``g`` is
    read: the first row update replaces ``f``).
    """
    base = _scaled(_square_matrix(u), t)
    _require_solver_controls(tol, max_iter)
    if warm_start is None:
        g = np.zeros(len(base))
    else:
        warm_start = _as_floats(warm_start, "warm_start")
        if warm_start.shape != (2, len(base)):
            raise InputError(f"warm_start must have shape (2, {len(base)}), got {warm_start.shape}")
        _require_finite(warm_start, "warm_start")
        g = warm_start[1].copy()
    m = np.empty_like(base)

    def lse(axis, shift):
        # max-stabilized log-sum-exp of base - shift along axis
        np.subtract(base, shift, out=m)
        mx = m.max(axis=axis, keepdims=True)
        np.subtract(m, mx, out=m)
        np.exp(m, out=m)
        return np.log(m.sum(axis=axis)) + mx.reshape(-1)

    # The first sweep starts from arbitrary duals and needs the max.  After
    # it every update divides by sums in [1/n, n]: an update leaves its
    # rows (or columns) summing to 1, so every entry is at most 1, and the
    # other update divides each entry by at most n.  So exp(base - f - g)
    # can neither overflow nor lose a whole row or column to underflow.
    f = lse(1, g[None, :])
    g = lse(0, f[:, None])
    f_col = f[:, None]  # f is updated in place from here on
    base_f = base - f_col  # refreshed after every row update
    sums, logs = np.empty(len(base)), np.empty(len(base))
    top, bottom, add = np.maximum.reduce, np.minimum.reduce, np.add.reduce
    for _ in range(max_iter):
        np.exp(np.subtract(base_f, g, out=m), out=m)
        add(m, 1, None, sums)
        # either side alone fails a sweep, so the min side waits for the max side
        if top(sums) - 1.0 <= tol and 1.0 - bottom(sums) <= tol:
            return RelaxedPoint(x=m.reshape(-1), dual=np.stack([f, g]),
                                residual=_row_residual(sums))
        f += np.log(sums, out=logs)
        np.subtract(base, f_col, out=base_f)
        np.exp(np.subtract(base_f, g, out=m), out=m)
        g += np.log(add(m, 0, None, logs), out=logs)
    residual = _row_residual(sums)  # of the last sweep's row sums, kept in sums
    raise ConvergenceError(
        f"sinkhorn row residual {residual:.3e} > tol {tol:.3e} after {max_iter} iterations",
        residual=residual,
    )


def _expfam_rows(spec: StructureSpec, u: np.ndarray, t: float) -> np.ndarray:
    """The marginals of p(x) ~ exp(u . x / t) for every row of ``u``, each
    kernel run once on the whole block (matchings enumerate row by row).

    The k-subset and chain DPs run in the linear semiring on the rows
    whose monomial bounds, read off z = u / t alone, ``_dp_certified``
    accepts, and in the log semiring on the rest; either way each row
    keeps the bytes of its one-row solve, and a certified row may differ
    from its log-semiring solve at the rounding level.
    """
    kind = spec.kind
    if kind in (StructureKind.SPANNING_TREE, StructureKind.ARBORESCENCE):
        return _tree_rows(spec.graph, u, t, spec.root)[0]
    if kind == StructureKind.MATCHING and spec.n > MATCHING_EXACT_LIMIT:
        raise EnumerationLimitError(
            f"exact matching marginals are limited to n <= {MATCHING_EXACT_LIMIT}"
        )
    z = _scaled(u, t)
    if kind == StructureKind.ONE_HOT:
        return _softmax_rows(z)
    if kind == StructureKind.SUBSETS:
        return expit(z)
    if kind == StructureKind.MATCHING:
        mu = np.stack([gibbs_moments(spec, row, DEFAULT_ENUM_LIMIT) for row in z])
        return np.clip(mu, 0.0, 1.0)
    n, k = spec.n, spec.k
    # a score past the doubles below its row's max fails the certificate
    with np.errstate(over="ignore"):
        ok = _dp_certified(z, n, k)
        if kind == StructureKind.K_SUBSETS:
            return _dp_rows(z, ok, lambda x, sr: _cardinality_dp(x, k, sr))
        return _dp_rows(z, ok, lambda x, sr: _chain_dp(n, k, x, sr))


def _dp_rows(z, ok, kernel):
    """``kernel(z, _LINEAR)`` on the rows ``ok`` marks and ``kernel(z, _LOG)``
    on the rest, one call each; each row keeps the bytes of its one-row
    call."""
    if ok.all():
        return kernel(z, _LINEAR)
    if not ok.any():
        return kernel(z, _LOG)
    mu = np.empty_like(z)
    mu[ok] = kernel(z[ok], _LINEAR)
    mu[~ok] = kernel(z[~ok], _LOG)
    return mu


def expfam_marginals(spec: StructureSpec, u: np.ndarray, t: float) -> RelaxedPoint:
    """Marginal vector of p(x) ~ exp(u . x / t) over the spec's vertices;
    on trees and arborescences ``condition_estimate`` is the log Skeel
    condition number of ``matrix_tree_marginals``."""
    u = _check_dim(spec, u)
    if spec.kind in (StructureKind.SPANNING_TREE, StructureKind.ARBORESCENCE):
        return _tree_point(spec.graph, u, t, spec.root)
    return RelaxedPoint(x=_expfam_rows(spec, u[None], t)[0])


# The solver of every supported (kind, regularizer) pair, in the order
# ``supported_pairs`` lists them: "expfam" is ``expfam_marginals``,
# "sinkhorn" is ``sinkhorn_relax`` and "separable" is the regularizer's own
# solver.  The values are tags, not functions: ``relax`` calls each solver
# through its module attribute, so a wrapper written over that attribute (a
# tracer's span, a test's monkeypatch) sees every call.
_PAIRS = {
    (StructureKind.ONE_HOT, Regularizer.SHANNON): "expfam",
    (StructureKind.MATCHING, Regularizer.SHANNON): "sinkhorn",
    (StructureKind.ONE_HOT, Regularizer.EUCLIDEAN): "separable",
    (StructureKind.SUBSETS, Regularizer.EUCLIDEAN): "separable",
    (StructureKind.K_SUBSETS, Regularizer.EUCLIDEAN): "separable",
    (StructureKind.ONE_HOT, Regularizer.BINARY_ENTROPY): "separable",
    (StructureKind.SUBSETS, Regularizer.BINARY_ENTROPY): "separable",
    (StructureKind.K_SUBSETS, Regularizer.BINARY_ENTROPY): "separable",
    (StructureKind.ONE_HOT, Regularizer.CATEGORICAL_ENTROPY): "expfam",
    (StructureKind.SUBSETS, Regularizer.CATEGORICAL_ENTROPY): "separable",
    (StructureKind.K_SUBSETS, Regularizer.CATEGORICAL_ENTROPY): "separable",
    **{(kind, Regularizer.EXPFAM_ENTROPY): "expfam" for kind in StructureKind},
}


def supported_pairs() -> list:
    """All (kind, regularizer) pairs ``relax`` accepts."""
    return list(_PAIRS)


def _relax_rows(spec: StructureSpec, rspec: RelaxationSpec, u: np.ndarray) -> np.ndarray:
    """``relax(spec, rspec, row).x`` for every row of the block ``u``, whose
    rows the caller has checked.  The exponential-family pairs solve the
    whole block at once; every other pair goes one row at a time."""
    if _PAIRS.get((spec.kind, rspec.regularizer)) == "expfam":
        return _expfam_rows(spec, u, rspec.temperature)
    return np.stack([relax(spec, rspec, row).x for row in u])


def relax(spec: StructureSpec, rspec: RelaxationSpec, u: np.ndarray) -> RelaxedPoint:
    """Dispatch to the solver ``_PAIRS`` names for (structure kind, regularizer)."""
    u = _check_dim(spec, u)
    t = rspec.temperature
    reg = rspec.regularizer
    kind = spec.kind
    rule = _PAIRS.get((kind, reg))
    if rule is None:
        raise UnsupportedPairError(
            f"no solver for structure {kind.value!r} with regularizer {reg.value!r}"
        )
    if rule == "expfam":
        return expfam_marginals(spec, u, t)
    if rule == "sinkhorn":
        max_iter = DEFAULT_SINKHORN_ITER if rspec.max_iter is None else rspec.max_iter
        return sinkhorn_relax(u.reshape(spec.n, spec.n), t, rspec.tol, max_iter)
    max_iter = DEFAULT_BISECT_ITER if rspec.max_iter is None else rspec.max_iter
    if reg == Regularizer.EUCLIDEAN:
        return euclidean_project(spec, u, t, rspec.tol, max_iter)
    if reg == Regularizer.BINARY_ENTROPY:
        return binary_entropy_relax(spec, u, t, rspec.tol, max_iter)
    return categorical_entropy_relax(spec, u, t, rspec.tol, max_iter)
