"""The cheaper Sinkhorn sweep and the safeguarded-Newton shift against the
plain loops they replace.

The oracles below are the earlier solvers, kept as they were: a Sinkhorn
sweep that recomputes ``U/t - f - g`` for each update and checks both row
and column sums, and a pure bisection of the shift.  They are slower but
leave little room for a slip in the residual bookkeeping or the bracket
logic, which is what the faster solvers risk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from sst import ConvergenceError, StructureKind, StructureSpec, sinkhorn_relax
from sst.relax import binary_entropy_relax, categorical_entropy_relax, euclidean_project

from shift_solves import watch_shift_solves


# --- oracles ------------------------------------------------------------------

def _sinkhorn_oracle(u, t, tol, max_iter, warm_start=None):
    """The earlier sweep; returns (x, dual, residual, sweeps) or raises."""
    base = u / t
    n = u.shape[0]
    if warm_start is not None:
        f, g = np.array(warm_start[0], dtype=float), np.array(warm_start[1], dtype=float)
    else:
        f, g = np.zeros(n), np.zeros(n)
    residual = np.inf
    for sweep in range(1, max_iter + 1):
        m = base - f[:, None] - g[None, :]
        mx = m.max(axis=1)
        f += mx + np.log(np.exp(m - mx[:, None]).sum(axis=1))
        m = base - f[:, None] - g[None, :]
        mx = m.max(axis=0)
        g += mx + np.log(np.exp(m - mx[None, :]).sum(axis=0))
        x = np.exp(base - f[:, None] - g[None, :])
        residual = float(
            max(np.abs(x.sum(axis=1) - 1.0).max(), np.abs(x.sum(axis=0) - 1.0).max())
        )
        if residual <= tol:
            return x.reshape(-1), np.stack([f, g]), residual, sweep
    raise ConvergenceError("oracle did not converge", residual=residual)


def _bisect_oracle(values_of, target, z, tol, max_iter=200):
    """The earlier pure bisection of the shift; returns nu."""
    n = z.shape[0]
    lo = z.min() - np.log(n) - 1.0
    hi = z.max() + np.log(n) + 1.0
    width = hi - lo
    while values_of(z - lo).sum() < target:
        lo -= width
        width *= 2.0
    while values_of(z - hi).sum() > target:
        hi += width
        width *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        s = values_of(z - mid).sum()
        if abs(s - target) <= tol:
            return mid
        if s > target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("oracle bisection did not converge", residual=abs(s - target))


MAPS = {
    "euclidean": (euclidean_project, lambda w: np.clip(w, 0.0, 1.0)),
    "binary_entropy": (binary_entropy_relax, expit),
    "categorical_entropy": (
        categorical_entropy_relax, lambda w: np.minimum(1.0, np.exp(np.minimum(w, 0.0)))
    ),
}


def _check_shift(reg, spec, u, t, tol=1e-10):
    """The solver's point sums to the target and matches the bisection's."""
    solve, values_of = MAPS[reg]
    point = solve(spec, u, t, tol=tol)
    target = 1 if spec.kind == StructureKind.ONE_HOT else spec.k
    z = u / t
    assert abs(point.x.sum() - target) <= tol
    assert np.array_equal(point.x, values_of(z - float(point.dual)))
    want = values_of(z - _bisect_oracle(values_of, target, z, tol))
    assert np.abs(point.x - want).max() <= 1e-8
    return point


# --- Sinkhorn -----------------------------------------------------------------

FAILING = dict(t=0.03, tol=1e-8, max_iter=20_000)


def _failing_instance():
    return np.random.default_rng(0).standard_normal((8, 8))


def test_known_non_convergent_instance_raises_with_the_oracle_residual():
    u = _failing_instance()
    with pytest.raises(ConvergenceError) as want:
        _sinkhorn_oracle(u, **FAILING)
    with pytest.raises(ConvergenceError) as got:
        sinkhorn_relax(u, **FAILING)
    assert got.value.residual == pytest.approx(want.value.residual, rel=1e-12, abs=0)
    assert got.value.residual > FAILING["tol"]
    assert "20000 iterations" in str(got.value)


@pytest.mark.parametrize("t", [0.03, 1e-4])
@pytest.mark.parametrize("max_iter", [1, 2, 10, 300])
def test_residual_after_each_sweep_count_matches_the_oracle(max_iter, t):
    # at t = 1e-4 the entries of U/t span about 5e4, far past exp's range
    u = _failing_instance()
    with pytest.raises(ConvergenceError) as want:
        _sinkhorn_oracle(u, t, 1e-8, max_iter)
    with pytest.raises(ConvergenceError) as got:
        sinkhorn_relax(u, t, tol=1e-8, max_iter=max_iter)
    assert got.value.residual == pytest.approx(want.value.residual, rel=1e-12, abs=0)


def _instances():
    rng = np.random.default_rng(61)
    for n in range(1, 9):
        for t in (1.0, 0.1, 0.01):
            yield n, t, rng.normal(size=(n, n))


@pytest.mark.parametrize("n, t, u", list(_instances()))
def test_same_sweeps_and_point_as_the_oracle_cold_and_warm(n, t, u):
    tol, max_iter = 1e-10, 4000
    for warm in (None, "warm"):
        if warm is not None:
            # both start from the oracle's duals at twice the temperature
            try:
                warm = _sinkhorn_oracle(u, 2 * t, tol, max_iter)[1]
            except ConvergenceError:
                continue
        try:
            x, dual, residual, sweeps = _sinkhorn_oracle(u, t, tol, max_iter, warm)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                sinkhorn_relax(u, t, tol=tol, max_iter=max_iter, warm_start=warm)
            assert got.value.residual == pytest.approx(exc.residual, rel=1e-9, abs=1e-15)
            continue
        point = sinkhorn_relax(u, t, tol=tol, max_iter=sweeps, warm_start=warm)
        assert np.abs(point.x - x).max() <= 1e-10
        assert np.abs(point.dual - dual).max() <= 1e-10 * max(1.0, np.abs(dual).max())
        assert point.residual <= tol
        assert abs(point.residual - residual) <= 1e-12
        # columns are exact up to rounding, rows within the residual
        xm = point.x.reshape(n, n)
        assert np.abs(xm.sum(axis=0) - 1.0).max() <= 1e-13
        assert np.abs(xm.sum(axis=1) - 1.0).max() <= tol + 1e-13
        if sweeps > 1:
            with pytest.raises(ConvergenceError):
                sinkhorn_relax(u, t, tol=tol, max_iter=sweeps - 1, warm_start=warm)


def test_sinkhorn_reads_the_min_side_of_the_residual():
    """Row sums within ``tol`` above 1 but not below it do not return, and
    the residual returned or raised is the whole ``max(max r - 1, 1 - min r)``
    of that sweep, to the bit."""
    u = np.random.default_rng(0).normal(size=(3, 3))
    x, _, residual, _ = _sinkhorn_oracle(u, 1.0, np.inf, 1)
    rows = x.reshape(3, 3).sum(axis=1)
    high, low = rows.max() - 1.0, 1.0 - rows.min()
    assert high < low == residual
    point = sinkhorn_relax(u, 1.0, tol=low, max_iter=1)
    assert point.residual == _sinkhorn_oracle(u, 1.0, low, 1)[2]
    tol = 0.5 * (high + low)
    with pytest.raises(ConvergenceError) as want:
        _sinkhorn_oracle(u, 1.0, tol, 1)
    with pytest.raises(ConvergenceError) as got:
        sinkhorn_relax(u, 1.0, tol=tol, max_iter=1)
    assert got.value.residual == want.value.residual == low


def test_sinkhorn_max_iter_one_still_raises():
    u = np.random.default_rng(19).normal(size=(3, 3))
    with pytest.raises(ConvergenceError) as exc:
        sinkhorn_relax(u, 0.01, tol=1e-12, max_iter=1)
    assert exc.value.residual > 1e-12


# --- the shift ----------------------------------------------------------------

REGS = tuple(MAPS)
KSUB = StructureSpec(StructureKind.K_SUBSETS, n=7, k=3)


@pytest.mark.parametrize("reg", REGS)
@pytest.mark.parametrize("t", [1.0, 1e-2, 1e-4])
def test_shift_at_ties(reg, t):
    _check_shift(reg, KSUB, np.full(7, 0.3), t)
    _check_shift(reg, KSUB, np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, -2.0]), t)


def test_euclidean_shift_with_every_coordinate_clamped():
    # gaps of 1/t between the values: no shift leaves a coordinate free
    u = np.array([0.5, 0.3, 0.1, -0.1, -0.3, -0.5, -0.7])
    point = _check_shift("euclidean", KSUB, u, 0.01)
    assert point.x.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("reg", REGS)
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("t", [1.0, 0.1, 1e-2, 1e-3, 1e-4])
def test_shift_at_extreme_cardinalities_and_low_temperature(reg, k, t):
    spec = StructureSpec(StructureKind.K_SUBSETS, n=9, k=k)
    rng = np.random.default_rng(62)
    for _ in range(5):
        _check_shift(reg, spec, rng.normal(size=9), t)


@pytest.mark.parametrize("t", [1.0, 1e-2, 1e-4])
def test_one_hot_binary_entropy(t):
    spec = StructureSpec(StructureKind.ONE_HOT, n=6)
    rng = np.random.default_rng(63)
    for _ in range(5):
        _check_shift("binary_entropy", spec, rng.normal(size=6), t)
    _check_shift("binary_entropy", spec, np.zeros(6), t)


def test_shift_on_the_anneal_scale():
    spec = StructureSpec(StructureKind.K_SUBSETS, n=200, k=20)
    rng = np.random.default_rng(64)
    for reg in REGS:
        for t in np.geomspace(1.0, 0.03, 6):
            _check_shift(reg, spec, rng.normal(size=200), float(t))


@pytest.mark.parametrize("reg", REGS)
def test_shift_max_iter_one_still_raises(reg):
    solve = MAPS[reg][0]
    u = np.array([3.0, -1.0, 0.5, 0.2, 1.7, -0.4, 0.9])
    with pytest.raises(ConvergenceError) as exc:
        solve(KSUB, u, 1.0, max_iter=1)
    assert exc.value.residual is not None and exc.value.residual > 1e-10


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    reg=st.sampled_from(REGS),
    data=st.data(),
    t=st.sampled_from([1.0, 0.5, 0.1, 1e-3]),
)
def test_shift_property_integer_utilities(reg, data, t):
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    u = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n), label="u"),
                 dtype=float)
    _check_shift(reg, StructureSpec(StructureKind.K_SUBSETS, n=n, k=k), u, t)


ANNEAL = StructureSpec(StructureKind.K_SUBSETS, n=200, k=20)


def test_shift_bracket_holds_at_the_rounding_of_z():
    """At 1e17 the doubles are 16 apart, far wider than the bracket's margin
    L = log n + 1, so the margin is widened by the rounding of z; the only
    shifts that solve are the doubles in [z_(21), z_(20) - 1]."""
    point = _check_shift("euclidean", ANNEAL, 1e17 + 16.0 * np.arange(200), 1.0)
    assert point.x.tolist() == [0.0] * 180 + [1.0] * 20
    # twenty values 2 apart (the spacing at 1e16), ten coordinates each
    point = _check_shift("euclidean", ANNEAL, np.repeat(1e16 + 2.0 * np.arange(20), 10), 1.0)
    assert point.x.tolist() == [0.0] * 180 + [1.0] * 20


@pytest.mark.parametrize("reg", REGS)
def test_hopeless_shift_search_stops_at_once(reg, monkeypatch):
    """Near z = 1e7 the doubles are 2^-29 apart, so the sum of 200 equal
    coordinates moves in steps far above 1e-10 and no double nu solves;
    the search raises once its bracket holds no double, not after all 200
    evaluations."""
    log = watch_shift_solves(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        MAPS[reg][0](ANNEAL, np.full(200, 1e3), 1e-4)
    assert str(exc.value) == "shift search did not reach |sum(x) - 20| <= 1e-10"
    assert exc.value.residual > 1e-10
    assert log[0] <= 80


def _evaluations(monkeypatch, reg, temperatures):
    """Evaluations per search of ``reg`` on 50 normal draws (n = 200,
    k = 20) at each temperature, one list per temperature."""
    log = watch_shift_solves(monkeypatch)
    draws = np.random.default_rng(65).normal(size=(50, 200))
    counts = []
    for t in temperatures:
        log.clear()
        for u in draws:
            MAPS[reg][0](ANNEAL, u, float(t))
        counts.append(list(log))
    return counts


def test_capped_exponential_shift_at_low_temperature(monkeypatch):
    """The log-space step: at most 8 evaluations per search where the
    Newton step on the sum itself took up to 47."""
    for counts in _evaluations(monkeypatch, "categorical_entropy", [1e-2, 1e-3, 1e-4]):
        assert max(counts) <= 8


# The mean evaluations per search of the former search, which expanded a
# bracket over the range of z and evaluated both of its ends, on the draws
# of ``_evaluations`` along ``SCHEDULE`` (the anneal benchmark's schedule)
SCHEDULE = np.geomspace(1.0, 0.03, 6)
FORMER_MEANS = {
    "euclidean": [6.74, 6.66, 7.2, 8.06, 8.76, 9.74],
    "binary_entropy": [8.1, 8.0, 8.02, 8.1, 8.28, 8.94],
    "categorical_entropy": [8.64, 8.48, 8.74, 9.12, 9.98, 11.76],
}


@pytest.mark.parametrize("reg", REGS)
def test_shift_evaluations_along_the_anneal_schedule(reg, monkeypatch):
    means = [np.mean(counts) for counts in _evaluations(monkeypatch, reg, SCHEDULE)]
    assert np.mean(means) <= 6.0
    assert all(new < old for new, old in zip(means, FORMER_MEANS[reg]))
