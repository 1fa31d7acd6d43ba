"""Acceptance gate.

Each test enforces one numbered criterion at its stated tolerance and
runtime budget and prints a single pass/fail line (run with ``pytest -s``
to see them).  Statistical criteria run the same named suites the CLI
exposes, under fixed seeds; criteria 1-4 and 7 also compare their reports
with the ones recorded in ``tests/golden/suites_full.json``.
"""

import json
import pathlib
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import kstest

from sst import (
    StructureKind,
    StructureSpec,
    UtilityFamily,
    UtilitySpec,
    expfam_marginals,
    gibbs_marginals_bruteforce,
    hungarian_match,
    kl_to_standard,
    run_suite,
    sinkhorn_relax,
)

GLOBAL_SEED = 20240
FULL_DRAW_GOLDEN = pathlib.Path(__file__).parent / "golden" / "suites_full.json"

def _finish(num, name, passed, elapsed, budget, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name} "
          f"({elapsed:.1f}s / {budget:.0f}s budget) {detail}")
    assert passed, f"criterion {num} failed {detail}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def _suite_criterion(num, name, suite, budget, pinned=False):
    start = time.perf_counter()
    reports = run_suite(suite, GLOBAL_SEED)
    elapsed = time.perf_counter() - start
    bad = [r["check"] for r in reports if not r["passed"]]
    _finish(num, name, not bad, elapsed, budget,
            detail=f"failed checks: {bad}" if bad else f"{len(reports)} checks")
    if pinned:
        want = json.loads(FULL_DRAW_GOLDEN.read_text())[suite]
        assert json.loads(json.dumps(reports)) == want, \
            f"criterion {num}: {suite} reports differ from {FULL_DRAW_GOLDEN.name}"


def test_criterion_01_gumbel_max_law():
    """Argmax over Gumbel(theta) perturbations reproduces softmax(theta)."""
    _suite_criterion(1, "one-hot argmax law (n=5, 1e5 draws, chi-square 0.01)",
                     "gumbel-max", 5.0, pinned=True)


def test_criterion_02_arborescence_process_equivalence():
    """Contraction maximizer on -Exp(rates) utilities vs direct rate sampling."""
    _suite_criterion(2, "arborescence samplers agree (3 roots x 1e5 draws, 0.01)",
                     "arborescence", 30.0, pinned=True)


def test_criterion_03_tree_process_equivalence():
    """Kruskal on Gumbel scores vs categorical without-replacement edges."""
    _suite_criterion(3, "spanning-tree samplers agree (K4, 1e5 draws/side, 0.01)",
                     "tree", 30.0, pinned=True)


def test_criterion_04_topk_process_equivalence():
    """Top-k of Gumbel scores vs k draws without replacement."""
    _suite_criterion(4, "top-k samplers agree (n=4, k=2, 1e5 draws/side, 0.01)",
                     "topk", 10.0, pinned=True)


def test_criterion_05_matrix_tree_marginals():
    """Kirchhoff/Tutte marginals match the enumeration oracle to 1e-8."""
    _suite_criterion(5, "matrix-tree marginals vs enumeration (50 graphs, 1e-8)",
                     "matrix-tree", 5.0)


def test_criterion_06_cardinality_dp_marginals():
    """Forward-backward marginals match enumeration to 1e-8 on random draws."""
    start = time.perf_counter()
    rng = np.random.default_rng(GLOBAL_SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n - 1, 4) + 1))
        t = float(np.exp(rng.uniform(-1.5, 1.5)))
        spec = StructureSpec(StructureKind.K_SUBSETS, n=n, k=k)
        u = rng.normal(size=n)
        err = np.abs(
            expfam_marginals(spec, u, t).x - gibbs_marginals_bruteforce(spec, u, t)
        ).max()
        worst = max(worst, float(err))
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        t = float(np.exp(rng.uniform(-1.5, 1.5)))
        spec = StructureSpec(StructureKind.CORR_K_SUBSETS, n=n, k=k)
        u = rng.normal(size=2 * n - 1)
        err = np.abs(
            expfam_marginals(spec, u, t).x - gibbs_marginals_bruteforce(spec, u, t)
        ).max()
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    _finish(6, "cardinality and chain DP marginals vs enumeration",
            worst <= 1e-8, elapsed, 5.0, detail=f"worst {worst:.2e}")


def test_criterion_07_zero_temperature_limit():
    """Every supported pair reaches its argmax vertex within 1e-3 by
    halving the temperature from 1, before hitting 1e-6."""
    _suite_criterion(7, "zero-temperature limits (100 draws per pair)",
                     "limits", 60.0, pinned=True)


def test_criterion_08_gradient_validity():
    """FD vs analytic Jacobians, symmetry, and covariance identity at 1e-6."""
    _suite_criterion(8, "gradcheck (20 instances per pair, 1e-6)",
                     "gradcheck", 60.0)


def test_criterion_09_sinkhorn_reaches_hungarian():
    """At t = 0.01 the Sinkhorn point sits within 1e-3 of the maximum
    matching, for 20 random 4x4 matrices with distinct entries."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        u = 3.0 * rng.normal(size=(4, 4))
        assert np.unique(u).size == 16
        hard = hungarian_match(u).astype(float)
        x = sinkhorn_relax(u, 0.01, tol=2e-4, max_iter=30_000).x
        worst = max(worst, float(np.abs(x - hard).max()))
    elapsed = time.perf_counter() - start
    _finish(9, "sinkhorn at t=0.01 vs hungarian (20 random 4x4)",
            worst <= 1e-3, elapsed, 10.0, detail=f"worst {worst:.2e}")


def test_criterion_10_kl_closed_form():
    """Location-shift KL closed form matches adaptive quadrature to 1e-6."""
    start = time.perf_counter()
    rng = np.random.default_rng(GLOBAL_SEED)
    worst = 0.0
    for _ in range(20):
        theta = float(rng.uniform(-3.0, 3.0))

        def integrand(x, theta=theta):
            za, zb = x - theta, x
            log_fa = -za - np.exp(-za)
            log_fb = -zb - np.exp(-zb)
            return np.exp(log_fa) * (log_fa - log_fb)

        numeric, err = quad(integrand, theta - 30.0, theta + 30.0, limit=300)
        assert err < 1e-8
        closed = kl_to_standard(UtilitySpec(UtilityFamily.GUMBEL, np.array([theta])))
        worst = max(worst, abs(closed - numeric))
    elapsed = time.perf_counter() - start
    _finish(10, "gumbel location KL vs quadrature (20 thetas in [-3,3])",
            worst <= 1e-6, elapsed, 1.0, detail=f"worst {worst:.2e}")


def test_criterion_11_exponential_identities():
    """Min/argmin structure of independent exponentials: coupling with the
    location family, argmin law, min law, residual independence, argsort
    product formula; 1e5 draws each."""
    start = time.perf_counter()
    n_draws = 100_000
    lam = np.array([0.6, 1.1, 2.3])
    checks = {}

    # monotone coupling through shared base noise (exact, coordinatewise)
    from sst.utilities import sample
    rng = np.random.default_rng(GLOBAL_SEED + 1)
    big = np.tile(lam, n_draws)
    base = rng.random(3 * n_draws)
    base[base == 0.0] = 0.5
    neg_exp = sample(UtilitySpec(UtilityFamily.NEG_EXPONENTIAL, big), base).u
    gum = sample(UtilitySpec(UtilityFamily.GUMBEL, np.log(big)), base).u
    checks["coupling"] = bool(np.abs(-np.log(-neg_exp) - gum).max() <= 1e-12)

    rng = np.random.default_rng(GLOBAL_SEED + 2)
    e = rng.exponential(scale=1.0 / lam, size=(n_draws, 3))
    arg = e.argmin(axis=1)
    mn = e.min(axis=1)
    total = lam.sum()

    # argmin ~ categorical(lam / sum lam), within 3 standard errors
    p = lam / total
    freq = np.bincount(arg, minlength=3) / n_draws
    se = np.sqrt(p * (1 - p) / n_draws)
    checks["argmin law"] = bool((np.abs(freq - p) <= 3 * se).all())

    # min ~ Exponential(sum lam), KS at level 0.01
    ks_min = kstest(mn, lambda x: 1.0 - np.exp(-total * x))
    checks["min law"] = bool(ks_min.pvalue >= 0.01)

    # min value independent of the argmin index indicators
    ok = True
    for i in range(3):
        ind = (arg == i).astype(float)
        r = np.corrcoef(mn, ind)[0, 1]
        ok = ok and abs(r) <= 3.0 / np.sqrt(n_draws)
    checks["independence"] = bool(ok)

    # residuals E_i - min are Exponential(lam_i) on draws where i lost
    ok = True
    for i in range(3):
        res = e[arg != i, i] - mn[arg != i]
        ks = kstest(res, lambda x, li=lam[i]: 1.0 - np.exp(-li * x))
        ok = ok and ks.pvalue >= 0.01
    checks["residual law"] = bool(ok)

    # ascending argsort permutation frequencies match the product formula
    import itertools
    order = np.argsort(e, axis=1)
    perm_ids = order[:, 0] * 9 + order[:, 1] * 3 + order[:, 2]
    counts, probs = [], []
    for sigma in itertools.permutations(range(3)):
        pid = sigma[0] * 9 + sigma[1] * 3 + sigma[2]
        counts.append(int((perm_ids == pid).sum()))
        prob = 1.0
        rest = list(sigma)
        for i in range(3):
            prob *= lam[sigma[i]] / lam[rest].sum()
            rest = rest[1:]
        probs.append(prob)
    counts = np.array(counts)
    probs = np.array(probs)
    stat = float((((counts - n_draws * probs) ** 2) / (n_draws * probs)).sum())
    p_value = float(gammaincc(2.5, stat / 2.0))
    checks["argsort formula"] = bool(p_value >= 0.01)

    elapsed = time.perf_counter() - start
    bad = [k for k, v in checks.items() if not v]
    _finish(11, "exponential min/argmin identities (1e5 draws)", not bad, elapsed, 30.0,
            detail=f"failed: {bad}" if bad else f"{len(checks)} checks")
