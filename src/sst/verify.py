"""Statistical and exact verification harness.

Provides the brute-force Gibbs-marginal oracle, Monte Carlo frequency
tables, chi-square goodness-of-fit and two-sample homogeneity tests,
and the named verification suites exposed by the CLI.

Seeding policy: a suite seed feeds ``numpy.random.SeedSequence(seed)``
whose children are consumed in a fixed order (instance parameters
first, then noise streams), so reports are byte-stable.  Statistical
checks at level 0.01 that fail are rerun once with the noise seed
offset by ``RETRY_OFFSET``; the laws under test are exact, so a repeat
failure is treated as an implementation error.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import expit, gammaincc

from .argmax import (
    _map_chunks,
    sample_arborescence_categorical,
    sample_tree_categorical,
    sample_topk_without_replacement,
    solve_map,
)
from .errors import (InputError, SolverError, _as_floats, _require_draws, _require_finite,
                     _require_seed)
from .grad import gradcheck
from .relax import (
    _PAIRS,
    RelaxationSpec,
    _scaled,
    directed_matrix_tree_marginals,
    matrix_tree_marginals,
    relax,
    sinkhorn_relax,
    softmax_simplex,
    supported_pairs,
)
from .structures import (
    Graph,
    StructureKind,
    StructureSpec,
    _check_dim,
    default_enum_limit,
    enumerate_vertices,
    gibbs_moments,
)
from .utilities import UtilityFamily, UtilitySpec, draw_block

__all__ = [
    "FrequencyTable",
    "TestReport",
    "gibbs_marginals_bruteforce",
    "mc_frequencies",
    "chi_square_gof",
    "two_sample_equivalence",
    "ks_report",
    "run_suite",
    "SUITE_NAMES",
    "RETRY_OFFSET",
]

RETRY_OFFSET = 1_000_003

_NOT_VERTICES = "sampler output must be vectors of one length with entries 0 or 1"
_NOT_SUPPORT = "support must be integer vectors of one length"


def _support_keys(support) -> tuple:
    """``support`` (tuples, lists or the rows of an array) as a tuple of
    tuples of Python ints; raises ``InputError`` unless it is a sequence of
    integer vectors of one length.  One array conversion checks every bit:
    a per-bit ``_require_int`` costs about as much as drawing a sampler's
    table of wide rows."""
    try:
        rows = np.asarray(support)
    except ValueError as exc:  # ragged entries
        raise InputError(_NOT_SUPPORT) from exc
    if rows.ndim != 2 or (rows.size and rows.dtype.kind not in "iu"):  # ((),) reads as float
        raise InputError(_NOT_SUPPORT)
    return tuple(map(tuple, rows.tolist()))


@dataclass(frozen=True)
class FrequencyTable:
    """Counts of realized vertices over ``total >= 1`` draws; support entries
    are unique integer vectors, stored as tuples of ints."""

    support: tuple
    counts: np.ndarray
    total: int

    def __post_init__(self):
        object.__setattr__(self, "support", _support_keys(self.support))
        if len(set(self.support)) != len(self.support):
            raise InputError("support entries must be unique")
        counts = _as_floats(self.counts, "counts")
        whole = (counts >= 0) & (counts < 2.0 ** 63) & (np.floor(counts) == counts)
        if counts.shape != (len(self.support),) or not whole.all():
            raise InputError("counts must be integers in [0, 2**63), one per support entry")
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if int(self.counts.sum()) != self.total:
            raise InputError("counts must sum to total")
        if self.total < 1:
            raise InputError("total must be >= 1")

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total

    def to_dict(self) -> dict:
        return {
            "support": [list(v) for v in self.support],
            "counts": [int(c) for c in self.counts],
            "total": self.total,
        }


@dataclass(frozen=True)
class TestReport:
    statistic: float
    dof: Optional[int]
    p_value: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def gibbs_marginals_bruteforce(spec: StructureSpec, u: np.ndarray, t: float,
                               limit: Optional[int] = None) -> np.ndarray:
    """Exact marginal vector of p(x) ~ exp(u . x / t) by enumeration."""
    limit = default_enum_limit() if limit is None else limit
    return gibbs_moments(spec, _scaled(_check_dim(spec, u), t), limit)


def _tally_rows(blocks) -> tuple:
    """Distinct rows of a stream of int8 ``(rows, dim)`` blocks in
    lexicographic order, and how often each occurred (int64); an empty
    stream gives ``(None, None)``.

    A ``Counter`` counts each row by its raw bytes (a width-0 row is
    ``b""``), and the distinct rows are sorted once, at the end, by
    ``np.lexsort`` on their values: byte order would put -1 after 2.
    """
    tally, width = Counter(), None
    for rows in blocks:
        if width not in (None, rows.shape[1]):
            raise InputError(_NOT_VERTICES)
        width = rows.shape[1]
        step = max(width, 1)
        raw = rows.tobytes()
        tally.update(raw[i:i + width] for i in range(0, len(rows) * step, step))
    if width is None:
        return None, None
    support = np.frombuffer(b"".join(tally), dtype=np.int8).reshape(len(tally), width)
    counts = np.fromiter(tally.values(), dtype=np.int64, count=len(tally))
    order = np.lexsort(support.T[::-1]) if width else slice(None)
    return support[order], counts[order]


# Sampler outputs stacked per tally chunk in ``mc_frequencies``.
_TALLY_ROWS = 1 << 12


def _table(support, counts, draws: int, given: Optional[Sequence] = None) -> FrequencyTable:
    """A ``FrequencyTable`` from ``_tally_rows``' output, aligned to ``given`` if set."""
    if given is None:
        return FrequencyTable(support=support, counts=counts, total=draws)
    keys = _support_keys(given)
    found = dict(zip(_support_keys(support), counts.tolist()))
    unknown = set(found) - set(keys)
    if unknown:
        raise InputError(
            f"sampler produced vertices outside the given support: {sorted(unknown)[:3]}"
        )
    counts = np.array([found.get(k, 0) for k in keys], dtype=np.int64)
    return FrequencyTable(support=keys, counts=counts, total=draws)


def mc_frequencies(sampler: Callable[[np.random.Generator], np.ndarray],
                   draws: int, seed: int,
                   support: Optional[Sequence] = None) -> FrequencyTable:
    """Tally ``draws`` calls of ``sampler(rng)`` under a fresh seeded stream.

    The sampler returns vectors of one length with entries 0 or 1; they
    are stacked ``_TALLY_ROWS`` at a time, checked by ``_vertex_rows`` and
    tallied by ``_tally_rows``.  With
    ``support`` given, the table is aligned to it (zero counts kept)
    and draws outside it are an error; otherwise the realized support is
    used, sorted lexicographically.
    """
    _require_draws(draws)
    rng = np.random.default_rng(_require_seed(seed))
    blocks = (
        _vertex_rows([sampler(rng) for _ in range(min(_TALLY_ROWS, draws - start))])
        for start in range(0, draws, _TALLY_ROWS)
    )
    return _table(*_tally_rows(blocks), draws, support)


def _vertex_rows(outputs: list) -> np.ndarray:
    """Sampler outputs as an int8 ``(rows, dim)`` block; raises ``InputError``
    unless they are vectors of one length with entries 0 or 1."""
    try:
        rows = np.asarray(outputs)
    except (TypeError, ValueError):  # ragged rows; _as_floats names them
        rows = None
    if rows is None or rows.dtype != np.int8:
        rows = _as_floats(outputs, "sampler output")
        rows = np.where((rows == 0) | (rows == 1), rows, 2).astype(np.int8)  # 2: neither
    if rows.ndim != 2 or rows.view(np.uint8).max(initial=0) > 1:  # -1 reads as 255
        raise InputError(_NOT_VERTICES)
    return rows


def chi_square_gof(table: FrequencyTable, expected: np.ndarray,
                   level: float = 0.01) -> TestReport:
    """Pearson goodness-of-fit against cell probabilities ``expected``."""
    expected = _as_floats(expected, "expected probabilities")
    if expected.shape != (len(table.support),):
        raise InputError("expected probabilities must align with the table support")
    if not (expected > 0).all():
        raise InputError("expected probabilities must be strictly positive on the support")
    if abs(expected.sum() - 1.0) > 1e-9:
        raise InputError("expected probabilities must sum to 1")
    exp_counts = table.total * expected
    if exp_counts.min() < 5.0:
        raise InputError(
            f"minimum expected count {exp_counts.min():.2f} < 5; increase draws"
        )
    return _pearson([(table.counts, exp_counts)], level)


def two_sample_equivalence(table_a: FrequencyTable, table_b: FrequencyTable,
                           level: float = 0.01) -> TestReport:
    """Chi-square homogeneity test that two samplers share one law.

    When some cell's pooled expected count falls below 5 in either sample,
    the sparse cells are merged into one cell, together with the next
    sparsest cells while the merged cell still expects fewer than 5, and
    the degrees of freedom drop to match.  The test refuses to run when
    only the whole table reaches 5.
    """
    keys = sorted(set(table_a.support) | set(table_b.support))
    idx_a = dict(zip(table_a.support, table_a.counts))
    idx_b = dict(zip(table_b.support, table_b.counts))
    ca = np.array([idx_a.get(k, 0) for k in keys], dtype=float)
    cb = np.array([idx_b.get(k, 0) for k in keys], dtype=float)
    na, nb = table_a.total, table_b.total

    def expected(ca, cb):
        pooled = (ca + cb) / (na + nb)
        return na * pooled, nb * pooled

    ea, eb = expected(ca, cb)
    low = np.minimum(ea, eb)
    if low.min() < 5.0:
        order = np.argsort(low, kind="stable")
        take = int((low < 5.0).sum())
        while take < len(order) and min(ea[order[:take]].sum(), eb[order[:take]].sum()) < 5.0:
            take += 1
        if take == len(order):  # only the whole table reaches 5
            raise InputError(f"minimum pooled expected count {low.min():.2f} < 5; increase draws")
        merged, rest = order[:take], np.sort(order[take:])
        ca = np.r_[ca[rest], ca[merged].sum()]
        cb = np.r_[cb[rest], cb[merged].sum()]
        ea, eb = expected(ca, cb)
    return _pearson([(ca, ea), (cb, eb)], level)


def _pearson(samples: list, level: float) -> TestReport:
    """Pearson's chi-square test over ``(observed, expected)`` count vectors
    of one set of cells: the statistic summed per sample, one degree of
    freedom fewer than cells."""
    stat = float(sum((((obs - exp) ** 2) / exp).sum() for obs, exp in samples))
    dof = len(samples[0][0]) - 1
    p = float(gammaincc(dof / 2.0, stat / 2.0))
    return TestReport(statistic=stat, dof=dof, p_value=p, passed=bool(p >= level))


def ks_report(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray],
              level: float = 0.01) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against a continuous cdf."""
    # scipy.stats takes about half a second to import; only this test needs it
    from scipy.stats import kstest

    samples = _as_floats(samples, "samples")
    _require_finite(samples, "samples")
    if samples.size == 0:
        raise InputError("samples must not be empty")
    res = kstest(samples, cdf)
    return TestReport(
        statistic=float(res.statistic), dof=None,
        p_value=float(res.pvalue), passed=bool(res.pvalue >= level),
    )


# --- named suites ------------------------------------------------------------

def _complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def _complete_digraph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(n) if i != j),
                 directed=True)


def _report(name, ok, **extra) -> dict:
    out = {"check": name, "passed": bool(ok)}
    out.update(extra)
    return out


def _with_retry(name: str, run: Callable[[int], tuple], seed: int, draws: int) -> dict:
    """Report ``run(seed)``, which returns ``(passed, fields)``, once
    ``draws`` passes its gate; a failed first attempt is rerun once at
    ``seed + RETRY_OFFSET`` and the report marked ``retried``."""
    _require_draws(draws)
    passed, fields = run(seed)
    if not passed:
        passed, fields = run(seed + RETRY_OFFSET)
        fields["retried"] = True
    return _report(name, passed, **fields, draws=draws)


def _map_law(name: str, spec: StructureSpec, noise: Callable, seed: int, draws: int,
             law) -> dict:
    """Report whether the MAP vertices of ``draws`` utility rows follow a
    reference law, retried as in ``_with_retry``.

    Under a noise seed ``s``, ``noise(rng, rows)`` returns the next
    ``(rows, dim)`` block of ``default_rng(s)``, called in bounded chunks.
    ``law`` is either the exact probabilities of ``enumerate_vertices(spec)``
    (a chi-square test) or a sampler of the categorical process, called
    ``draws`` times under seed ``s + 1`` (a two-sample test).
    """

    def run(noise_seed):
        rng = np.random.default_rng(noise_seed)
        tally = _tally_rows(_map_chunks(spec, lambda rows: noise(rng, rows), draws))
        if callable(law):
            rep = two_sample_equivalence(_table(*tally, draws),
                                         mc_frequencies(law, draws, noise_seed + 1))
        else:
            rep = chi_square_gof(_table(*tally, draws, enumerate_vertices(spec)), law)
        return rep.passed, {"statistic": rep.statistic, "dof": rep.dof, "p_value": rep.p_value}

    return _with_retry(name, run, seed, draws)


def suite_gumbel_max(seed: int, draws: int = 100_000) -> list:
    """Argmax of Gumbel-perturbed scores follows the softmax law."""
    ss = np.random.SeedSequence(seed).spawn(2)
    theta = np.random.default_rng(ss[0]).uniform(-1.0, 1.0, 5)
    spec = StructureSpec(StructureKind.ONE_HOT, n=5)
    uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
    expected = np.array([softmax_simplex(theta, 1.0).x @ v for v in enumerate_vertices(spec)])
    return [_map_law("one_hot argmax matches softmax law", spec,
                     lambda rng, rows: draw_block(uspec, rng, rows).u,
                     ss[1].generate_state(1)[0], draws, expected)]


def suite_subsets(seed: int, draws: int = 100_000) -> list:
    """Thresholded logistic utilities give coordinatewise Bernoulli(sigmoid)."""
    ss = np.random.SeedSequence(seed).spawn(2)
    n = 6
    theta = np.random.default_rng(ss[0]).uniform(-2.0, 2.0, n)
    spec = StructureSpec(StructureKind.SUBSETS, n=n)
    uspec = UtilitySpec(UtilityFamily.LOGISTIC, theta)
    target = expit(theta)

    def run(noise_seed):
        rng = np.random.default_rng(noise_seed)
        blocks = _map_chunks(spec, lambda rows: draw_block(uspec, rng, rows).u, draws)
        hits = sum(block.sum(axis=0, dtype=np.int64) for block in blocks)
        freq = hits / draws
        se = np.sqrt(target * (1.0 - target) / draws)
        z = float((np.abs(freq - target) / se).max())
        return z <= 3.0, {"max_z_score": z}

    return [_with_retry("subset coordinate frequencies match sigmoid(theta)", run,
                        ss[1].generate_state(1)[0], draws)]


def suite_topk(seed: int, draws: int = 100_000) -> list:
    """Top-k of Gumbel scores equals k sequential draws without replacement."""
    ss = np.random.SeedSequence(seed).spawn(3)
    n, k = 4, 2
    theta = np.random.default_rng(ss[0]).uniform(-1.0, 1.0, n)
    uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
    return [_map_law(
        "top-k on gumbel scores matches without-replacement sampling",
        StructureSpec(StructureKind.K_SUBSETS, n=n, k=k),
        lambda rng, rows: draw_block(uspec, rng, rows).u, ss[1].generate_state(1)[0], draws,
        lambda rng: sample_topk_without_replacement(theta, k, rng),
    )]


def suite_tree(seed: int, draws: int = 100_000) -> list:
    """Max tree under Gumbel scores equals the categorical edge process."""
    ss = np.random.SeedSequence(seed).spawn(3)
    graph = _complete_graph(4)
    theta = np.random.default_rng(ss[0]).uniform(-1.0, 1.0, graph.num_edges)
    uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
    return [_map_law(
        "kruskal on gumbel scores matches categorical tree process",
        StructureSpec(StructureKind.SPANNING_TREE, graph=graph),
        lambda rng, rows: draw_block(uspec, rng, rows).u, ss[1].generate_state(1)[0], draws,
        lambda rng: sample_tree_categorical(graph, theta, rng),
    )]


def suite_arborescence(seed: int, draws: int = 100_000) -> list:
    """Max arborescence on negated exponential utilities equals rate sampling.

    Run once per root of the 3-node complete digraph, so the union of
    the tested supports covers all nine of its arborescences.
    """
    ss = np.random.SeedSequence(seed).spawn(3)
    graph = _complete_digraph(3)
    theta = np.random.default_rng(ss[0]).uniform(-1.0, 1.0, graph.num_edges)
    lam = np.exp(theta)
    # a (rows, m) block holds the bytes of rows sequential size-m draws
    return [_map_law(
        f"max arborescence on -Exp(rates) matches rate sampling (root {root})",
        StructureSpec(StructureKind.ARBORESCENCE, graph=graph, root=root),
        lambda rng, rows: -rng.exponential(scale=1.0 / lam, size=(rows, lam.size)),
        ss[1].generate_state(1)[0] + 7 * root, draws,
        lambda rng: sample_arborescence_categorical(graph, root, lam, rng),
    ) for root in range(3)]


def _random_connected_graph(rng: np.random.Generator) -> tuple:
    """A random connected graph on 2 to 5 nodes, and no root."""
    while True:
        n = int(rng.integers(2, 6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
        g = Graph(n, tuple(edges))
        if g.is_connected():
            return g, None


def _random_rooted_digraph(rng: np.random.Generator) -> tuple:
    """A random digraph on 2 to 5 nodes, and a root that reaches every node."""
    while True:
        n = int(rng.integers(2, 6))
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.6]
        root = int(rng.integers(n))
        if not edges:
            continue
        g = Graph(n, tuple(edges), directed=True)
        if g.reachable_from(root) == set(range(n)):
            return g, root


def suite_matrix_tree(seed: int) -> list:
    """Reduced-Laplacian marginals match the enumeration oracle to 1e-8 on 25
    random connected graphs and 25 random rooted digraphs."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    out = []
    k3 = _complete_graph(3)
    x = matrix_tree_marginals(k3, np.zeros(3)).x
    out.append(_report(
        "triangle with flat scores has marginal 2/3 per edge",
        bool(np.abs(x - 2.0 / 3.0).max() <= 1e-12),
        max_error=float(np.abs(x - 2.0 / 3.0).max()),
    ))
    cases = (
        ("undirected", StructureKind.SPANNING_TREE, _random_connected_graph,
         lambda g, root, u: matrix_tree_marginals(g, u, 1.0)),
        ("directed", StructureKind.ARBORESCENCE, _random_rooted_digraph,
         lambda g, root, u: directed_matrix_tree_marginals(g, root, u, 1.0)),
    )
    for label, kind, draw_graph, solve in cases:
        worst = 0.0
        for _ in range(25):
            g, root = draw_graph(rng)
            u = rng.normal(size=g.num_edges)
            want = gibbs_marginals_bruteforce(StructureSpec(kind, graph=g, root=root), u, 1.0)
            worst = max(worst, float(np.abs(solve(g, root, u).x - want).max()))
        out.append(_report(f"{label} marginals match enumeration", worst <= 1e-8,
                           max_error=worst, instances=25))
    return out


def _pair_instances(n: int) -> list:
    """One small instance per supported (kind, regularizer) pair.

    One-hot, subsets and correlated k-subsets take ``n`` elements and
    spanning trees the complete graph on ``n - 1`` nodes; the other kinds
    are fixed.
    """
    specs = {
        StructureKind.ONE_HOT: StructureSpec(StructureKind.ONE_HOT, n=n),
        StructureKind.SUBSETS: StructureSpec(StructureKind.SUBSETS, n=n),
        StructureKind.K_SUBSETS: StructureSpec(StructureKind.K_SUBSETS, n=5, k=2),
        StructureKind.CORR_K_SUBSETS: StructureSpec(StructureKind.CORR_K_SUBSETS, n=n, k=2),
        StructureKind.MATCHING: StructureSpec(StructureKind.MATCHING, n=3),
        StructureKind.SPANNING_TREE: StructureSpec(StructureKind.SPANNING_TREE,
                                                   graph=_complete_graph(n - 1)),
        StructureKind.ARBORESCENCE: StructureSpec(StructureKind.ARBORESCENCE,
                                                  graph=_complete_digraph(3), root=0),
    }
    return [(specs[kind], reg) for kind, reg in supported_pairs()]


def suite_limits(seed: int) -> list:
    """Halving the temperature from 1 drives every relaxation within 1e-3 of
    the argmax vertex, on 100 draws per pair, before it falls below 1e-6.

    The Sinkhorn solve runs at a looser tolerance with duals warmed
    along the temperature schedule: near the permutation limit its
    residual decays like 1/iterations, and the pass condition is
    checked on the computed point either way.
    """
    ss = np.random.SeedSequence(seed)
    out = []
    for (spec, reg), child in zip(_pair_instances(5), ss.spawn(64)):
        rng = np.random.default_rng(child)
        sinkhorn_pair = _PAIRS[spec.kind, reg] == "sinkhorn"
        worst_t = 1.0
        ok = True
        for _ in range(100):
            u = rng.normal(size=spec.dim)
            hard = solve_map(spec, u).vertex.astype(float)
            t = 1.0
            warm = None
            while True:
                try:
                    if sinkhorn_pair:
                        point = sinkhorn_relax(
                            u.reshape(spec.n, spec.n), t,
                            tol=5e-4, max_iter=100_000, warm_start=warm,
                        )
                        warm = point.dual
                    else:
                        rspec = RelaxationSpec(reg, temperature=t, tol=1e-8,
                                               max_iter=400_000)
                        point = relax(spec, rspec, u)
                except SolverError:
                    ok = False
                    break
                if np.abs(point.x - hard).max() <= 1e-3:
                    worst_t = min(worst_t, t)
                    break
                t *= 0.5
                if t < 1e-6:
                    ok = False
                    break
            if not ok:
                break
        out.append(_report(
            f"zero-temperature limit: {spec.kind.value} / {reg.value}",
            ok, smallest_t=worst_t, draws=100,
        ))
    return out


def suite_gradcheck(seed: int) -> list:
    """Finite differences agree with exact Jacobians to 1e-6, and Jacobians
    are symmetric, on 20 draws per pair."""
    ss = np.random.SeedSequence(seed)
    out = []
    for (spec, reg), child in zip(_pair_instances(4), ss.spawn(64)):
        rng = np.random.default_rng(child)
        rspec = RelaxationSpec(reg, temperature=1.0, tol=1e-12, max_iter=20_000)
        worst_sym = worst_disc = worst_cov = 0.0
        ok = True
        for _ in range(20):
            u = rng.normal(size=spec.dim)
            rep = gradcheck(spec, rspec, u)
            worst_sym = max(worst_sym, rep.symmetry_defect)
            if rep.max_discrepancy is not None:
                worst_disc = max(worst_disc, rep.max_discrepancy)
            if rep.covariance_discrepancy is not None:
                worst_cov = max(worst_cov, rep.covariance_discrepancy)
            ok = ok and rep.passed
        out.append(_report(
            f"gradcheck: {spec.kind.value} / {reg.value}", ok,
            symmetry_defect=worst_sym, max_discrepancy=worst_disc,
            covariance_discrepancy=worst_cov, instances=20,
        ))
    return out


_SUITES = {
    "gumbel-max": suite_gumbel_max,
    "subsets": suite_subsets,
    "topk": suite_topk,
    "tree": suite_tree,
    "arborescence": suite_arborescence,
    "matrix-tree": suite_matrix_tree,
    "limits": suite_limits,
    "gradcheck": suite_gradcheck,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, **kwargs) -> list:
    """Run one named suite; returns a list of JSON-ready report dicts."""
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = _SUITES[name]
    unknown = set(kwargs) - set(list(inspect.signature(suite).parameters)[1:])
    if unknown:
        raise InputError(f"suite {name!r} does not take {', '.join(sorted(unknown))}")
    reports = suite(_require_seed(seed), **kwargs)
    for rep in reports:
        rep["suite"] = name
    return reports
