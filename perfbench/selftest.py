"""Check the benchmark's oracles against brute-force enumeration.

    python3 perfbench/selftest.py

Each oracle in ``oracles.py`` is compared on tiny instances with an
answer got by listing every vertex, so that a wrong oracle cannot pass a
wrong program.  Imports neither ``sst`` nor anything of the package.
Exits with code 1 and names the failing checks if any fails.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np
from scipy.stats import chisquare

import oracles as orc

FAILURES = []
COUNT = [0]


def check(ok, what):
    COUNT[0] += 1
    if not ok:
        FAILURES.append(what)


# --- brute-force vertex lists ---------------------------------------------------


def k_subsets(n, k):
    for sel in itertools.combinations(range(n), k):
        v = np.zeros(n)
        v[list(sel)] = 1
        yield v


def chain_vertices(n, k):
    for v in k_subsets(n, k):
        yield np.concatenate([v, v[:-1] * v[1:]])


def matchings(n):
    for perm in itertools.permutations(range(n)):
        v = np.zeros((n, n))
        v[range(n), perm] = 1
        yield v.reshape(-1)


def spanning_trees(edges, n):
    for sel in itertools.combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        ok = True
        for e in sel:
            a, b = find(edges[e][0]), find(edges[e][1])
            if a == b:
                ok = False
                break
            parent[a] = b
        if ok:
            v = np.zeros(len(edges))
            v[list(sel)] = 1
            yield v


def arborescences(edges, n, root):
    into = [[e for e, (_, j) in enumerate(edges) if j == v] for v in range(n)]
    for pick in itertools.product(*[into[v] for v in range(n) if v != root]):
        parent = {edges[e][1]: edges[e][0] for e in pick}
        ok = True
        for v in parent:
            seen = set()
            while v != root and ok:
                if v in seen:
                    ok = False
                seen.add(v)
                v = parent[v]
        if ok:
            v = np.zeros(len(edges))
            v[list(pick)] = 1
            yield v


def gibbs(verts, u, t=1.0):
    """Mean and covariance of the vertex law p(x) ~ exp(u.x / t)."""
    verts = np.array(list(verts))
    logw = verts @ u / t
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = verts.T @ w
    return mean, (verts * w[:, None]).T @ verts - np.outer(mean, mean)


def best(verts, u):
    verts = np.array(list(verts))
    return verts[int(np.argmax(verts @ u))]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_arcs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


# --- checks ---------------------------------------------------------------------


class StubRng:
    """A generator whose first draw holds an exact zero."""

    def __init__(self):
        self.calls = []

    def random(self, size):
        self.calls.append(size)
        if len(self.calls) == 1:
            return np.array([0.25, 0.0, 0.5])
        return np.full(size, 0.75)


def check_stream_and_transforms():
    rng = np.random.default_rng(11)
    block = np.random.default_rng(11).random((40, 7))
    check(np.array_equal(np.stack(orc.replay_base(rng, 7, 40)), block),
          "replay: 40 draws of 7 differ from one (40, 7) block")
    stub = StubRng()
    got = orc.replay_base(stub, 3, 2)
    check(stub.calls == [3, 1, 3] and np.array_equal(got[0], [0.25, 0.75, 0.5]),
          f"replay: exact zero not redrawn in place ({stub.calls})")
    b = np.random.default_rng(3).random(1000)
    theta = np.random.default_rng(4).uniform(-1, 1, 1000)
    # each transform inverts its family's cdf at the base noise
    u = orc.transform("gumbel", theta, b)
    check(np.allclose(np.exp(-np.exp(-(u - theta))), b, atol=1e-12), "gumbel transform")
    lam = np.exp(theta)
    u = orc.transform("neg_exponential", lam, b)
    check(np.allclose(np.exp(lam * u), b, atol=1e-12) and (u < 0).all(), "neg_exponential transform")


def check_maximizers(rng):
    for _ in range(30):
        u = rng.normal(size=6)
        check(np.array_equal(orc.argmax_one_hot(u), best(np.eye(6), u)), "one-hot argmax")
        check(np.array_equal(orc.argmax_k_subset(u, 3), best(k_subsets(6, 3), u)), "k-subset argmax")
        u = rng.normal(size=2 * 6 - 1)
        for k in (1, 2, 3, 5):
            check(np.array_equal(orc.argmax_chain(u, 6, k), best(chain_vertices(6, k), u)),
                  f"chain argmax k={k}")
        u = rng.normal(size=16)
        check(np.array_equal(orc.argmax_matching(u, 4), best(matchings(4), u)), "matching argmax")
        edges = complete_edges(5)
        u = rng.normal(size=len(edges))
        check(np.array_equal(orc.argmax_tree(edges, 5, u), best(spanning_trees(edges, 5), u)),
              "spanning-tree argmax")
        arcs = complete_arcs(4)
        u = -rng.exponential(size=len(arcs))
        for root in (0, 2):
            check(np.array_equal(orc.argmax_arborescence(arcs, 4, root, u),
                                 best(arborescences(arcs, 4, root), u)),
                  f"arborescence argmax root={root}")


def check_counts():
    edges = complete_edges(5)
    rows = np.array([np.zeros(len(edges))] + [
        np.eye(len(edges))[list(s)].sum(0) for s in itertools.combinations(range(len(edges)), 4)])
    trees = {tuple(v) for v in spanning_trees(edges, 5)}
    want = np.array([1.0 if tuple(r) in trees else 0.0 for r in rows])
    check(np.allclose(orc.spanning_tree_counts(edges, 5, rows), want, atol=1e-9),
          "spanning_tree_counts on every 4-edge subset of K5")
    arcs = complete_arcs(4)
    into = [[e for e, (_, j) in enumerate(arcs) if j == v] for v in range(4)]
    rows = [np.eye(len(arcs))[list(p)].sum(0) for p in itertools.product(*into[1:])]
    arbs = {tuple(v) for v in arborescences(arcs, 4, 0)}
    want = np.array([1.0 if tuple(r) in arbs else 0.0 for r in rows])
    check(np.allclose(orc.spanning_tree_counts(arcs, 4, np.array(rows), 0), want, atol=1e-9),
          "spanning_tree_counts on every parent choice of the 4-node digraph")


def check_marginals(rng):
    for t in (1.0, 0.5):
        for n in (4, 5):
            edges = complete_edges(n)
            u = rng.normal(size=len(edges))
            mean, cov = gibbs(spanning_trees(edges, n), u, t)
            mu = orc.kirchhoff_marginals(edges, n, u, t)[0]
            check(np.abs(mu - mean).max() <= 1e-10, f"Kirchhoff marginals K{n} t={t}")
            tc = orc.transfer_current_covariance(edges, n, u, t)
            check(np.abs(tc - cov).max() <= 1e-10, f"transfer-current covariance K{n} t={t}")
        # a sparse graph: a 5-cycle with one chord
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        u = rng.normal(size=len(edges))
        mean, cov = gibbs(spanning_trees(edges, 5), u, t)
        check(np.abs(orc.kirchhoff_marginals(edges, 5, u, t)[0] - mean).max() <= 1e-10,
              "Kirchhoff marginals, sparse graph")
        check(np.abs(orc.transfer_current_covariance(edges, 5, u, t) - cov).max() <= 1e-10,
              "transfer-current covariance, sparse graph")
        arcs = complete_arcs(4)
        u = rng.normal(size=len(arcs))
        for root in (0, 3):
            mean, _ = gibbs(arborescences(arcs, 4, root), u, t)
            check(np.abs(orc.tutte_marginals(arcs, 4, root, u, t) - mean).max() <= 1e-10,
                  f"Tutte marginals root={root} t={t}")
        z = rng.normal(size=7) * 3
        for k in (1, 3, 6):
            mean, _ = gibbs(k_subsets(7, k), z)
            check(np.abs(orc.k_subset_marginals(z, k) - mean).max() <= 1e-10,
                  f"k-subset marginals k={k}")
        z = rng.normal(size=2 * 7 - 1) * 2
        for k in (1, 2, 4, 6):
            mean, _ = gibbs(chain_vertices(7, k), z)
            check(np.abs(orc.chain_marginals(z, 7, k) - mean).max() <= 1e-10,
                  f"chain marginals k={k}")


def check_statistics(rng):
    probs = orc.softmax(rng.normal(size=6))
    counts = rng.multinomial(5000, probs)
    p, stat = orc.chi_square_p(counts, probs)
    ref = chisquare(counts, counts.sum() * probs)
    check(abs(stat - ref.statistic) <= 1e-9 and abs(p - ref.pvalue) <= 1e-9, "chi-square p-value")
    z = orc.max_z_two_sample(np.array([30, 0]), 100, np.array([20, 0]), 100)
    want = 0.1 / np.sqrt(0.25 * 0.75 * 0.02)
    check(abs(z - want) <= 1e-12, "two-sample z")


def main():
    rng = np.random.default_rng(20240)
    check_stream_and_transforms()
    check_maximizers(rng)
    check_counts()
    check_marginals(rng)
    check_statistics(rng)
    for what in FAILURES:
        print(f"FAIL {what}")
    print(f"{COUNT[0] - len(FAILURES)} of {COUNT[0]} oracle checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
