"""Reference computations the benchmark checks ``sst`` against.

Nothing here imports ``sst``: each oracle is written from the
mathematics (or from numpy, scipy and networkx) so that a fault in the
package cannot be copied into its own check.  ``selftest.py`` checks the
oracles against brute-force enumeration on tiny instances.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc, logsumexp

# --- seed stream and noise transforms ---------------------------------------


def replay_base(rng, dim: int, draws: int) -> list:
    """Base noise of ``draws`` sequential draws from ``rng`` (``default_rng(seed)``).

    The documented stream: one ``random(dim)`` per draw, exact zeros
    redrawn in place until none is left.
    """
    out = []
    for _ in range(draws):
        b = rng.random(dim)
        zero = b == 0.0
        while zero.any():
            b[zero] = rng.random(int(zero.sum()))
            zero = b == 0.0
        out.append(b)
    return out


def transform(family: str, theta: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Utilities from base noise ``b`` (one draw, shape ``(dim,)``), for the
    two families the workloads draw from."""
    if family == "gumbel":
        return theta - np.log(-np.log(b))
    if family == "neg_exponential":
        return np.log(b) / theta
    raise ValueError(f"unknown family {family!r}")


# --- maximizers ---------------------------------------------------------------


def argmax_one_hot(u):
    bits = np.zeros(u.shape[0], dtype=np.int8)
    bits[int(np.argmax(u))] = 1
    return bits


def argmax_k_subset(u, k):
    bits = np.zeros(u.shape[0], dtype=np.int8)
    bits[np.argsort(-u, kind="stable")[:k]] = 1
    return bits


def argmax_matching(u, n):
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(u.reshape(n, n), maximize=True)
    bits = np.zeros(n * n, dtype=np.int8)
    bits[rows * n + cols] = 1
    return bits


def argmax_tree(edges, num_nodes, u):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(num_nodes))
    index = {}
    for e, (i, j) in enumerate(edges):
        g.add_edge(i, j, weight=float(u[e]))
        index[(min(i, j), max(i, j))] = e
    bits = np.zeros(len(edges), dtype=np.int8)
    for i, j in nx.maximum_spanning_tree(g, algorithm="kruskal").edges():
        bits[index[(min(i, j), max(i, j))]] = 1
    return bits


def argmax_arborescence(edges, num_nodes, root, u):
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(num_nodes))
    index = {}
    for e, (i, j) in enumerate(edges):
        if j != root:  # no edge enters the root, so every spanning arborescence is rooted there
            g.add_edge(i, j, weight=float(u[e]))
            index[(i, j)] = e
    bits = np.zeros(len(edges), dtype=np.int8)
    for i, j in nx.maximum_spanning_arborescence(g).edges():
        bits[index[(i, j)]] = 1
    return bits


def argmax_chain(u, n, k):
    """MAP of the cardinality-k chain: node scores ``u[:n]``, pair scores ``u[n:]``.

    ``best[s, c]``: best score of a prefix ending in state ``s`` with ``c``
    elements chosen.
    """
    phi, psi = u[:n], u[n:]
    neg = -np.inf
    best = np.full((2, k + 1), neg)
    best[0, 0] = 0.0
    best[1, 1] = phi[0]
    back = np.zeros((n, 2, k + 1), dtype=np.int8)
    for i in range(1, n):
        new = np.full((2, k + 1), neg)
        new[0] = np.maximum(best[0], best[1])
        back[i, 0] = best[1] > best[0]
        from0 = best[0, :-1] + phi[i]
        from1 = best[1, :-1] + phi[i] + psi[i - 1]
        new[1, 1:] = np.maximum(from0, from1)
        back[i, 1, 1:] = from1 > from0
        best = new
    s = int(best[1, k] > best[0, k])
    bits = np.zeros(2 * n - 1, dtype=np.int8)
    c = k
    for i in range(n - 1, -1, -1):
        bits[i] = s
        prev = int(back[i, s, c])
        c -= s
        s = prev
    bits[n:] = bits[: n - 1] * bits[1:n]
    return bits


def spanning_tree_counts(edges, num_nodes, rows, root=None):
    """Spanning trees (or, with ``root``, arborescences rooted there) of each
    row's edge subset, by the matrix-tree theorem on unit weights."""
    lap_of_edge = np.zeros((len(edges), num_nodes, num_nodes))
    for e, (i, j) in enumerate(edges):
        if root is None:
            lap_of_edge[e, i, i] += 1
            lap_of_edge[e, i, j] -= 1
            lap_of_edge[e, j, i] -= 1
        lap_of_edge[e, j, j] += 1
        if root is not None:
            lap_of_edge[e, i, j] -= 1
    lap = np.einsum("re,eab->rab", np.asarray(rows, dtype=float), lap_of_edge)
    keep = [v for v in range(num_nodes) if v != (0 if root is None else root)]
    return np.linalg.det(lap[:, keep][:, :, keep])


# --- exponential-family marginals -------------------------------------------


def kirchhoff_marginals(edges, num_nodes, theta, t=1.0):
    """Spanning-tree edge marginals ``w_e * R_eff(e)`` from the grounded inverse Laplacian."""
    z = np.asarray(theta, dtype=float) / t
    w = np.exp(z - z.max())
    lap = np.zeros((num_nodes, num_nodes))
    for e, (i, j) in enumerate(edges):
        lap[i, i] += w[e]
        lap[j, j] += w[e]
        lap[i, j] -= w[e]
        lap[j, i] -= w[e]
    g = np.zeros((num_nodes, num_nodes))
    g[1:, 1:] = np.linalg.inv(lap[1:, 1:])  # node 0 grounded
    ii = np.array([e[0] for e in edges])
    jj = np.array([e[1] for e in edges])
    b_g_b = g[ii, ii] + g[jj, jj] - g[ii, jj] - g[jj, ii]
    return w * b_g_b, w, g


def transfer_current_covariance(edges, num_nodes, theta, t=1.0):
    """Covariance of the edge indicators of the weighted spanning-tree law.

    ``Y[e, f] = sqrt(w_e w_f) b_e^T G b_f`` is the transfer-current matrix;
    the covariance is ``diag(mu) - Y * Y`` (Burton-Pemantle).
    """
    mu, w, g = kirchhoff_marginals(edges, num_nodes, theta, t)
    ii = np.array([e[0] for e in edges])
    jj = np.array([e[1] for e in edges])
    bgb = g[np.ix_(ii, ii)] - g[np.ix_(ii, jj)] - g[np.ix_(jj, ii)] + g[np.ix_(jj, jj)]
    y = np.sqrt(np.outer(w, w)) * bgb
    return np.diag(mu) - y * y


def tutte_marginals(edges, num_nodes, root, theta, t=1.0):
    """Arborescence edge marginals from the inverse of the root-deleted in-Laplacian."""
    z = np.asarray(theta, dtype=float) / t
    w = np.exp(z - z.max())
    lap = np.zeros((num_nodes, num_nodes))
    for e, (i, j) in enumerate(edges):
        if j == root:
            continue
        lap[j, j] += w[e]
        lap[i, j] -= w[e]
    keep = [v for v in range(num_nodes) if v != root]
    inv = np.zeros((num_nodes, num_nodes))
    inv[np.ix_(keep, keep)] = np.linalg.inv(lap[np.ix_(keep, keep)])
    mu = np.zeros(len(edges))
    for e, (i, j) in enumerate(edges):
        if j == root:
            continue
        mu[e] = w[e] * (inv[j, j] - (inv[j, i] if i != root else 0.0))
    return mu


def k_subset_marginals(z, k):
    """Inclusion marginals of p(S) ~ exp(sum z_S) over |S| = k.

    ``fwd[i, c]`` is log e_c(z_0..z_{i-1}) and ``bwd[i, c]`` log e_c(z_i..z_{n-1}),
    the elementary symmetric polynomials of prefix and suffix weights.
    """
    n = z.shape[0]
    fwd = np.full((n + 1, k + 1), -np.inf)
    fwd[0, 0] = 0.0
    for i in range(n):
        fwd[i + 1] = fwd[i]
        fwd[i + 1, 1:] = np.logaddexp(fwd[i, 1:], fwd[i, :-1] + z[i])
    bwd = np.full((n + 1, k + 1), -np.inf)
    bwd[n, 0] = 0.0
    for i in range(n - 1, -1, -1):
        bwd[i] = bwd[i + 1]
        bwd[i, 1:] = np.logaddexp(bwd[i + 1, 1:], bwd[i + 1, :-1] + z[i])
    c = np.arange(k)
    # element i plus c others before it plus k - 1 - c after it
    pair = fwd[:n, c] + bwd[1:, k - 1 - c]
    return np.exp(z + logsumexp(pair, axis=1) - fwd[n, k])


def chain_marginals(z, n, k):
    """Unary and adjacent-pair marginals of the cardinality-k chain law.

    ``a[i, s, c]``: log-weight of prefixes 0..i with element i in state
    ``s`` and ``c`` chosen; ``b[i, s, c]``: log-weight of suffixes i+1..
    given state ``s`` at ``i`` and ``c`` chosen among them.
    """
    phi, psi = z[:n], z[n:]
    a = np.full((n, 2, k + 1), -np.inf)
    a[0, 0, 0] = 0.0
    a[0, 1, 1] = phi[0]
    for i in range(1, n):
        a[i, 0] = np.logaddexp(a[i - 1, 0], a[i - 1, 1])
        a[i, 1, 1:] = np.logaddexp(a[i - 1, 0, :-1], a[i - 1, 1, :-1] + psi[i - 1]) + phi[i]
    b = np.full((n, 2, k + 1), -np.inf)
    b[n - 1, :, 0] = 0.0
    for i in range(n - 2, -1, -1):
        off = b[i + 1, 0]
        on = np.full(k + 1, -np.inf)
        on[1:] = b[i + 1, 1, :-1] + phi[i + 1]
        b[i, 0] = np.logaddexp(off, on)
        on1 = on.copy()
        on1[1:] += psi[i]
        b[i, 1] = np.logaddexp(off, on1)
    log_z = logsumexp(a[n - 1, :, k])
    c = np.arange(k + 1)
    mu = np.zeros(2 * n - 1)
    for i in range(n):
        mu[i] = np.exp(logsumexp(a[i, 1, c] + b[i, 1, k - c]) - log_z)
    for i in range(n - 1):
        # a[i, 1, c] chooses c up to i; element i+1 adds one; the rest k - c - 1
        cc = np.arange(1, k)
        terms = a[i, 1, cc] + psi[i] + phi[i + 1] + b[i + 1, 1, k - cc - 1]
        mu[n + i] = np.exp(logsumexp(terms) - log_z) if cc.size else 0.0
    return mu


# --- statistics ---------------------------------------------------------------


def chi_square_p(counts, probs):
    """Pearson goodness-of-fit p-value of ``counts`` against cell probabilities."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() * np.asarray(probs, dtype=float)
    stat = float((((counts - expected) ** 2) / expected).sum())
    dof = counts.shape[0] - 1
    return float(gammaincc(dof / 2.0, stat / 2.0)), stat


def max_z_two_sample(hits_a, total_a, hits_b, total_b):
    """Largest per-coordinate |p_a - p_b| in pooled standard errors."""
    pa = np.asarray(hits_a, dtype=float) / total_a
    pb = np.asarray(hits_b, dtype=float) / total_b
    pooled = (np.asarray(hits_a) + np.asarray(hits_b)) / (total_a + total_b)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / total_a + 1.0 / total_b))
    diff = np.abs(pa - pb)
    z = np.where(se > 0, diff / np.where(se > 0, se, 1.0), np.where(diff > 0, np.inf, 0.0))
    return float(z.max())


def softmax(theta):
    e = np.exp(theta - theta.max())
    return e / e.sum()
