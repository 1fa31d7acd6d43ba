"""Exact maximizers of a linear objective over each vertex set, plus the
equivalent categorical sampling processes for trees and arborescences.

Tie-breaking is deterministic everywhere: the lowest coordinate index
wins, and graph solvers scan edges in index order within equal
utilities.  ``tie_broken`` flags are conservative; they may fire when a
tie could not have changed the result, but with continuous utilities
they almost surely stay off.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (InfeasibleStructureError, InputError, _as_floats, _require_finite,
                     _require_int)
from .structures import (
    Graph,
    StructureKind,
    StructureSpec,
    _check_dim,
    _edge_vector,
    _square_matrix,
    _UnionFind,
)

__all__ = [
    "MapSolution",
    "solve_map",
    "topk_select",
    "kruskal_max_tree",
    "cle_max_arborescence",
    "hungarian_match",
    "sample_arborescence_categorical",
    "sample_tree_categorical",
    "sample_topk_without_replacement",
]


@dataclass(frozen=True)
class MapSolution:
    vertex: np.ndarray
    objective: float
    tie_broken: bool = False


def _has_duplicates(u: np.ndarray) -> bool:
    return np.unique(u).size < u.size


def _indicator(dim: int, chosen) -> np.ndarray:
    bits = np.zeros(dim, dtype=np.int8)
    bits[chosen] = 1
    return bits


def _stable_order(U: np.ndarray) -> np.ndarray:
    """Per row, coordinate indices by non-increasing value, lowest index first among ties."""
    return np.argsort(-U, axis=-1, kind="stable")


def _k_of_n(x, k: int, what: str) -> np.ndarray:
    """``x`` as a finite float vector of ``what`` whose length n has 1 <= k < n."""
    x = _as_floats(x, what)
    if x.ndim != 1:
        raise InputError(f"{what} must be a vector, got shape {x.shape}")
    if not 1 <= _require_int(k, "k") < x.shape[0]:
        raise InputError(f"k must satisfy 1 <= k < {x.shape[0]}, got {k}")
    _require_finite(x, what)
    return x


def topk_select(u: np.ndarray, k: int) -> np.ndarray:
    """k-hot indicator of the k largest coordinates of ``u``."""
    u = _k_of_n(u, k, "utilities")
    return _indicator(u.shape[0], _stable_order(u)[:k])


def _kruskal(graph: Graph, order) -> list:
    """Edges a union-find accumulator keeps when scanning ``order`` (edge
    ids); it reads no further once the tree is complete."""
    need = graph.num_nodes - 1
    chosen = []
    if need == 0:
        return chosen
    uf = _UnionFind(graph.num_nodes)
    for i in order:
        t, h = graph.edges[i]
        if uf.union(t, h):
            chosen.append(i)
            if len(chosen) == need:
                return chosen
    raise InfeasibleStructureError("graph is disconnected; no spanning tree exists")


def kruskal_max_tree(graph: Graph, u: np.ndarray) -> np.ndarray:
    """Edge indicator of the maximum-utility spanning tree.

    Edges are processed in non-increasing utility order (index order
    within equal utilities) with a union-find accumulator.
    """
    u = _edge_vector(graph, u, "edge utilities", directed=False)
    _require_finite(u, "edge utilities")
    return _indicator(graph.num_edges, _kruskal(graph, _stable_order(u).tolist()))


def _assignment(u: np.ndarray) -> np.ndarray:
    """Flat row-major indices of the permutation maximizing a square ``u``."""
    # scipy.optimize takes about half a second to import; only matchings need it
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(u, maximize=True)
    return rows * u.shape[0] + cols


def _matching_tie(n: int, u: np.ndarray, bits: np.ndarray) -> bool:
    """Whether a second n x n permutation scores ``u @ bits``, the best score
    of the flat utilities ``u``.  Every other permutation leaves out a cell
    of ``bits``, so each is forbidden (-inf) in turn and the rest re-solved.
    One row has one permutation."""
    if n == 1:
        return False
    best = u @ bits
    for cell in np.flatnonzero(bits):
        w = u.copy()
        w[cell] = -np.inf
        if u @ _indicator(u.size, _assignment(w.reshape(n, n))) == best:
            return True
    return False


def hungarian_match(u: np.ndarray) -> np.ndarray:
    """Permutation matrix (flattened row-major) maximizing sum(u[i, sigma(i)])."""
    u = _square_matrix(u)
    _require_finite(u, "utilities")
    return _indicator(u.size, _assignment(u))


# --- cycle-contraction engine ------------------------------------------------
#
# Maximum arborescence and its categorical sampling process share one
# engine, Chu-Liu-Edmonds in Tarjan's form: every non-root node picks an
# entering edge; while the picks hold a directed cycle, the cycle becomes
# one new supernode that enters through its members' entering edges minus
# those from inside the cycle, and only the supernode picks.  The cycles
# are then expanded from the last to the first.  The two differ only in the
# pick rule, supplied as a callback.

def _contract(graph: Graph, root: int, pick) -> list:
    """Edge ids of the arborescence rooted at ``root`` that ``pick`` builds.

    ``pick(cands)`` gets the ids of the edges entering one (super)node in
    ascending order and returns ``(position, again)``: the position of the
    chosen id, and whether the node picks again after every later
    contraction that leaves it in place.  Nodes are numbered as they are
    made (the original ones, then each supernode), cycles are searched from
    the live nodes in that order, and repeated picks run in that order
    before the new supernode's.
    """
    tails, entering = graph.arcs
    n = graph.num_nodes
    parent = [None] * n  # per node: the id of its chosen entering edge
    rep = list(range(n))  # per original node: the live node holding it
    again = []
    live = list(range(n))
    del live[root]
    cands, pending = entering, live  # pending: the nodes to pick next
    made = []
    while True:
        for v in pending:
            if not cands[v]:
                raise InfeasibleStructureError("no arborescence: a (super)node has no entering edge")
            pos, repeat = pick(cands[v])
            parent[v] = cands[v][pos]
            if repeat:
                again.append(v)
        # Follow the picks from each live node in turn; the first path that
        # runs into itself holds the cycle, as in a scan of the whole graph.
        color = [0] * len(parent)  # per node: 0 fresh, 1 on the current path, 2 settled
        color[root] = 2
        cycle = None
        for v0 in live:
            if color[v0]:
                continue
            path = []
            v = v0
            while not color[v]:
                color[v] = 1
                path.append(v)
                v = rep[tails[parent[v]]]
            if color[v] == 1:
                cycle = path[path.index(v):]
                break
            for w in path:
                color[w] = 2
        if cycle is None:
            break
        if not made:
            # per node: its entering edge ids, and the supernode that took it in
            cands, up = list(entering), list(range(n))
        s = len(parent)
        for v in cycle:
            up[v] = s
        for o in range(n):
            if up[rep[o]] == s:
                rep[o] = s
        cands.append(sorted(e for v in cycle for e in cands[v] if rep[tails[e]] != s))
        parent.append(None)
        up.append(s)
        made.append(s)
        live = [v for v in live if up[v] == v] + [s]
        pending, again = [v for v in again if up[v] == v] + [s], []
    # Expand the supernodes, the last made first: the member its entering
    # edge reaches takes that edge and the others keep their picks.
    for s in reversed(made):
        e = parent[s]
        v = graph.edges[e][1]
        while up[v] != s:
            v = up[v]
        parent[v] = e
    chosen = parent[:n]
    del chosen[root]
    return chosen


def _cle(graph: Graph, root: int, work: list, tie) -> list:
    """Edges of the maximum arborescence for the utilities ``work`` (a list
    of floats, consumed).  Per node keep the best entering edge and subtract
    its utility from all entering edges, so the kept edge weighs 0.0 and a
    supernode's candidates weigh what they would gain over their member's
    kept edge.  ``tie[0]`` is set when a tie decided a pick."""

    def pick(cands):
        ws = [work[e] for e in cands]
        best = max(ws)  # the first of equal maxima, as ws.index finds it
        if tie is not None:
            # a candidate equal to the best one scanned before it
            running = ws[0]
            for w in ws[1:]:
                if w == running:
                    tie[0] = True
                running = max(running, w)
        for e in cands:
            work[e] -= best
        return ws.index(best), False

    return _contract(graph, root, pick)


def cle_max_arborescence(graph: Graph, root: int, u: np.ndarray) -> np.ndarray:
    """Edge indicator of the maximum-utility arborescence rooted at ``root``."""
    u = _edge_vector(graph, u, "edge utilities", directed=True, root=root)
    _require_finite(u, "edge utilities")
    return _indicator(graph.num_edges, _cle(graph, root, u.tolist(), None))


def sample_arborescence_categorical(
    graph: Graph, root: int, rates: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random arborescence from per-edge rates.

    Per node an entering edge is sampled with probability proportional
    to its rate, and cycles are contracted exactly as in the maximizer;
    only each new supernode samples, and the other nodes keep their picks.
    Among infinite rates the choice is uniform: a node with a lone
    infinite rate takes it, and one with several draws again after every
    later contraction that leaves it in place.
    """
    lam = _edge_vector(graph, rates, "rates", directed=True, root=root)
    if not (lam > 0).all():
        raise InputError("rates must be strictly positive or +inf")
    work = lam.tolist()
    inf = math.inf

    def pick(cands):
        ws = [work[e] for e in cands]
        if inf in ws:
            inf_pos = [p for p, w in enumerate(ws) if w == inf]
            # rng.integers(1) draws nothing from the generator, so a lone
            # infinite rate is taken without the call; among several the
            # node draws again after every later contraction
            if len(inf_pos) == 1:
                return inf_pos[0], False
            return inf_pos[int(rng.integers(len(inf_pos)))], True
        return _pick(ws, rng.random()), False

    return _indicator(graph.num_edges, _contract(graph, root, pick))


def _pick(weights, r: float) -> int:
    """One inverse-CDF draw for the uniform double ``r``: the position of
    the first sequential prefix sum of ``weights`` above ``r`` times their
    total, or the last position when none is (a sum rounded up, or weights
    that all underflowed to 0.0)."""
    cum = list(accumulate(weights))
    return min(bisect_right(cum, r * cum[-1]), len(cum) - 1)


def _sampled_order(weights, rng, ahead):
    """Indices in the order of sequential draws without replacement,
    p ~ weights, drawn one at a time as the consumer asks for them.

    The first ``ahead`` doubles come from one ``rng.random`` block (the
    bytes of as many scalar draws), so the consumer must read at least
    ``ahead`` picks.  Each pick is ``_pick``'s over the live weights.
    """
    live = list(range(len(weights)))
    ws = list(weights)
    doubles = rng.random(ahead).tolist()[::-1]
    while live:
        p = _pick(ws, doubles.pop() if doubles else rng.random())
        del ws[p]
        yield live.pop(p)


def sample_tree_categorical(
    graph: Graph, theta: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random spanning tree from edge scores ``theta``.

    Edges are sampled without replacement with probability proportional
    to exp(theta_e) and added in sampled order unless they close a cycle.
    """
    theta = _edge_vector(graph, theta, "edge scores", directed=False)
    _require_finite(theta, "edge scores")
    # -inf is the max of no scores: a one-node graph has no edges
    w = np.exp(theta - theta.max(initial=-np.inf)).tolist()
    # Kruskal reads at least n - 1 picks, or all m before it fails
    ahead = min(graph.num_nodes - 1, graph.num_edges)
    return _indicator(graph.num_edges, _kruskal(graph, _sampled_order(w, rng, ahead)))


def sample_topk_without_replacement(
    theta: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-hot vector from k sequential draws without replacement, p ~ exp(theta)."""
    theta = _k_of_n(theta, k, "scores")
    w = np.exp(theta - theta.max())
    n = w.shape[0]
    bits = np.zeros(n, dtype=np.int8)
    # The doubles of k scalar rng.random() calls.  Taken items weigh 0.0, so
    # every sequential prefix sum equals _pick's over the live items alone,
    # and the first sum above r * total is its pick.
    for r in rng.random(k).tolist():
        cum = w.cumsum()
        i = int(cum.searchsorted(r * cum[-1], "right"))
        if i == n:  # no sum exceeds r * total (rounded up, or all live weights
            # underflowed to 0.0): the last live item
            i = int(np.flatnonzero(bits == 0)[-1])
        w[i] = 0.0
        bits[i] = 1
    return bits


def _viterbi_block(n: int, k: int, U: np.ndarray):
    """MAP over the chain with node scores ``U[:, :n]`` and pair scores
    ``U[:, n:]`` subject to ``sum = k``, for every row of ``U`` at once.

    Row for row this makes the decisions of a scalar Viterbi that scores
    state ``s`` at position ``i`` with count ``c`` from the previous states
    ``0`` then ``1`` and keeps the first best, and that ends in state 0
    unless state 1 scores strictly more.  Returns the int8 vertices and a
    per-row flag: some choice between two equal finite scores was made.
    """
    rows = U.shape[0]
    phi, psi = U[:, :n, None], U[:, n:, None]
    neg = -np.inf
    score = np.full((rows, 2, k + 1), neg)
    score[:, 0, 0] = 0.0
    score[:, 1, 1] = phi[:, 0, 0]
    back = np.zeros((rows, n, 2, k + 1), dtype=np.int8)
    tie = np.zeros(rows, dtype=bool)
    # Candidates for every (state, count) from the previous state 0 (a) and
    # 1 (b): state 0 keeps the count, state 1 adds phi_i, and psi_{i-1}
    # after a 1.  State 1 with count 0 is unreachable and stays -inf.
    a = np.full((rows, 2, k + 1), neg)
    b = np.full((rows, 2, k + 1), neg)
    for i in range(1, n):
        a[:, 0] = score[:, 0]
        b[:, 0] = score[:, 1]
        np.add(score[:, 0, :-1], phi[:, i], out=a[:, 1, 1:])
        np.add(score[:, 1, :-1], phi[:, i], out=b[:, 1, 1:])
        b[:, 1, 1:] += psi[:, i - 1]
        take1 = b > a
        tie |= ((b == a) & (b > neg)).reshape(rows, -1).any(axis=1)
        score = np.where(take1, b, a)
        back[:, i] = take1
    last0, last1 = score[:, 0, k], score[:, 1, k]
    tie |= last0 == last1
    s = (last1 > last0).astype(np.intp)
    c = np.full(rows, k)
    r = np.arange(rows)
    bits = np.zeros((rows, 2 * n - 1), dtype=np.int8)
    for i in range(n - 1, -1, -1):
        bits[:, i] = s
        prev = back[r, i, s, c]
        c = c - s
        s = prev
    bits[:, n:] = bits[:, : n - 1] * bits[:, 1:n]
    return bits, tie


def _map_block(spec: StructureSpec, U: np.ndarray) -> np.ndarray:
    """``solve_map``'s vertex for every row of a finite ``(rows, dim)`` block, as int8 rows."""
    kind = spec.kind
    rows, dim = U.shape
    if kind == StructureKind.SUBSETS:
        return (U > 0).astype(np.int8)
    if kind == StructureKind.CORR_K_SUBSETS:
        return _viterbi_block(spec.n, spec.k, U)[0]
    bits = np.zeros((rows, dim), dtype=np.int8)
    if kind == StructureKind.ONE_HOT:
        bits[np.arange(rows), U.argmax(axis=1)] = 1
    elif kind == StructureKind.K_SUBSETS:
        np.put_along_axis(bits, _stable_order(U)[:, : spec.k], 1, axis=1)
    elif kind == StructureKind.MATCHING:
        for row, u in zip(bits, U.reshape(rows, spec.n, spec.n)):
            row[_assignment(u)] = 1
    elif kind == StructureKind.SPANNING_TREE:
        for row, order in zip(bits, _stable_order(U).tolist()):
            row[_kruskal(spec.graph, order)] = 1
    else:  # an arborescence
        for row, work in zip(bits, U.tolist()):
            row[_cle(spec.graph, spec.root, work, None)] = 1
    return bits


# Rows per chunk of ``_map_chunks``: a chunk's utilities (doubles), and the
# Viterbi back-pointers of correlated k-subsets (bytes), hold at most this
# many elements.  On a 2-core VM, 64 KiB blocks ran the benchmark's
# perturb_map workload as fast as 512 KiB ones, with a peak resident set
# 2-3 MB lower.
_MAP_CHUNK = 1 << 13


def _chunk_rows(spec: StructureSpec) -> int:
    width = max(spec.dim, 1)  # a one-node tree's rows have width 0
    if spec.kind == StructureKind.CORR_K_SUBSETS:
        width = 2 * spec.n * (spec.k + 1)
    return max(1, _MAP_CHUNK // width)


def _map_chunks(spec: StructureSpec, noise, draws: int):
    """Yield the MAP vertices of ``draws`` utility rows as int8 blocks, in order.

    ``noise(rows)`` returns the next ``(rows, dim)`` utilities; it is called
    on chunks of ``_chunk_rows(spec)`` rows (the last one shorter), and each
    chunk is checked for finiteness once.
    """
    per = _chunk_rows(spec)
    for start in range(0, draws, per):
        U = noise(min(per, draws - start))
        _require_finite(U, "utilities")
        yield _map_block(spec, U)


def solve_map(spec: StructureSpec, u: np.ndarray) -> MapSolution:
    """Maximize ``u . x`` over the spec's vertex set."""
    u = _check_dim(spec, u)
    _require_finite(u, "utilities")
    kind = spec.kind
    if kind == StructureKind.CORR_K_SUBSETS:
        block, ties = _viterbi_block(spec.n, spec.k, u[None])
        bits, tie = block[0], ties[0]
    elif kind == StructureKind.ARBORESCENCE:
        cell = [False]
        bits = _indicator(spec.dim, _cle(spec.graph, spec.root, u.tolist(), cell))
        tie = cell[0]
    else:
        bits = _map_block(spec, u[None])[0]
        if kind == StructureKind.ONE_HOT:
            tie = int((u == u.max()).sum()) > 1
        elif kind == StructureKind.SUBSETS:
            tie = (u == 0).any()
        elif kind == StructureKind.K_SUBSETS:
            # the k-th largest value is the least chosen one, the (k+1)-th
            # the greatest unchosen one
            chosen = bits.astype(bool)
            tie = u[chosen].min() == u[~chosen].max()
        elif kind == StructureKind.MATCHING:
            tie = _matching_tie(spec.n, u, bits)
        else:  # spanning tree
            tie = _has_duplicates(u)
    return MapSolution(vertex=bits, objective=float(u @ bits), tie_broken=bool(tie))
