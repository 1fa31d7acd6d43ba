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
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStructureError, InputError, InvalidSpecError
from .structures import (
    Graph,
    StructureKind,
    StructureSpec,
    _check_dim,
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


def topk_select(u: np.ndarray, k: int) -> np.ndarray:
    """k-hot indicator of the k largest coordinates of ``u``."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if not 1 <= k < n:
        raise InputError(f"k must satisfy 1 <= k < {n}, got {k}")
    order = np.argsort(-u, kind="stable")
    bits = np.zeros(n, dtype=np.int8)
    bits[order[:k]] = 1
    return bits


def kruskal_max_tree(graph: Graph, u: np.ndarray) -> np.ndarray:
    """Edge indicator of the maximum-utility spanning tree.

    Edges are processed in non-increasing utility order (index order
    within equal utilities) with a union-find accumulator.
    """
    if graph.directed:
        raise InvalidSpecError("spanning trees need an undirected graph")
    u = np.asarray(u, dtype=float)
    if u.shape != (graph.num_edges,):
        raise InputError(f"expected {graph.num_edges} edge utilities, got shape {u.shape}")
    order = np.argsort(-u, kind="stable")
    uf = _UnionFind(graph.num_nodes)
    bits = np.zeros(graph.num_edges, dtype=np.int8)
    if graph.num_nodes == 1:
        return bits
    taken = 0
    for i in order:
        t, h = graph.edges[i]
        if uf.union(t, h):
            bits[i] = 1
            taken += 1
            if taken == graph.num_nodes - 1:
                return bits
    raise InfeasibleStructureError("graph is disconnected; no spanning tree exists")


def hungarian_match(u: np.ndarray) -> np.ndarray:
    """Permutation matrix (flattened row-major) maximizing sum(u[i, sigma(i)])."""
    # scipy.optimize takes about half a second to import; only matchings need it
    from scipy.optimize import linear_sum_assignment

    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InputError(f"utility matrix must be square, got shape {u.shape}")
    n = u.shape[0]
    rows, cols = linear_sum_assignment(u, maximize=True)
    bits = np.zeros(n * n, dtype=np.int8)
    bits[rows * n + cols] = 1
    return bits


# --- cycle-contraction engine ------------------------------------------------
#
# Maximum arborescence and its categorical sampling process share one
# recursion: per non-root node pick an entering edge, contract any
# directed cycle among the picks, recurse, then expand keeping all but
# one cycle edge.  They differ only in the pick rule, supplied as a
# callback that may mutate per-edge state (utilities or rates).

def _contract_and_pick(num_nodes, root, edge_list, pick):
    """``edge_list``: (tail, head, eid) triples in ascending eid order.

    ``pick(candidates)`` gets the (tail, eid) pairs entering one node and
    returns the position of the chosen pair.  Returns the chosen eids.
    """
    enter = [[] for _ in range(num_nodes)]
    for t, h, eid in edge_list:
        enter[h].append((t, eid))
    parent = {}
    for v in range(num_nodes):
        if v == root:
            continue
        if not enter[v]:
            raise InfeasibleStructureError(
                "no arborescence: a (super)node has no entering edge"
            )
        pos = pick(enter[v])
        parent[v] = enter[v][pos]

    # Find a directed cycle among the picked edges, if any.
    color = [0] * num_nodes  # 0 fresh, 1 on current path, 2 settled
    color[root] = 2
    cycle = None
    for v0 in range(num_nodes):
        if color[v0] or cycle is not None:
            continue
        path = []
        v = v0
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = parent[v][0]
        if color[v] == 1:
            cycle = path[path.index(v):]
        for w in path:
            color[w] = 2
    if cycle is None:
        return [eid for (_, eid) in parent.values()]

    cyc = set(cycle)
    new_id = {}
    for v in range(num_nodes):
        if v not in cyc:
            new_id[v] = len(new_id)
    super_id = len(new_id)
    sub_edges = []
    for t, h, eid in edge_list:
        nt = super_id if t in cyc else new_id[t]
        nh = super_id if h in cyc else new_id[h]
        if nt != nh:
            sub_edges.append((nt, nh, eid))
    chosen = _contract_and_pick(super_id + 1, new_id[root], sub_edges, pick)

    # The sub-solution enters the supernode through exactly one edge;
    # keep every cycle edge except the one entering that edge's head.
    head_here = {eid: h for (_, h, eid) in edge_list}
    h_star = None
    for eid in chosen:
        if head_here[eid] in cyc:
            h_star = head_here[eid]
            break
    result = list(chosen)
    for v in cycle:
        if v != h_star:
            result.append(parent[v][1])
    return result


def cle_max_arborescence(graph: Graph, root: int, u: np.ndarray, _tie=None) -> np.ndarray:
    """Edge indicator of the maximum-utility arborescence rooted at ``root``.

    Contraction recursion: per node keep the best entering edge and
    subtract its utility from all entering edges, contract any cycle,
    recurse on the modified utilities, expand.
    """
    if not graph.directed:
        raise InvalidSpecError("arborescences need a directed graph")
    u = np.asarray(u, dtype=float)
    if u.shape != (graph.num_edges,):
        raise InputError(f"expected {graph.num_edges} edge utilities, got shape {u.shape}")
    if not 0 <= root < graph.num_nodes:
        raise InputError(f"root {root} out of range")
    work = u.tolist()  # mutated copy; plain floats keep the recursion cheap

    def pick(cands):
        best_pos = 0
        best = work[cands[0][1]]
        for pos in range(1, len(cands)):
            w = work[cands[pos][1]]
            if w > best:
                best, best_pos = w, pos
            elif w == best and _tie is not None:
                _tie[0] = True
        for _, eid in cands:
            work[eid] -= best
        return best_pos

    edge_list = [(t, h, i) for i, (t, h) in enumerate(graph.edges)]
    chosen = _contract_and_pick(graph.num_nodes, root, edge_list, pick)
    bits = np.zeros(graph.num_edges, dtype=np.int8)
    bits[chosen] = 1
    return bits


def sample_arborescence_categorical(
    graph: Graph, root: int, rates: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random arborescence from per-edge rates.

    Per node an entering edge is sampled with probability proportional
    to its rate, the chosen edge's rate becomes infinite, and cycles are
    contracted exactly as in the maximizer.  Among infinite rates the
    choice is uniform.
    """
    if not graph.directed:
        raise InvalidSpecError("arborescences need a directed graph")
    lam = np.asarray(rates, dtype=float)
    if lam.shape != (graph.num_edges,):
        raise InputError(f"expected {graph.num_edges} rates, got shape {lam.shape}")
    if not ((lam > 0) | np.isinf(lam)).all():
        raise InputError("rates must be strictly positive or +inf")
    work = lam.tolist()
    inf = math.inf

    def pick(cands):
        ws = [work[eid] for (_, eid) in cands]
        if inf in ws:
            inf_pos = [p for p, w in enumerate(ws) if w == inf]
            pos = inf_pos[int(rng.integers(len(inf_pos)))]
        else:
            pos = _categorical_pick(ws, range(len(ws)), rng)
        work[cands[pos][1]] = inf
        return pos

    edge_list = [(t, h, i) for i, (t, h) in enumerate(graph.edges)]
    chosen = _contract_and_pick(graph.num_nodes, root, edge_list, pick)
    bits = np.zeros(graph.num_edges, dtype=np.int8)
    bits[chosen] = 1
    return bits


def _categorical_pick(weights, live, rng):
    """Position in ``live`` of one draw of an index ``i`` with probability
    proportional to ``weights[i]``: an inverse-CDF scan over ``live``."""
    total = 0.0
    for i in live:
        total += weights[i]
    r = rng.random() * total
    acc = 0.0
    for p, i in enumerate(live):
        acc += weights[i]
        if r < acc:
            return p
    return len(live) - 1


def _sample_without_replacement(weights, count, rng):
    """Indices of ``count`` sequential draws without replacement, p ~ weights."""
    live = list(range(len(weights)))
    return [live.pop(_categorical_pick(weights, live, rng)) for _ in range(count)]


def sample_tree_categorical(
    graph: Graph, theta: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random spanning tree from edge scores ``theta``.

    Edges are sampled without replacement with probability proportional
    to exp(theta_e) and added in sampled order unless they close a cycle.
    """
    if graph.directed:
        raise InvalidSpecError("spanning trees need an undirected graph")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (graph.num_edges,):
        raise InputError(f"expected {graph.num_edges} edge scores, got shape {theta.shape}")
    w = np.exp(theta - theta.max()).tolist()
    live = list(range(graph.num_edges))
    uf = _UnionFind(graph.num_nodes)
    bits = np.zeros(graph.num_edges, dtype=np.int8)
    taken = 0
    while live and taken < graph.num_nodes - 1:
        edge = live.pop(_categorical_pick(w, live, rng))
        t, h = graph.edges[edge]
        if uf.union(t, h):
            bits[edge] = 1
            taken += 1
    if taken < graph.num_nodes - 1:
        raise InfeasibleStructureError("graph is disconnected; no spanning tree exists")
    return bits


def sample_topk_without_replacement(
    theta: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-hot vector from k sequential draws without replacement, p ~ exp(theta)."""
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    if not 1 <= k < n:
        raise InputError(f"k must satisfy 1 <= k < {n}, got {k}")
    w = np.exp(theta - theta.max()).tolist()
    bits = np.zeros(n, dtype=np.int8)
    bits[_sample_without_replacement(w, k, rng)] = 1
    return bits


def _viterbi_corr_ksubsets(n, k, u, tie):
    """MAP over the chain with node scores u[:n], pair scores u[n:], sum = k."""
    phi, psi = u[:n], u[n:]
    neg = -math.inf
    score = np.full((2, k + 1), neg)
    score[0, 0] = 0.0
    score[1, 1] = phi[0]
    back = np.zeros((n, 2, k + 1), dtype=np.int8)
    for i in range(1, n):
        nxt = np.full((2, k + 1), neg)
        for s in (0, 1):
            for c in range(k + 1):
                if c - s < 0:
                    continue
                gain = phi[i] if s else 0.0
                best, best_prev = neg, 0
                for prev in (0, 1):
                    cand = score[prev, c - s] + gain + (psi[i - 1] if s and prev else 0.0)
                    if cand > best:
                        best, best_prev = cand, prev
                    elif cand == best and cand > neg and prev != best_prev:
                        tie[0] = True
                nxt[s, c] = best
                back[i, s, c] = best_prev
        score = nxt
    s = 0 if score[0, k] >= score[1, k] else 1
    if score[0, k] == score[1, k]:
        tie[0] = True
    bits = np.zeros(2 * n - 1, dtype=np.int8)
    c = k
    for i in range(n - 1, -1, -1):
        bits[i] = s
        prev = int(back[i, s, c]) if i > 0 else 0
        c -= s
        s = prev
    bits[n:] = bits[: n - 1] * bits[1:n]
    return bits


def solve_map(spec: StructureSpec, u: np.ndarray) -> MapSolution:
    """Maximize ``u . x`` over the spec's vertex set."""
    u = np.asarray(_check_dim(spec, u), dtype=float)
    if not np.isfinite(u).all():
        raise InputError("utilities must be finite")
    kind = spec.kind
    tie = False
    if kind == StructureKind.ONE_HOT:
        i = int(np.argmax(u))
        bits = np.zeros(spec.n, dtype=np.int8)
        bits[i] = 1
        tie = int((u == u[i]).sum()) > 1
    elif kind == StructureKind.SUBSETS:
        bits = (u > 0).astype(np.int8)
        tie = bool((u == 0).any())
    elif kind == StructureKind.K_SUBSETS:
        bits = topk_select(u, spec.k)
        # the k-th largest value is the least chosen one, the (k+1)-th the
        # greatest unchosen one
        chosen = bits.astype(bool)
        tie = bool(u[chosen].min() == u[~chosen].max())
    elif kind == StructureKind.CORR_K_SUBSETS:
        cell = [False]
        bits = _viterbi_corr_ksubsets(spec.n, spec.k, u, cell)
        tie = cell[0]
    elif kind == StructureKind.MATCHING:
        bits = hungarian_match(u.reshape(spec.n, spec.n))
        tie = _has_duplicates(u)
    elif kind == StructureKind.SPANNING_TREE:
        bits = kruskal_max_tree(spec.graph, u)
        tie = _has_duplicates(u)
    elif kind == StructureKind.ARBORESCENCE:
        cell = [False]
        bits = cle_max_arborescence(spec.graph, spec.root, u, _tie=cell)
        tie = cell[0]
    else:  # pragma: no cover
        raise InvalidSpecError(f"unknown kind {kind!r}")
    return MapSolution(vertex=bits, objective=float(u @ bits), tie_broken=bool(tie))
