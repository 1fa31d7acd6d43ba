"""Combinatorial structure descriptors and their binary embeddings.

Every structure kind fixes a finite set of binary vectors (the vertex
set of its polytope).  Coordinate conventions used throughout the
package:

* graph-backed kinds index coordinates by the edge list order of the
  ``Graph``; undirected edges are normalized to ``(min, max)`` pairs,
* matchings are n x n permutation matrices flattened row-major,
* correlated k-subsets use ``2n - 1`` coordinates: the first ``n`` are
  element indicators, coordinate ``n + i`` is the product of indicators
  ``i`` and ``i + 1`` (0-based, ``0 <= i < n - 1``).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    InputError,
    InvalidSpecError,
    _as_floats,
    _as_member,
    _require_int,
)

__all__ = [
    "Graph",
    "StructureKind",
    "StructureSpec",
    "embedding_dim",
    "is_vertex",
    "enumerate_vertices",
    "gibbs_moments",
    "default_enum_limit",
    "spec_to_dict",
    "spec_from_dict",
]


# Vertex-count guard of every enumeration the package runs on its own.
DEFAULT_ENUM_LIMIT = 10_000


def default_enum_limit() -> int:
    """Vertex-count guard for brute-force oracles; SST_MAX_ENUM, a
    non-negative integer, overrides."""
    text = os.environ.get("SST_MAX_ENUM", str(DEFAULT_ENUM_LIMIT))
    if not text.isdecimal():
        raise InputError(f"SST_MAX_ENUM must be a non-negative integer, got {text!r}")
    return int(text)


class StructureKind(str, Enum):
    ONE_HOT = "one_hot"
    SUBSETS = "subsets"
    K_SUBSETS = "k_subsets"
    CORR_K_SUBSETS = "corr_k_subsets"
    MATCHING = "matching"
    SPANNING_TREE = "spanning_tree"
    ARBORESCENCE = "arborescence"


@dataclass(frozen=True)
class Graph:
    """A simple graph; the edge list order fixes the coordinate order.

    Undirected edges are normalized to ``(min, max)`` on construction.
    An edge must be a pair of nodes; self-loops, duplicate edges and a
    ``directed`` that is not a bool are rejected.
    """

    num_nodes: int
    edges: tuple = ()
    directed: bool = False

    def __post_init__(self):
        if _require_int(self.num_nodes, "num_nodes", InvalidSpecError) < 1:
            raise InvalidSpecError("graph needs at least one node")
        if not isinstance(self.directed, bool):
            raise InvalidSpecError(f"directed must be true or false, got {self.directed!r}")
        try:
            edges = iter(self.edges)
        except TypeError as exc:
            raise InvalidSpecError(
                f"edges must be a list of node pairs, got {self.edges!r}") from exc
        norm = []
        for e in edges:
            try:
                t, h = e
            except (TypeError, ValueError) as exc:
                raise InvalidSpecError(f"an edge must be a pair of nodes, got {e!r}") from exc
            t, h = (_require_int(end, "edge endpoint", InvalidSpecError) for end in (t, h))
            if t == h:
                raise InvalidSpecError(f"self-loop on node {t}")
            if not (0 <= t < self.num_nodes and 0 <= h < self.num_nodes):
                raise InvalidSpecError(f"edge ({t},{h}) out of range")
            if not self.directed and t > h:
                t, h = h, t
            norm.append((t, h))
        if len(set(norm)) != len(norm):
            raise InvalidSpecError("duplicate edge in edge list")
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def arcs(self) -> tuple:
        """The tail of every edge, and per node the ids of the edges entering
        it in ascending order; built once."""
        entering = [[] for _ in range(self.num_nodes)]
        for i, (_, h) in enumerate(self.edges):
            entering[h].append(i)
        return tuple(t for t, _ in self.edges), tuple(map(tuple, entering))

    @cached_property
    def _plans(self) -> dict:
        return {}

    def tree_plan(self, boundary: int) -> tuple:
        """The tails and heads of the edges, renumbered so that ``boundary``
        comes last and the other nodes keep their order: the index arrays
        of the tree solves that eliminate toward ``boundary``, built once
        per boundary and read-only; ``boundary`` is checked on every call."""
        boundary = self._node(boundary, "boundary")
        plan = self._plans.get(boundary)
        if plan is None:
            pos = np.arange(self.num_nodes) - (np.arange(self.num_nodes) > boundary)
            pos[boundary] = self.num_nodes - 1
            plan = pos[np.array(self.edges, dtype=int).reshape(-1, 2)].T.copy()
            plan.flags.writeable = False
            plan = self._plans[boundary] = tuple(plan)
        return plan

    def _node(self, node, what: str) -> int:
        """``node`` as an int; raises ``InputError("<what> <node> out of
        range")`` unless it is one of the graph's nodes."""
        if not 0 <= _require_int(node, what) < self.num_nodes:
            raise InputError(f"{what} {node} out of range")
        return int(node)

    def in_edges(self, node: int) -> list:
        """Indices of edges entering ``node`` (directed graphs)."""
        return list(self.arcs[1][self._node(node, "node")])

    def is_connected(self) -> bool:
        """Connectivity ignoring edge direction: n - 1 edges join two components."""
        uf = _UnionFind(self.num_nodes)
        return sum(uf.union(t, h) for t, h in self.edges) == self.num_nodes - 1

    def reachable_from(self, root: int) -> set:
        """Nodes a depth-first search from ``root`` reaches, following each
        edge from tail to head."""
        root = self._node(root, "root")
        adjacent = [[] for _ in range(self.num_nodes)]
        for t, h in self.edges:
            adjacent[t].append(h)
        seen = {root}
        stack = [root]
        while stack:
            for w in adjacent[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


@dataclass(frozen=True)
class StructureSpec:
    """Descriptor of a finite vertex set; validated on construction."""

    kind: StructureKind
    n: Optional[int] = None
    k: Optional[int] = None
    graph: Optional[Graph] = None
    root: Optional[int] = None

    def __post_init__(self):
        kind = _as_member(StructureKind, self.kind, "structure kind")
        object.__setattr__(self, "kind", kind)
        for name in ("n", "k", "root"):
            if getattr(self, name) is not None:
                _require_int(getattr(self, name), name, InvalidSpecError)
        if kind not in (StructureKind.SPANNING_TREE, StructureKind.ARBORESCENCE):
            if self.n is None or self.n < 1:
                raise InvalidSpecError(f"{kind.value} requires a positive n")
            if self.graph is not None or self.root is not None:
                raise InvalidSpecError(f"{kind.value} takes no graph or root")
        elif self.n is not None:
            raise InvalidSpecError(f"{kind.value} takes no n")
        if kind in (StructureKind.K_SUBSETS, StructureKind.CORR_K_SUBSETS):
            if self.k is None or not (1 <= self.k < self.n):
                raise InvalidSpecError(f"{kind.value} requires 1 <= k < n, got k={self.k}, n={self.n}")
        elif self.k is not None:
            raise InvalidSpecError(f"{kind.value} takes no cardinality k")
        if kind == StructureKind.SPANNING_TREE:
            if self.graph is None or self.graph.directed:
                raise InvalidSpecError("spanning_tree requires an undirected graph")
            if not self.graph.is_connected():
                raise InvalidSpecError("spanning_tree graph must be connected")
            if self.root is not None:
                raise InvalidSpecError("spanning_tree takes no root")
        if kind == StructureKind.ARBORESCENCE:
            if self.graph is None or not self.graph.directed:
                raise InvalidSpecError("arborescence requires a directed graph")
            if self.root is None or not (0 <= self.root < self.graph.num_nodes):
                raise InvalidSpecError("arborescence requires a valid root node")
            if self.graph.reachable_from(self.root) != set(range(self.graph.num_nodes)):
                raise InvalidSpecError("no arborescence: some node unreachable from the root")

    @property
    def dim(self) -> int:
        return embedding_dim(self)


def embedding_dim(spec: StructureSpec) -> int:
    """Ambient dimension of the spec's binary embeddings."""
    kind = spec.kind
    if kind in (StructureKind.ONE_HOT, StructureKind.SUBSETS, StructureKind.K_SUBSETS):
        return spec.n
    if kind == StructureKind.CORR_K_SUBSETS:
        return 2 * spec.n - 1
    if kind == StructureKind.MATCHING:
        return spec.n * spec.n
    return spec.graph.num_edges  # a spanning tree or an arborescence


def _check_dim(spec: StructureSpec, x: Sequence) -> np.ndarray:
    """``x`` as a float vector of the spec's embedding dimension."""
    x = _as_floats(x, "input")
    if x.ndim != 1 or x.shape[0] != embedding_dim(spec):
        raise DimensionMismatchError(
            f"expected a vector of length {embedding_dim(spec)}, got shape {x.shape}"
        )
    return x


def _edge_vector(graph: Graph, x: Sequence, what: str, directed: bool,
                 root: Optional[int] = None) -> np.ndarray:
    """``x`` as a float vector of per-edge ``what`` on a graph that must be
    directed (arborescences, whose ``root`` must be one of its nodes) or
    undirected (spanning trees)."""
    if graph.directed != directed:
        raise InvalidSpecError("arborescences need a directed graph" if directed
                               else "spanning trees need an undirected graph")
    x = _as_floats(x, what)
    if x.shape != (graph.num_edges,):
        raise InputError(f"expected {graph.num_edges} {what}, got shape {x.shape}")
    if directed:
        graph._node(root, "root")
    return x


def _square_matrix(u: Sequence) -> np.ndarray:
    """``u`` as a square float matrix of utilities."""
    u = _as_floats(u, "utility matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InputError(f"utility matrix must be square, got shape {u.shape}")
    return u


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _edges_form_spanning_tree(graph: Graph, edge_ids: Sequence[int]) -> bool:
    if len(edge_ids) != graph.num_nodes - 1:
        return False
    uf = _UnionFind(graph.num_nodes)
    for i in edge_ids:
        t, h = graph.edges[i]
        if not uf.union(t, h):
            return False
    return True


def _edges_form_arborescence(graph: Graph, root: int, edge_ids: Sequence[int]) -> bool:
    # one arc into every node but the root, on a spanning tree of the underlying
    # graph: following each node's single in-arc backwards cannot cycle in a
    # tree, so it ends at the root
    heads = [graph.edges[i][1] for i in edge_ids]
    return (root not in heads and len(set(heads)) == len(heads)
            and _edges_form_spanning_tree(graph, edge_ids))


def is_vertex(spec: StructureSpec, x: Sequence) -> bool:
    """True iff ``x`` is a valid binary embedding for ``spec``."""
    x = _check_dim(spec, x)
    if not np.isin(x, (0, 1)).all():
        return False
    b = x.astype(np.int64)
    kind = spec.kind
    if kind == StructureKind.ONE_HOT:
        return b.sum() == 1
    if kind == StructureKind.SUBSETS:
        return True
    if kind == StructureKind.K_SUBSETS:
        return b.sum() == spec.k
    if kind == StructureKind.CORR_K_SUBSETS:
        n = spec.n
        if b[:n].sum() != spec.k:
            return False
        return bool((b[n:] == b[: n - 1] * b[1:n]).all())
    if kind == StructureKind.MATCHING:
        m = b.reshape(spec.n, spec.n)
        return bool((m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all())
    if kind == StructureKind.SPANNING_TREE:
        return _edges_form_spanning_tree(spec.graph, np.flatnonzero(b))
    return _edges_form_arborescence(spec.graph, spec.root, np.flatnonzero(b))


def _bits(dim: int, chosen) -> tuple:
    """The 0/1 tuple of length ``dim`` with ones at the ``chosen`` indices."""
    bits = [0] * dim
    for i in chosen:
        bits[i] = 1
    return tuple(bits)


def _iter_vertices(spec: StructureSpec) -> Iterator[tuple]:
    kind = spec.kind
    if kind in (StructureKind.ONE_HOT, StructureKind.K_SUBSETS):
        k = 1 if kind == StructureKind.ONE_HOT else spec.k
        for sel in itertools.combinations(range(spec.n), k):
            yield _bits(spec.n, sel)
    elif kind == StructureKind.SUBSETS:
        yield from itertools.product((0, 1), repeat=spec.n)
    elif kind == StructureKind.CORR_K_SUBSETS:
        for sel in itertools.combinations(range(spec.n), spec.k):
            bits = _bits(spec.n, sel)
            yield bits + tuple(a * b for a, b in zip(bits, bits[1:]))
    elif kind == StructureKind.MATCHING:
        n = spec.n
        for perm in itertools.permutations(range(n)):
            yield _bits(n * n, (r * n + c for r, c in enumerate(perm)))
    elif kind == StructureKind.SPANNING_TREE:
        g = spec.graph
        for sel in itertools.combinations(range(g.num_edges), g.num_nodes - 1):
            if _edges_form_spanning_tree(g, sel):
                yield _bits(g.num_edges, sel)
    else:  # an arborescence
        g = spec.graph
        in_lists = [g.in_edges(v) for v in range(g.num_nodes) if v != spec.root]
        for combo in itertools.product(*in_lists):  # one arc into each non-root
            if _edges_form_spanning_tree(g, combo):
                yield _bits(g.num_edges, combo)


def enumerate_vertices(spec: StructureSpec, limit: int = DEFAULT_ENUM_LIMIT) -> list:
    """All vertices of the spec, in lexicographic bit order.

    Raises ``EnumerationLimitError`` as soon as more than ``limit``
    vertices are found; the instance is then too large for brute-force
    oracles.
    """
    if _require_int(limit, "limit") < 0:
        raise InputError(f"limit must be >= 0, got {limit}")
    out = []
    for bits in _iter_vertices(spec):
        out.append(bits)
        if len(out) > limit:
            raise EnumerationLimitError(
                f"{spec.kind.value} instance has more than limit={limit} vertices"
            )
    out.sort()
    return [np.array(bits, dtype=np.int8) for bits in out]


@lru_cache(maxsize=1, typed=True)
def _vertex_matrix(spec: StructureSpec, limit: int) -> np.ndarray:
    """``enumerate_vertices(spec, limit)`` as the rows of a read-only float
    matrix.  The last one is kept, so repeated moments of one spec (a
    finite-difference Jacobian, a gradcheck) enumerate once; ``typed``
    keeps a limit of another type from reusing it unchecked."""
    verts = np.stack(enumerate_vertices(spec, limit)).astype(float)
    verts.flags.writeable = False
    return verts


def gibbs_moments(spec: StructureSpec, z: np.ndarray, limit: int, covariance: bool = False):
    """Mean of p(x) ~ exp(z . x) over the spec's vertices, by enumeration.

    With ``covariance`` returns ``(mean, covariance)``.  Raises
    ``EnumerationLimitError`` past ``limit`` vertices.
    """
    verts = _vertex_matrix(spec, limit)
    # a score past the doubles is infinite, and a weight past them below the max is 0
    with np.errstate(over="ignore"):
        logw = verts @ z
        w = np.exp(logw - logw.max())
    if not covariance:
        return verts.T @ w / w.sum()
    # the covariance needs normalized weights, which round the mean differently
    w /= w.sum()
    mean = verts.T @ w
    return mean, verts.T @ (verts * w[:, None]) - np.outer(mean, mean)


# --- JSON wire format -------------------------------------------------------

def spec_to_dict(spec: StructureSpec) -> dict:
    d = {"kind": spec.kind.value}
    if spec.n is not None:
        d["n"] = spec.n
    if spec.k is not None:
        d["k"] = spec.k
    if spec.graph is not None:
        d["graph"] = {
            "num_nodes": spec.graph.num_nodes,
            "edges": [list(e) for e in spec.graph.edges],
            "directed": spec.graph.directed,
        }
    if spec.root is not None:
        d["root"] = spec.root
    return d


def spec_from_dict(d: dict) -> StructureSpec:
    if not isinstance(d, dict):
        raise InvalidSpecError(f"a structure spec must be an object, got {type(d).__name__}")
    try:
        kind = StructureKind(d["kind"])
    except (KeyError, ValueError) as exc:
        raise InvalidSpecError(f"bad structure kind: {d.get('kind')!r}") from exc
    graph = None
    if "graph" in d:
        g = d["graph"]
        try:
            graph = Graph(g["num_nodes"], g["edges"], g.get("directed", False))
        except (KeyError, TypeError) as exc:
            raise InvalidSpecError(f"malformed graph: {g!r}") from exc
    return StructureSpec(kind, n=d.get("n"), k=d.get("k"), graph=graph, root=d.get("root"))
