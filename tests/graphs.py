"""Complete graphs and digraphs shared by the test modules, as edge lists
for JSON specs and as ``Graph`` objects."""

import itertools

from sst import Graph


def complete_edges(n):
    """The edges ``[i, j]``, i < j, of K_n in lexicographic order."""
    return [[i, j] for i, j in itertools.combinations(range(n), 2)]


def complete_arcs(n):
    """The arcs ``[i, j]``, i != j, of the complete digraph on n nodes."""
    return [[i, j] for i in range(n) for j in range(n) if i != j]


def complete_graph(n):
    return Graph(n, complete_edges(n))


def complete_digraph(n):
    return Graph(n, complete_arcs(n), directed=True)


K3, K4, K5 = complete_graph(3), complete_graph(4), complete_graph(5)
D3 = complete_digraph(3)
