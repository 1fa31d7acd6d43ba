"""A watch on the two paths of the tree, arborescence and matching
maximizers, shared by the test modules: the block solve of a whole chunk,
and the per-row solve."""

import importlib

_argmax_module = importlib.import_module("sst.argmax")

# the block solvers, each called with its utility block last
_BLOCKS = ("_kruskal_block", "_cle_block", "_matching_block")


def watch_map_solves(monkeypatch):
    """Wrap the block and per-row maximizers; the returned list gets one
    entry per call, in call order: ``(block name, rows)`` for a block
    solve, ``("_kruskal", None)`` for a per-row spanning tree, and
    ``("_cle", "rounds")`` or ``("_cle", "contract")`` for a per-row
    arborescence that runs every round, or only the contraction rounds
    after a block's first round."""
    log = []
    for name in _BLOCKS:
        def watched(*args, solve=getattr(_argmax_module, name), name=name):
            log.append((name, args[-1].shape[0]))
            return solve(*args)

        monkeypatch.setattr(_argmax_module, name, watched)
    kruskal, cle = _argmax_module._kruskal, _argmax_module._cle

    def watched_kruskal(graph, order):
        log.append(("_kruskal", None))
        return kruskal(graph, order)

    def watched_cle(graph, root, work, tie, first=None):
        log.append(("_cle", "rounds" if first is None else "contract"))
        return cle(graph, root, work, tie, first)

    monkeypatch.setattr(_argmax_module, "_kruskal", watched_kruskal)
    monkeypatch.setattr(_argmax_module, "_cle", watched_cle)
    return log
