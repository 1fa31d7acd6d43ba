"""A watch on the two paths of the tree and arborescence solves, shared by
the test modules: the certified inverse over the whole block, then the
log-domain elimination kernel on the rows it rejected, and the log pivots
a point reads off a certified row."""

import importlib

import numpy as np

_relax_module = importlib.import_module("sst.relax")


def watch_tree_solves(monkeypatch):
    """Wrap both paths and ``_log_pivots``; the returned list gets
    ``("inverse", certified mask)``, ``("kernel", log weights)`` and
    ``("pivots", reduced Laplacians)`` entries in call order."""
    log = []
    inverse = _relax_module._tree_rows_by_inverse
    kernel = _relax_module._tree_marginals_by_logdet
    pivots = _relax_module._log_pivots

    def watched_inverse(*args):
        out = inverse(*args)
        log.append(("inverse", out[1].copy()))
        return out

    def watched_kernel(nn, src, dst, theta, directed):
        log.append(("kernel", theta.copy()))
        return kernel(nn, src, dst, theta, directed)

    def watched_pivots(red, directed):
        log.append(("pivots", np.array(red)))
        return pivots(red, directed)

    monkeypatch.setattr(_relax_module, "_tree_rows_by_inverse", watched_inverse)
    monkeypatch.setattr(_relax_module, "_tree_marginals_by_logdet", watched_kernel)
    monkeypatch.setattr(_relax_module, "_log_pivots", watched_pivots)
    return log


def assert_one_solve_per_block(log, u, t, point=False):
    """The block of utility rows ``u`` at temperature ``t`` took one inverse,
    then at most one kernel call, which got exactly the rejected rows; a
    ``point`` (one row whose spread is reported) then took one
    ``_log_pivots`` call if its row was certified, and a block none.
    Returns the certified mask."""
    theta = u / t
    theta = theta - theta.max(axis=1, keepdims=True)
    assert log[0][0] == "inverse"
    ok = log[0][1]
    want = ["inverse"] if ok.all() else ["inverse", "kernel"]
    if point and ok.all():
        want.append("pivots")
    assert [entry[0] for entry in log] == want
    if not ok.all():
        assert log[1][1].tobytes() == theta[~ok].tobytes()
    if "pivots" in want:
        assert len(u) == 1 and len(log[-1][1]) == 1
    return ok
