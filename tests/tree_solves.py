"""A watch on the two paths of the tree and arborescence solves, shared by
the test modules: the certified inverse over the whole block, which also
forms every row's condition number, then the log-domain elimination
kernel on the rows it rejected."""

import importlib

_relax_module = importlib.import_module("sst.relax")


def watch_tree_solves(monkeypatch):
    """Wrap both paths; the returned list gets ``("inverse", certified
    mask)`` and ``("kernel", log weights)`` entries in call order."""
    log = []
    inverse = _relax_module._tree_rows_by_inverse
    kernel = _relax_module._tree_marginals_by_logdet

    def watched_inverse(*args):
        out = inverse(*args)
        log.append(("inverse", out[1].copy()))
        return out

    def watched_kernel(nn, src, dst, theta, directed):
        log.append(("kernel", theta.copy()))
        return kernel(nn, src, dst, theta, directed)

    monkeypatch.setattr(_relax_module, "_tree_rows_by_inverse", watched_inverse)
    monkeypatch.setattr(_relax_module, "_tree_marginals_by_logdet", watched_kernel)
    return log


def assert_one_solve_per_block(log, u, t):
    """The block of utility rows ``u`` at temperature ``t`` took one inverse,
    then at most one kernel call, which got exactly the rejected rows; a
    point reads its condition estimate off the inverse, so it takes no
    other call.  Returns the certified mask."""
    theta = u / t
    theta = theta - theta.max(axis=1, keepdims=True)
    assert log[0][0] == "inverse"
    ok = log[0][1]
    assert [entry[0] for entry in log] == (["inverse"] if ok.all() else ["inverse", "kernel"])
    if not ok.all():
        assert log[1][1].tobytes() == theta[~ok].tobytes()
    return ok
