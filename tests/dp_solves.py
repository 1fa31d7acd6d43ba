"""A watch on the two paths of the k-subset and chain DPs, shared by the
test modules: the linear-domain kernel on the rows the certificate
accepts, then the log-domain kernel on the rows it rejected."""

import importlib

import numpy as np

_relax_module = importlib.import_module("sst.relax")

# kernel name -> (path, position of the scores among its arguments)
_KERNELS = {
    "_cardinality_dp_linear": ("linear", 0),
    "_chain_dp_linear": ("linear", 2),
    "_cardinality_dp_marginals": ("log", 0),
    "_chain_dp_marginals": ("log", 2),
}


def watch_dp_solves(monkeypatch):
    """Wrap the four DP kernels; the returned list gets ``("linear", z)``
    and ``("log", z)`` entries, with the rows of scores each call got, in
    call order."""
    log = []
    for name, (path, arg) in _KERNELS.items():
        def watched(*args, kernel=getattr(_relax_module, name), path=path, arg=arg):
            log.append((path, np.array(args[arg])))
            return kernel(*args)

        monkeypatch.setattr(_relax_module, name, watched)
    return log


def assert_one_solve_per_dp_block(log, u, t, n, k):
    """The block of utility rows ``u`` at temperature ``t`` took at most one
    linear-kernel call, on exactly the rows ``_dp_certified`` accepts,
    then at most one log-kernel call, on exactly the others, so no row
    paid for both.  Returns the certified mask."""
    z = u / t
    ok = _relax_module._dp_certified(z, n, k)
    want = [("linear", z[ok])] if ok.any() else []
    if not ok.all():
        want.append(("log", z[~ok]))
    assert [entry[0] for entry in log] == [entry[0] for entry in want]
    for (_, got), (_, rows) in zip(log, want):
        assert got.tobytes() == rows.tobytes()
    return ok
