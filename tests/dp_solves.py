"""A watch on the two semirings of the k-subset and chain DPs, shared by
the test modules: the linear semiring on the rows the certificate
accepts, then the log semiring on the rows it rejected."""

import importlib

import numpy as np

_relax_module = importlib.import_module("sst.relax")

# kernel name -> position of the scores among its arguments
_KERNELS = {"_cardinality_dp": 0, "_chain_dp": 2}


def watch_dp_solves(monkeypatch):
    """Wrap the two DP kernels; the returned list gets ``("linear", z)`` and
    ``("log", z)`` entries, naming the semiring of each call and the rows
    of scores it got, in call order."""
    log = []
    for name, arg in _KERNELS.items():
        def watched(*args, kernel=getattr(_relax_module, name), arg=arg):
            semiring = args[-1]
            assert semiring is _relax_module._LINEAR or semiring is _relax_module._LOG
            log.append(("linear" if semiring is _relax_module._LINEAR else "log",
                        np.array(args[arg])))
            return kernel(*args)

        monkeypatch.setattr(_relax_module, name, watched)
    return log


def assert_one_solve_per_dp_block(log, u, t, n, k):
    """The block of utility rows ``u`` at temperature ``t`` took at most one
    linear-semiring call, on exactly the rows ``_dp_certified`` accepts,
    then at most one log-semiring call, on exactly the others, so no row
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
