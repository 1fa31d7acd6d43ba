"""A watch on the shift searches of the separable k-subset relaxations,
shared by the test modules: how many times each search evaluates its
coordinate map."""

import importlib

_relax_module = importlib.import_module("sst.relax")


def watch_shift_solves(monkeypatch):
    """Wrap ``relax._newton_shift``; the returned list gets one entry per
    search, in call order: the number of evaluations of its coordinate map,
    whether the search returned or raised."""
    log = []
    search = _relax_module._newton_shift

    def watched(values_of, slope_of, target, z, tol, max_iter):
        count = [0]

        def counted(w):
            count[0] += 1
            return values_of(w)

        try:
            return search(counted, slope_of, target, z, tol, max_iter)
        finally:
            log.append(count[0])

    monkeypatch.setattr(_relax_module, "_newton_shift", watched)
    return log
