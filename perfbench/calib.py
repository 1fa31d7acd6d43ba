"""Drift calibration: a fixed reference computation timed after every call.

On a shared host the CPU runs the same code at different speeds from
moment to moment (another tenant on the sibling hyperthread, frequency
changes), so raw wall times move by 20 % or more between runs.  The
reference below is a short, fixed mix of the two things ``sst`` spends
its time on, interpreted Python and small numpy calls, and contains no
``sst`` code.  Timing it right after a call measures how fast the CPU is
running at that moment; a call's normalized time is

    wall time * NOMINAL_REF_S / (reference time measured around the call)

(see ``Meter``), so a normalized second is a second on this host when it runs the
reference in NOMINAL_REF_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of ``reference()`` on the host the README's figures come from
# (2-core x86-64 VM, Python 3.11.7, numpy 2.4.6) while its CPU runs at full
# speed; under contention the reference takes up to 1.8 times as long.  A
# constant: changing it rescales every normalized figure.
NOMINAL_REF_S = 0.00075

_SEED_VEC = np.linspace(0.0, 1.0, 32)


def reference() -> float:
    """The fixed reference computation: a pure-Python loop, then small numpy ops."""
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
    a = _SEED_VEC
    for _ in range(150):
        a = np.sqrt(a * a + 1.0) - np.log1p(a)
        a[0] = a.max()
    return acc + float(a.sum())


def ref_time() -> float:
    """Wall time of one run of the reference."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Meter:
    """Accumulates raw and normalized time of the calls it times.

    ``timed(fn)`` runs ``fn()``, then the reference, and returns
    ``(result, raw_s, factor)``; ``raw_s * factor`` is the call's
    normalized time.  The reference time a call is divided by is the mean
    of the reference runs on either side of it (the one after the previous
    call and the one after this call): the CPU's speed changes within tens
    of milliseconds, and the two-sided mean tracks the speed during the
    call better than either side alone.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.calls = 0
        self.refs = []
        self._last_ref = ref_time()

    def timed(self, fn):
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        ref = ref_time()
        self.refs.append(ref)
        factor = NOMINAL_REF_S / (0.5 * (self._last_ref + ref))
        self._last_ref = ref
        self.raw_s += raw
        self.norm_s += raw * factor
        self.calls += 1
        return out, raw, factor

    def ref_ms(self) -> float:
        return 1e3 * statistics.median(self.refs) if self.refs else 0.0


def window_factor(seconds: float = 0.3) -> float:
    """Normalization factor for a long one-off interval that just ended.

    The reference is run back to back for ``seconds`` and its mean time
    taken: over an interval of a second or more the CPU changes speed many
    times, and the mean over an adjacent window estimates the mix of
    speeds better than any single run.
    """
    refs = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        refs.append(ref_time())
    return NOMINAL_REF_S / statistics.fmean(refs)
