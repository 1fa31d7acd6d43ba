"""Reparameterizable random-utility families.

Each family maps uniform base noise ``b in (0, 1)^dim`` through a fixed
deterministic transform:

* Gumbel(theta):          u_i = theta_i - log(-log b_i)
* Logistic(theta):        u_i = theta_i + log b_i - log(1 - b_i)
* NegExponential(lambda): u_i = log(b_i) / lambda_i   (so -u ~ Exponential(lambda))
* Gaussian(theta, I):     u_i = theta_i + ndtri(b_i)

Base noise is always caller-supplied (directly or via an explicit
``numpy.random.Generator``), so every draw is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtri

from .errors import (InputError, InvalidSpecError, OutOfSupportError, UnsupportedFamilyError,
                     _as_floats, _as_member, _require_draws, _require_finite)

__all__ = [
    "UtilityFamily",
    "UtilitySpec",
    "UtilityDraw",
    "sample",
    "draw",
    "draw_block",
    "log_density",
    "kl_to_standard",
    "utility_to_dict",
    "utility_from_dict",
]


class UtilityFamily(str, Enum):
    GUMBEL = "gumbel"
    LOGISTIC = "logistic"
    NEG_EXPONENTIAL = "neg_exponential"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class UtilitySpec:
    """A product distribution over utilities.

    ``theta`` holds locations (Gumbel, Logistic, Gaussian) or strictly
    positive rates (NegExponential); coordinates are independent.
    """

    family: UtilityFamily
    theta: np.ndarray

    def __post_init__(self):
        family = _as_member(UtilityFamily, self.family, "utility family")
        theta = _as_floats(self.theta, "theta", InvalidSpecError)
        if theta.ndim != 1:
            raise InvalidSpecError("theta must be a 1-d vector")
        _require_finite(theta, "theta", InvalidSpecError)
        if family == UtilityFamily.NEG_EXPONENTIAL and not (theta > 0).all():
            raise InvalidSpecError("neg_exponential rates must be strictly positive")
        theta.setflags(write=False)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class UtilityDraw:
    """A utility realization together with the base noise that produced it.

    Both arrays have shape ``(dim,)``, or ``(draws, dim)`` from ``draw_block``.
    """

    u: np.ndarray
    base: np.ndarray


def _transform(spec: UtilitySpec, base: np.ndarray) -> UtilityDraw:
    """Map base noise of shape ``(..., dim)`` to utilities, rowwise."""
    if not ((base > 0.0) & (base < 1.0)).all():
        raise InputError("base noise must be strictly inside (0, 1)")
    th = spec.theta
    if spec.family == UtilityFamily.GUMBEL:
        u = th - np.log(-np.log(base))
    elif spec.family == UtilityFamily.LOGISTIC:
        u = th + np.log(base) - np.log1p(-base)
    elif spec.family == UtilityFamily.NEG_EXPONENTIAL:
        u = np.log(base) / th
    else:  # Gaussian
        u = th + ndtri(base)
    return UtilityDraw(u=u, base=base)


def sample(spec: UtilitySpec, base: np.ndarray) -> UtilityDraw:
    """Transform uniform base noise into a utility draw.

    ``base`` must lie strictly inside (0, 1) coordinatewise; endpoints
    map to infinite utilities and are rejected.
    """
    base = _as_floats(base, "base noise")
    if base.shape != (spec.dim,):
        raise InputError(f"base noise must have shape ({spec.dim},), got {base.shape}")
    return _transform(spec, base)


def _open_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    """``dim`` doubles from ``rng``, exact zeros redrawn in place."""
    base = rng.random(dim)
    zero = base == 0.0
    while zero.any():
        base[zero] = rng.random(int(zero.sum()))
        zero = base == 0.0
    return base


def draw(spec: UtilitySpec, rng: np.random.Generator) -> UtilityDraw:
    """Draw base noise from ``rng`` and transform it.

    ``Generator.random`` can return exact zeros; those are redrawn so
    the base stays in the open interval.
    """
    return sample(spec, _open_unit(rng, spec.dim))


def draw_block(spec: UtilitySpec, rng: np.random.Generator, draws: int) -> UtilityDraw:
    """``draws`` utility draws as ``(draws, dim)`` arrays from one generator call.

    Consumes ``rng`` exactly as ``draws`` sequential ``draw(spec, rng)``
    calls do and returns the same bytes row by row: ``rng.random((D, n))``
    yields the doubles of ``D`` calls of ``rng.random(n)``.  A block
    holding an exact zero (2**-53 per double) is thrown away: the saved
    generator state is restored and every row is drawn again through
    ``draw``'s redraw rule.
    """
    _require_draws(draws, np.iinfo(np.intp).max // (8 * max(spec.dim, 1)),
                   f"the most rows of {spec.dim} doubles one array holds")
    state = rng.bit_generator.state
    base = rng.random((draws, spec.dim))
    if not base.all():
        rng.bit_generator.state = state
        base = np.stack([_open_unit(rng, spec.dim) for _ in range(draws)])
    return _transform(spec, base)


def log_density(spec: UtilitySpec, u: np.ndarray) -> float:
    """Sum of per-coordinate log densities at ``u``."""
    u = _as_floats(u, "u")
    if u.shape != (spec.dim,):
        raise InputError(f"u must have shape ({spec.dim},), got {u.shape}")
    _require_finite(u, "u")
    th = spec.theta
    if spec.family == UtilityFamily.GUMBEL:
        z = u - th
        with np.errstate(over="ignore"):  # exp(-z) -> inf saturates to -inf honestly
            return float(np.sum(-z - np.exp(-z)))
    if spec.family == UtilityFamily.LOGISTIC:
        z = u - th
        return float(np.sum(-z - 2.0 * np.logaddexp(0.0, -z)))
    if spec.family == UtilityFamily.NEG_EXPONENTIAL:
        if (u > 0).any():
            raise OutOfSupportError("neg_exponential utilities must satisfy u <= 0")
        return float(np.sum(np.log(th) + th * u))
    z = u - th  # Gaussian
    return float(np.sum(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)))


def kl_to_standard(spec: UtilitySpec) -> float:
    """KL divergence from Gumbel(theta) to Gumbel(0), summed over coordinates.

    Per coordinate the divergence is ``theta + exp(-theta) - 1``. Only
    the Gumbel family has this closed form here.
    """
    if spec.family != UtilityFamily.GUMBEL:
        raise UnsupportedFamilyError(
            f"kl_to_standard is defined for the gumbel family only, got {spec.family.value}"
        )
    th = spec.theta
    return float(np.sum(th + np.exp(-th) - 1.0))


# --- JSON wire format -------------------------------------------------------

def utility_to_dict(spec: UtilitySpec) -> dict:
    return {"family": spec.family.value, "theta": [float(v) for v in spec.theta]}


def utility_from_dict(d: dict) -> UtilitySpec:
    try:
        family = UtilityFamily(d["family"])
        theta = np.asarray(d["theta"], dtype=float)
    except (KeyError, IndexError, ValueError, TypeError, OverflowError) as exc:
        raise InvalidSpecError(f"malformed utility spec: {d!r}") from exc
    return UtilitySpec(family=family, theta=theta)
