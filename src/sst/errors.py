"""Exception hierarchy shared by all modules, and the conversion, enum,
finiteness, integer, temperature, solver-control, draw-count and seed
checks every public entry raises through.

Two broad families matter for the CLI exit codes: problems with the
caller's input (``InputError``, exit 1) and failures of a solver on a
well-formed input (``SolverError``, exit 2).
"""

import numbers

import numpy as np


class SstError(Exception):
    """Base class for all package errors."""


class InputError(SstError):
    """The caller supplied an invalid or unsupported input."""


class InvalidSpecError(InputError):
    """A structure descriptor violates its invariants (bad k, malformed graph, ...)."""


class DimensionMismatchError(InputError):
    """A vector does not have the embedding dimension required by its structure."""


class UnsupportedPairError(InputError):
    """The requested (structure, regularizer) combination has no solver."""


class UnsupportedFamilyError(InputError):
    """The requested operation is not defined for this noise family."""


class OutOfSupportError(InputError):
    """A density was evaluated at a point outside the family's support."""


class EnumerationLimitError(InputError):
    """The vertex set is larger than the caller-supplied enumeration guard."""


class SolverError(SstError):
    """A solver failed on a structurally valid instance."""


class InfeasibleStructureError(SolverError):
    """The structure has no feasible point (disconnected graph, no arborescence)."""


class ConvergenceError(SolverError):
    """An iterative solver did not reach its tolerance within max_iter."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericalError(SolverError):
    """A computation lost validity (singular matrix, overflow)."""


def _as_floats(x, what: str, error=InputError) -> np.ndarray:
    """``x`` as a float array; raises ``error("<what> must be an array of
    numbers")`` where numpy cannot convert it (text, ragged rows), and
    ``error("<what> must be finite")`` for an integer past the doubles'
    range, as a float literal past it reads as inf and fails that gate."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be an array of numbers") from exc
    except OverflowError as exc:
        raise error(f"{what} must be finite") from exc


def _as_member(enum, value, what: str):
    """``value`` as a member of ``enum``; raises ``InvalidSpecError("unknown
    <what> <value!r>; choose from ...")`` where it names none."""
    try:
        return enum(value)
    except ValueError as exc:
        choices = ", ".join(member.value for member in enum)
        raise InvalidSpecError(f"unknown {what} {value!r}; choose from {choices}") from exc


def _require_finite(x, what: str, error=InputError) -> None:
    """Raise ``error("<what> must be finite")`` unless every entry of ``x`` is."""
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise error(f"{what} must be finite")


def _require_positive(value, what: str, error=InputError) -> None:
    """Raise ``error("<what> must be > 0")`` unless the real number ``value``
    is above 0 (NaN fails); ``error("<what> must be a real number, got
    <value!r>")`` where it is none, and ``error("<what> is past the range of
    a double")`` for an integer no float holds, which no solve could divide
    by."""
    if not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    try:
        positive = float(value) > 0
    except OverflowError as exc:
        raise error(f"{what} is past the range of a double") from exc
    if not positive:
        raise error(f"{what} must be > 0")


def _require_temperature(t, error=InputError) -> None:
    """Raise ``error`` unless the temperature ``t`` is a real number > 0."""
    _require_positive(t, "temperature", error)


def _require_int(value, what: str, error=InputError) -> int:
    """``value`` as a Python int; raises ``error("<what> must be an integer,
    got <value!r>")`` unless it is a Python or numpy integer (a bool is not
    a count)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def _require_solver_controls(tol, max_iter, error=InputError) -> None:
    """Raise ``error`` unless ``tol > 0`` (NaN fails) and ``max_iter`` is a
    positive integer; a ``max_iter`` of None is the caller's default."""
    _require_positive(tol, "tol", error)
    if max_iter is not None and _require_int(max_iter, "max_iter", error) < 1:
        raise error("max_iter must be positive")


def _require_draws(draws: int, most: int = 2 ** 63 - 1,
                   why: str = "the largest count an int64 tally holds") -> None:
    """Raise ``InputError`` unless ``draws`` is an integer with
    ``1 <= draws <= most``; ``why`` names what sets the cap."""
    if _require_int(draws, "draws") < 1:
        raise InputError("draws must be >= 1")
    if draws > most:
        raise InputError(f"draws must be <= {most}, {why}")


def _require_seed(seed):
    """``seed`` unless it breaks ``0 <= seed < 2**64``, raising ``InputError``
    then; None passes, for a stream seeded from fresh entropy."""
    if seed is not None and not 0 <= _require_int(seed, "seed") < 2 ** 64:
        raise InputError("seed must be an unsigned 64-bit integer")
    return seed
