"""Exception hierarchy shared by all modules, and the conversion,
finiteness, integer, temperature, solver-control and draw-count checks
every public entry raises through.

Two broad families matter for the CLI exit codes: problems with the
caller's input (``InputError``, exit 1) and failures of a solver on a
well-formed input (``SolverError``, exit 2).
"""

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


def _require_finite(x, what: str, error=InputError) -> None:
    """Raise ``error("<what> must be finite")`` unless every entry of ``x`` is."""
    if not np.isfinite(x).all():
        raise error(f"{what} must be finite")


def _require_temperature(t, error=InputError) -> None:
    """Raise ``error("temperature must be > 0")`` unless ``t > 0`` (NaN fails)."""
    if not t > 0:
        raise error("temperature must be > 0")


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
    if not tol > 0:
        raise error("tol must be > 0")
    if max_iter is not None and _require_int(max_iter, "max_iter", error) < 1:
        raise error("max_iter must be positive")


def _require_draws(draws: int) -> None:
    """Raise ``InputError`` unless ``draws`` is an integer >= 1."""
    if _require_int(draws, "draws") < 1:
        raise InputError("draws must be >= 1")
