"""Command-line front end.

Subcommands: solve, sample, relax, marginals, gradcheck, verify,
enumerate.  Inputs are JSON files; results go to stdout (or --out) as
JSON by default or CSV with --format csv.  Exit codes: 0 success,
1 invalid input, 2 solver failure, 3 verification failure.

Determinism: --seed S feeds ``numpy.random.default_rng(S)`` (PCG64
behind ``SeedSequence(S)``); identical inputs and seeds produce
byte-identical output.  The enumeration guard for oracle paths
defaults to 10000 vertices and can be overridden with SST_MAX_ENUM.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import verify as verify_mod
from .argmax import _map_chunks, solve_map
from .errors import (InputError, SolverError, _as_floats, _require_draws, _require_finite,
                     _require_seed)
from .grad import FDConfig, gradcheck
from .relax import RelaxationSpec, Regularizer, expfam_marginals, relax
from .structures import (
    StructureSpec,
    default_enum_limit,
    embedding_dim,
    enumerate_vertices,
    spec_from_dict,
)
from .utilities import draw_block, utility_from_dict
from .verify import SUITE_NAMES, _tally_rows, gibbs_marginals_bruteforce

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_SOLVER_FAILURE = 2
EXIT_VERIFICATION_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; remap to 1 so that
    # exit code 2 stays reserved for solver failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INVALID_INPUT)


def _uint64(text: str) -> int:
    try:
        return _require_seed(int(text))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_spec(path: str) -> StructureSpec:
    return spec_from_dict(_load_json(path))


def _load_vector(path: str) -> np.ndarray:
    """The utilities in ``path``; their length is checked by the entry they go to."""
    raw = _load_json(path)
    if isinstance(raw, dict) and "u" in raw:
        raw = raw["u"]
    vec = _as_floats(raw, f"{path}: utilities")
    _require_finite(vec, f"{path}: utilities")
    return vec


def _dumps(value, **kwargs) -> str:
    # numpy arrays and scalars go through tolist(); numpy floats are floats
    # and serialize as such
    return json.dumps(value, default=lambda v: v.tolist(), **kwargs)


def _table_json(support: np.ndarray, counts: np.ndarray, total: int) -> str:
    """``_dumps`` of a frequency table with sorted keys, the 0/1 ``support``
    rows written as bytes: one ``[d, d, ...], `` template per row with the
    digits added in place."""
    rows, width = support.shape
    template = np.frombuffer(f"[{', '.join('0' * width)}], ".encode(), dtype=np.uint8)
    buf = np.tile(template, (rows, 1))
    buf[:, 1:3 * width:3] += support.astype(np.uint8)
    body = buf.tobytes()[:-2].decode("ascii")
    return f'{{"counts": {_dumps(counts)}, "support": [{body}], "total": {total}}}'


def _csv_lines(payload) -> list:
    """A dict payload as ``key,value`` lines; ``sst verify``'s list of report
    dicts as a header of every key the reports hold, in first-seen order, and
    one line per report, a key it lacks left as an empty cell."""
    if isinstance(payload, dict):
        return [f"{k},{_dumps(v)}" for k, v in payload.items()]
    keys = list(dict.fromkeys(k for row in payload for k in row))
    return [",".join(keys)] + [",".join(_dumps(row[k]) if k in row else "" for k in keys)
                               for row in payload]


def _emit(payload, args) -> None:
    if args.format == "csv":
        _write("\n".join(_csv_lines(payload)), args)
    else:
        _write(_dumps(payload, sort_keys=True), args)


def _write(text: str, args) -> None:
    text += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


_REGULARIZER_ALIASES = {"expfam": Regularizer.EXPFAM_ENTROPY}
_REGULARIZER_CHOICES = [r.value for r in Regularizer] + sorted(_REGULARIZER_ALIASES)


def _relaxation_from_args(args) -> RelaxationSpec:
    try:
        reg = _REGULARIZER_ALIASES.get(args.regularizer) or Regularizer(args.regularizer)
    except ValueError as exc:
        raise InputError(f"unknown regularizer {args.regularizer!r}") from exc
    return RelaxationSpec(
        regularizer=reg,
        temperature=args.temperature,
        tol=args.tol,
        max_iter=args.max_iter,
    )


def _cmd_solve(args) -> int:
    spec = _load_spec(args.spec)
    u = _load_vector(args.utilities)
    _emit(asdict(solve_map(spec, u)), args)
    return EXIT_OK


def _cmd_sample(args) -> int:
    spec = _load_spec(args.spec)
    uspec = utility_from_dict(_load_json(args.noise))
    if uspec.dim != embedding_dim(spec):
        raise InputError(
            f"noise dimension {uspec.dim} != embedding dimension {embedding_dim(spec)}"
        )
    if not args.raw or args.draws > 0:
        _require_draws(args.draws)
    elif args.draws < 0:
        raise InputError("draws must be >= 0 with --raw")
    # Each chunk's noise block holds the bytes of the same number of
    # sequential draws, so the output of a seed does not depend on chunking.
    rng = np.random.default_rng(args.seed)
    blocks = _map_chunks(spec, lambda rows: draw_block(uspec, rng, rows).u, args.draws)
    if args.raw:
        _emit({"draws": np.concatenate([np.zeros((0, uspec.dim), np.int8), *blocks])}, args)
    else:
        support, counts = _tally_rows(blocks)
        if args.format == "json":
            _write(_table_json(support, counts, args.draws), args)
        else:
            _emit({"support": support, "counts": counts, "total": args.draws}, args)
    return EXIT_OK


def _cmd_relax(args) -> int:
    spec = _load_spec(args.spec)
    u = _load_vector(args.utilities)
    rspec = _relaxation_from_args(args)
    _emit(asdict(relax(spec, rspec, u)), args)
    return EXIT_OK


def _cmd_marginals(args) -> int:
    spec = _load_spec(args.spec)
    u = _load_vector(args.utilities)
    if args.bruteforce:
        mu = gibbs_marginals_bruteforce(spec, u, args.temperature)
        _emit({"marginals": mu, "method": "enumeration"}, args)
    else:
        point = expfam_marginals(spec, u, args.temperature)
        _emit({"marginals": point.x, "method": "structured"}, args)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    spec = _load_spec(args.spec)
    if args.utilities:
        u = _load_vector(args.utilities)
    else:
        u = np.random.default_rng(args.seed).normal(size=embedding_dim(spec))
    rspec = _relaxation_from_args(args)
    report = gradcheck(
        spec, rspec, u, tolerance=args.tolerance, fd=FDConfig(epsilon=args.epsilon)
    )
    _emit(report.to_dict(), args)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILURE


def _cmd_verify(args) -> int:
    reports = verify_mod.run_suite(args.suite, args.seed)
    _emit(reports, args)
    failed = [r for r in reports if not r["passed"]]
    return EXIT_VERIFICATION_FAILURE if failed else EXIT_OK


def _cmd_enumerate(args) -> int:
    spec = _load_spec(args.spec)
    limit = args.limit if args.limit is not None else default_enum_limit()
    verts = enumerate_vertices(spec, limit)
    _emit({"count": len(verts), "vertices": [list(map(int, v)) for v in verts]}, args)
    return EXIT_OK


# The subcommands as (name, handler, help, flags), each flag a (flag,
# add_argument keywords) pair; a subcommand takes its flags in order, then
# the output flags.  A flag several subcommands share is declared once.
_SPEC = ("--spec", dict(required=True))
_UTILITIES = ("--utilities", dict(required=True))
_REGULARIZER = ("--regularizer", dict(required=True, choices=_REGULARIZER_CHOICES))
_TEMPERATURE = ("--temperature", dict(type=float, default=1.0))
_OUTPUT = (("--format", dict(choices=("json", "csv"), default="json")),
           ("--out", dict(default=None, help="write output here instead of stdout")))
_COMMANDS = (
    ("solve", _cmd_solve, "maximize utilities over the vertex set", (_SPEC, _UTILITIES)),
    ("sample", _cmd_sample, "draw argmax solutions under random utilities", (
        _SPEC, ("--noise", dict(required=True, help="utility distribution JSON")),
        ("--seed", dict(type=_uint64, required=True)), ("--draws", dict(type=int, default=1)),
        ("--raw", dict(action="store_true", help="emit raw draws instead of a frequency table")))),
    ("relax", _cmd_relax, "solve the regularized program at a temperature", (
        _SPEC, _UTILITIES, _REGULARIZER, _TEMPERATURE, ("--tol", dict(type=float, default=1e-10)),
        ("--max-iter", dict(type=int, default=None, dest="max_iter")))),
    ("marginals", _cmd_marginals, "exponential-family marginals", (
        _SPEC, _UTILITIES, _TEMPERATURE,
        ("--bruteforce", dict(action="store_true", help="use the enumeration oracle "
                              "instead of the structured solver")))),
    ("gradcheck", _cmd_gradcheck, "finite-difference Jacobian validation", (
        _SPEC, ("--utilities", dict(default=None)), _REGULARIZER, _TEMPERATURE,
        ("--epsilon", dict(type=float, default=1e-4)),
        ("--tolerance", dict(type=float, default=1e-6)),
        ("--tol", dict(type=float, default=1e-12)),
        ("--max-iter", dict(type=int, default=20_000, dest="max_iter")),
        ("--seed", dict(type=_uint64, default=0)))),
    ("verify", _cmd_verify, "run a named verification suite", (
        ("--suite", dict(required=True, choices=list(SUITE_NAMES))),
        ("--seed", dict(type=_uint64, required=True)))),
    ("enumerate", _cmd_enumerate, "list every vertex of a small instance",
     (_SPEC, ("--limit", dict(type=int, default=None)))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sst", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, text, flags in _COMMANDS:
        p = subs.add_parser(name, help=text)
        for flag, settings in flags + _OUTPUT:
            p.add_argument(flag, **settings)
        p.set_defaults(fn=fn)
    return parser


def _fail(code: str, exc: Exception, exit_code: int) -> int:
    sys.stderr.write(
        json.dumps(
            {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True,
        )
        + "\n"
    )
    return exit_code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs a few milliseconds; parse_args leaves it unchanged
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        return _fail("invalid_input", exc, EXIT_INVALID_INPUT)
    except SolverError as exc:
        return _fail("solver_failure", exc, EXIT_SOLVER_FAILURE)


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
