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
    if isinstance(payload, list):
        lines = []
        for i, row in enumerate(payload):
            if isinstance(row, dict):
                if i == 0:
                    lines.append(",".join(row))
                lines.append(",".join(_dumps(v) for v in row.values()))
            else:
                lines.append(f"{i},{_dumps(row)}")
        return lines
    if isinstance(payload, dict):
        return [f"{k},{_dumps(v)}" for k, v in payload.items()]
    return [_dumps(payload)]


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


def _add_io_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sst", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="maximize utilities over the vertex set")
    p.add_argument("--spec", required=True)
    p.add_argument("--utilities", required=True)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_solve)

    p = subs.add_parser("sample", help="draw argmax solutions under random utilities")
    p.add_argument("--spec", required=True)
    p.add_argument("--noise", required=True, help="utility distribution JSON")
    p.add_argument("--seed", type=_uint64, required=True)
    p.add_argument("--draws", type=int, default=1)
    p.add_argument("--raw", action="store_true", help="emit raw draws instead of a frequency table")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_sample)

    p = subs.add_parser("relax", help="solve the regularized program at a temperature")
    p.add_argument("--spec", required=True)
    p.add_argument("--utilities", required=True)
    p.add_argument("--regularizer", required=True, choices=_REGULARIZER_CHOICES)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_relax)

    p = subs.add_parser("marginals", help="exponential-family marginals")
    p.add_argument("--spec", required=True)
    p.add_argument("--utilities", required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--bruteforce", action="store_true",
                   help="use the enumeration oracle instead of the structured solver")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_marginals)

    p = subs.add_parser("gradcheck", help="finite-difference Jacobian validation")
    p.add_argument("--spec", required=True)
    p.add_argument("--utilities", default=None)
    p.add_argument("--regularizer", required=True, choices=_REGULARIZER_CHOICES)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=20_000, dest="max_iter")
    p.add_argument("--seed", type=_uint64, default=0)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_gradcheck)

    p = subs.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p.add_argument("--seed", type=_uint64, required=True)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = subs.add_parser("enumerate", help="list every vertex of a small instance")
    p.add_argument("--spec", required=True)
    p.add_argument("--limit", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_enumerate)

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
