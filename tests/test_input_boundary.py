"""Caller values that numpy cannot read as numbers (text, ragged rows), and
unknown names, wrong shapes, scalars and seeds, are rejected at every
public entry with an ``InputError`` naming the value, not with numpy's or
the standard library's bare ``ValueError``, ``TypeError``, ``IndexError`` or
``OverflowError``."""

import argparse
import importlib
import warnings

import numpy as np
import pytest

from sst import (
    FDConfig,
    FrequencyTable,
    InputError,
    InvalidSpecError,
    RelaxationSpec,
    Regularizer,
    SstError,
    StructureKind,
    StructureSpec,
    UtilitySpec,
    chi_square_gof,
    directed_matrix_tree_marginals,
    draw_block,
    fd_vjp,
    gradcheck,
    hungarian_match,
    is_vertex,
    kruskal_max_tree,
    log_density,
    matrix_tree_marginals,
    relax,
    sample,
    sample_topk_without_replacement,
    sinkhorn_relax,
    softmax_simplex,
    spec_from_dict,
    topk_select,
    utility_from_dict,
)
from sst.cli import _relaxation_from_args
from sst.grad import analytic_jacobian
from sst.verify import gibbs_marginals_bruteforce, mc_frequencies, run_suite

from graphs import D3, K4, complete_digraph, complete_graph
from test_iterative_solvers import MAPS, _bisect_oracle

_scaled = importlib.import_module("sst.relax")._scaled

ONE_HOT = StructureSpec(StructureKind.ONE_HOT, n=2)
SHANNON = RelaxationSpec(Regularizer.SHANNON)
GUMBEL = UtilitySpec("gumbel", [0.0, 0.0])
TABLE = FrequencyTable(support=((1, 0), (0, 1)), counts=np.array([50, 50]), total=100)

# (entry, call, error type, the value's name in the message)
ENTRIES = [
    ("relax", lambda: relax(ONE_HOT, SHANNON, ["a", "b"]), InputError, "input"),
    ("is_vertex", lambda: is_vertex(ONE_HOT, ["a", "b"]), InputError, "input"),
    ("fd_vjp", lambda: fd_vjp(ONE_HOT, SHANNON, [0.0, 1.0], ["a", "b"], FDConfig()),
     InputError, "direction"),
    ("topk_select", lambda: topk_select(["a", "b", "c"], 1), InputError, "utilities"),
    ("sample_topk", lambda: sample_topk_without_replacement(
        [[1.0], [2.0, 3.0]], 1, np.random.default_rng(0)), InputError, "scores"),
    ("kruskal_max_tree", lambda: kruskal_max_tree(K4, ["a"]), InputError, "edge utilities"),
    ("matrix_tree_marginals", lambda: matrix_tree_marginals(K4, [[0.0], [1.0, 2.0]]),
     InputError, "edge utilities"),
    ("directed_matrix_tree_marginals",
     lambda: directed_matrix_tree_marginals(D3, 0, ["x"] * D3.num_edges), InputError,
     "edge utilities"),
    ("sinkhorn_relax", lambda: sinkhorn_relax([[1, 2], [3]], 1.0), InputError, "utility matrix"),
    ("hungarian_match", lambda: hungarian_match([["a", "b"], ["c", "d"]]), InputError,
     "utility matrix"),
    ("warm_start", lambda: sinkhorn_relax(np.zeros((2, 2)), 1.0, warm_start=[[0.0, 0.0], [0.0]]),
     InputError, "warm_start"),
    ("softmax_simplex", lambda: softmax_simplex(["a", "b"], 1.0), InputError, "utilities"),
    ("scaled", lambda: _scaled([[1.0], [1.0, 2.0]], 1.0), InputError, "utilities"),
    ("UtilitySpec", lambda: UtilitySpec("gumbel", ["a"]), InvalidSpecError, "theta"),
    ("sample", lambda: sample(GUMBEL, ["x", "y"]), InputError, "base noise"),
    ("log_density", lambda: log_density(GUMBEL, ["x", "y"]), InputError, "u"),
    ("chi_square_gof", lambda: chi_square_gof(TABLE, ["half", "half"]), InputError,
     "expected probabilities"),
]


@pytest.mark.parametrize("call, error, what", [entry[1:] for entry in ENTRIES],
                         ids=[entry[0] for entry in ENTRIES])
def test_non_numeric_input_is_an_input_error(call, error, what):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == f"{what} must be an array of numbers"
    assert isinstance(info.value.__cause__, (TypeError, ValueError))


def test_numeric_input_keeps_its_errors():
    """Numbers, as text that numpy reads too, still reach the shape checks."""
    with pytest.raises(InputError, match=r"^expected a vector of length 2, got shape \(3,\)$"):
        relax(ONE_HOT, SHANNON, ["1", "2", "3"])
    with pytest.raises(InputError, match=r"^utility matrix must be square, got shape \(2, 1\)$"):
        sinkhorn_relax([[1.0], [2.0]], 1.0)
    assert relax(ONE_HOT, SHANNON, ["0", "0"]).x.tolist() == [0.5, 0.5]


# an integer past the doubles' range, as a JSON file may hold one
HUGE = 10 ** 400


@pytest.mark.parametrize("call, error, what", [
    (lambda: topk_select([1, HUGE, 3], 1), InputError, "utilities"),
    (lambda: relax(ONE_HOT, SHANNON, [1, HUGE]), InputError, "input"),
    (lambda: softmax_simplex([1, HUGE], 1.0), InputError, "utilities"),
    (lambda: UtilitySpec("gumbel", [0, HUGE]), InvalidSpecError, "theta"),
], ids=["topk_select", "relax", "softmax_simplex", "UtilitySpec"])
def test_integer_past_the_double_range_is_not_finite(call, error, what):
    """Such an integer fails the finiteness gate, as the float literal 1e400
    (read as inf) does, and not with a bare ``OverflowError``."""
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == f"{what} must be finite"
    assert isinstance(info.value.__cause__, OverflowError)


def test_utility_spec_dict_with_an_integer_past_the_double_range():
    with pytest.raises(InvalidSpecError, match="^malformed utility spec"):
        utility_from_dict({"family": "gumbel", "theta": [0, HUGE]})


def _choices(enum):
    return ", ".join(member.value for member in enum)


def _singular_tree_point_reports_inf():
    # K6 at t = 1e-4: the reduced Laplacian is singular in double precision
    u = np.random.default_rng(11).normal(size=15)
    return matrix_tree_marginals(complete_graph(6), u, 1e-4).condition_estimate == np.inf


def _singular_arborescence_point_reports_inf():
    # here the inverse's marginals subtract inf from inf, which warns unless
    # the solve silences it
    u = np.random.default_rng(44).normal(size=20)
    point = directed_matrix_tree_marginals(complete_digraph(5), 0, u, 1e-3)
    return point.condition_estimate == np.inf and abs(point.x.sum() - 4.0) <= 1e-12


# finite scores whose differences pass the doubles at t = 1
EXTREMES = np.array([1e308, -1e308, 0.0])
ONE_OF_THREE = StructureSpec(StructureKind.K_SUBSETS, n=3, k=1)


def _extreme_shift_point(reg):
    """The shift search's point, where ``z - nu`` passes the doubles, is
    the bisection oracle's."""
    solve, values_of = MAPS[reg]
    point = solve(ONE_OF_THREE, EXTREMES, 1.0)
    with np.errstate(over="ignore"):  # the oracle's own bracket passes the doubles
        want = values_of(EXTREMES - _bisect_oracle(values_of, 1, EXTREMES, 1e-10))
    return np.abs(point.x - want).max() <= 1e-8 and abs(point.x.sum() - 1.0) <= 1e-10


def _extreme_softmax_points():
    """The softmax rows, on the simplex and as its one-hot relaxations,
    are the enumerated marginals, which put all mass on the largest score."""
    spec = StructureSpec(StructureKind.ONE_HOT, n=3)
    want = gibbs_marginals_bruteforce(spec, EXTREMES, 1.0)
    points = [softmax_simplex(EXTREMES, 1.0).x] + [
        relax(spec, RelaxationSpec(reg), EXTREMES).x
        for reg in (Regularizer.SHANNON, Regularizer.CATEGORICAL_ENTROPY)]
    return want.tolist() == [1.0, 0.0, 0.0] and all(np.array_equal(x, want) for x in points)


def _extreme_gibbs_covariance():
    """The enumerated covariance of a point mass is 0."""
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY)
    return not analytic_jacobian(ONE_OF_THREE, rspec, EXTREMES).any()


# the most (draws, 2) rows of doubles numpy can shape
MAX_DRAWS = np.iinfo(np.intp).max // 16


def _sampler(rng):
    return np.zeros(2)


# (id, call, error type and message, or None twice for a call that returns True)
BOUNDARY = [
    ("StructureSpec-name", lambda: StructureSpec("bogus", n=3), InvalidSpecError,
     f"unknown structure kind 'bogus'; choose from {_choices(StructureKind)}"),
    ("StructureSpec-int", lambda: StructureSpec(3, n=3), InvalidSpecError,
     f"unknown structure kind 3; choose from {_choices(StructureKind)}"),
    ("UtilitySpec-name", lambda: UtilitySpec("bogus", [0.0]), InvalidSpecError,
     "unknown utility family 'bogus'; choose from gumbel, logistic, neg_exponential, gaussian"),
    ("RelaxationSpec-name", lambda: RelaxationSpec("bogus"), InvalidSpecError,
     f"unknown regularizer 'bogus'; choose from {_choices(Regularizer)}"),
    ("spec_from_dict-name", lambda: spec_from_dict({"kind": "bogus", "n": 3}), InvalidSpecError,
     "bad structure kind: 'bogus'"),
    ("utility_from_dict-name", lambda: utility_from_dict({"family": "bogus", "theta": [0.0]}),
     InvalidSpecError, "malformed utility spec: {'family': 'bogus', 'theta': [0.0]}"),
    ("cli-regularizer", lambda: _relaxation_from_args(argparse.Namespace(
        regularizer="bogus", temperature=1.0, tol=1e-10, max_iter=None)), InputError,
     "unknown regularizer 'bogus'"),
    ("topk_select-None", lambda: topk_select(None, 1), InputError,
     "utilities must be a vector, got shape ()"),
    ("topk_select-scalar", lambda: topk_select(3.0, 1), InputError,
     "utilities must be a vector, got shape ()"),
    ("sample_topk-scalar", lambda: sample_topk_without_replacement(
        3.0, 1, np.random.default_rng(0)), InputError, "scores must be a vector, got shape ()"),
    ("softmax_simplex-huge-t", lambda: softmax_simplex([0.0, 1.0], HUGE), InputError,
     "temperature is past the range of a double"),
    ("softmax_simplex-None-t", lambda: softmax_simplex([0.0, 1.0], None), InputError,
     "temperature must be a real number, got None"),
    ("RelaxationSpec-None-t", lambda: RelaxationSpec("shannon", temperature=None),
     InvalidSpecError, "temperature must be a real number, got None"),
    ("RelaxationSpec-None-tol", lambda: RelaxationSpec("shannon", tol=None), InvalidSpecError,
     "tol must be a real number, got None"),
    ("RelaxationSpec-text-tol", lambda: RelaxationSpec("shannon", tol="1e-10"),
     InvalidSpecError, "tol must be a real number, got '1e-10'"),
    ("FDConfig-None-epsilon", lambda: FDConfig(epsilon=None), InvalidSpecError,
     "epsilon must be a real number, got None"),
    ("mc_frequencies-negative-seed", lambda: mc_frequencies(_sampler, 3, seed=-1), InputError,
     "seed must be an unsigned 64-bit integer"),
    ("mc_frequencies-wide-seed", lambda: mc_frequencies(_sampler, 3, seed=2 ** 64), InputError,
     "seed must be an unsigned 64-bit integer"),
    ("mc_frequencies-float-seed", lambda: mc_frequencies(_sampler, 3, seed=2.5), InputError,
     "seed must be an integer, got 2.5"),
    ("run_suite-negative-seed", lambda: run_suite("gumbel-max", -1), InputError,
     "seed must be an unsigned 64-bit integer"),
    ("run_suite-float-seed", lambda: run_suite("gumbel-max", 2.5), InputError,
     "seed must be an integer, got 2.5"),
    ("gradcheck-None-tolerance", lambda: gradcheck(ONE_HOT, SHANNON, [0.0, 1.0], tolerance=None),
     InputError, "tolerance must be a finite number >= 0, got None"),
    ("gradcheck-text-tolerance", lambda: gradcheck(ONE_HOT, SHANNON, [0.0, 1.0], tolerance="x"),
     InputError, "tolerance must be a finite number >= 0, got 'x'"),
    ("utility_from_dict-numpy-int", lambda: utility_from_dict(np.int64(2)), InvalidSpecError,
     "malformed utility spec: np.int64(2)"),
    ("draw_block-huge-draws", lambda: draw_block(GUMBEL, np.random.default_rng(0), HUGE),
     InputError, f"draws must be <= {MAX_DRAWS}, the most rows of 2 doubles one array holds"),
    ("draw_block-2**63-draws", lambda: draw_block(GUMBEL, np.random.default_rng(0), 2 ** 63),
     InputError, f"draws must be <= {MAX_DRAWS}, the most rows of 2 doubles one array holds"),
    ("mc_frequencies-None-seed", lambda: mc_frequencies(_sampler, 3, seed=None).total == 3,
     None, None),
    ("singular-tree-point", _singular_tree_point_reports_inf, None, None),
    ("singular-arborescence-point", _singular_arborescence_point_reports_inf, None, None),
    *[(f"extreme-shift-{reg}", lambda reg=reg: _extreme_shift_point(reg), None, None)
      for reg in MAPS],
    ("extreme-softmax", _extreme_softmax_points, None, None),
    ("extreme-gibbs-covariance", _extreme_gibbs_covariance, None, None),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in BOUNDARY],
                         ids=[case[0] for case in BOUNDARY])
def test_boundary_table(call, error, message):
    """Each bad input raises an ``SstError`` subclass, with its message, and
    no warning on the way; the rows with no error type are good inputs (a
    None seed draws from fresh entropy, and tree points whose Laplacian is
    singular say so) that must not warn either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert call()
            return
        with pytest.raises(error) as info:
            call()
    assert isinstance(info.value, SstError)
    assert str(info.value) == message
