"""Caller values that numpy cannot read as numbers (text, ragged rows), and
unknown names, wrong shapes, scalars and seeds, are rejected at every
public entry with an ``InputError`` naming the value, not with numpy's or
the standard library's bare ``ValueError``, ``TypeError``, ``IndexError`` or
``OverflowError``."""

import argparse
import importlib
import itertools
import json
import os
import tempfile
import warnings

import numpy as np
import pytest

from sst import (
    FDConfig,
    FrequencyTable,
    Graph,
    InputError,
    InvalidSpecError,
    RelaxationSpec,
    Regularizer,
    SstError,
    StructureKind,
    StructureSpec,
    UnsupportedPairError,
    UtilitySpec,
    binary_entropy_relax,
    chi_square_gof,
    directed_matrix_tree_marginals,
    draw_block,
    euclidean_project,
    fd_vjp,
    gradcheck,
    hungarian_match,
    is_vertex,
    ks_report,
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
    two_sample_equivalence,
    utility_from_dict,
)
from sst.cli import _relaxation_from_args, build_parser
from sst.grad import analytic_jacobian
from sst.verify import _TALLY_ROWS, gibbs_marginals_bruteforce, mc_frequencies, run_suite

from graphs import D3, K3, K4, complete_digraph, complete_graph
from test_iterative_solvers import MAPS, _bisect_oracle

_scaled = importlib.import_module("sst.relax")._scaled

ONE_HOT = StructureSpec(StructureKind.ONE_HOT, n=2)
SHANNON = RelaxationSpec(Regularizer.SHANNON)
GUMBEL = UtilitySpec("gumbel", [0.0, 0.0])
TABLE = FrequencyTable(support=((1, 0), (0, 1)), counts=np.array([50, 50]), total=100)

# (entry, call, error type, the value's name in the message) of every entry
# that reads an array: text and ragged rows are not numbers
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


def test_numeric_input_keeps_its_errors():
    """Numbers, as text that numpy reads too, still reach the shape checks."""
    with pytest.raises(InputError, match=r"^expected a vector of length 2, got shape \(3,\)$"):
        relax(ONE_HOT, SHANNON, ["1", "2", "3"])
    with pytest.raises(InputError, match=r"^utility matrix must be square, got shape \(2, 1\)$"):
        sinkhorn_relax([[1.0], [2.0]], 1.0)
    assert relax(ONE_HOT, SHANNON, ["0", "0"]).x.tolist() == [0.5, 0.5]


# an integer past the doubles' range, as a JSON file may hold one
HUGE = 10 ** 400


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


def _extreme_expfam_point(spec, u):
    """``relax`` and ``fd_vjp`` under the exponential-family entropy give the
    enumerated marginals and a finite product on scores whose differences
    pass the doubles; the chain's unary weight of -inf divides out."""
    rspec = RelaxationSpec(Regularizer.EXPFAM_ENTROPY)
    want = gibbs_marginals_bruteforce(spec, u, 1.0)
    return (np.abs(relax(spec, rspec, u).x - want).max() <= 1e-12
            and np.isfinite(fd_vjp(spec, rspec, u, np.ones(len(u)), FDConfig())).all())


EXTREME_EXPFAM = [
    ("k_subsets-k1", ONE_OF_THREE, EXTREMES),
    ("k_subsets-k2", StructureSpec(StructureKind.K_SUBSETS, n=3, k=2), EXTREMES),
    ("chain-n2", StructureSpec(StructureKind.CORR_K_SUBSETS, n=2, k=1), EXTREMES),
    ("chain-n3", StructureSpec(StructureKind.CORR_K_SUBSETS, n=3, k=1),
     np.array([0.0, -1e308, 1e308, 0.0, 0.0])),
    ("triangle", StructureSpec(StructureKind.SPANNING_TREE, graph=K3), EXTREMES),
    ("digraph", StructureSpec(StructureKind.ARBORESCENCE, graph=D3, root=0),
     np.concatenate([EXTREMES, np.zeros(3)])),
]


def _extreme_gibbs_oracle():
    """The enumeration oracle gives the marginals of scores whose sums pass
    the doubles (two edges of -1e308 on one vertex) with no warning."""
    graph = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2)))
    spec = StructureSpec(StructureKind.SPANNING_TREE, graph=graph)
    mu = gibbs_marginals_bruteforce(spec, np.array([1e308, -1e308, -1e308, 5.0]), 1.0)
    return mu.tolist() == [1.0, 0.0, 1.0, 1.0]


def _plan_after_cached(boundary):
    """``tree_plan(boundary)`` on a graph that holds node 1's plan."""
    def call():
        graph = complete_digraph(3)
        graph.tree_plan(1)
        return graph.tree_plan(boundary)
    return call


# the most (draws, 2) rows of doubles numpy can shape
MAX_DRAWS = np.iinfo(np.intp).max // 16


def _sampler(rng):
    return np.zeros(2)


# a table of ten draws of the vertex (1, 0)
TEN_OF_ONE = {"support": [[1, 0]], "counts": [10], "total": 10}

# the largest count an int64 tally holds
TALLY_CAP = f"draws must be <= {2 ** 63 - 1}, the largest count an int64 tally holds"


def _sample_command(*flags):
    """``sst sample`` on a one-hot spec under Gumbel noise, raising what the
    command raises (``run`` would print it)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, payload in (("spec", {"kind": "one_hot", "n": 2}),
                              ("noise", {"family": "gumbel", "theta": [0.0, 0.0]})):
            paths.append(os.path.join(tmp, f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(payload, fh)
        args = build_parser().parse_args(
            ["sample", "--spec", paths[0], "--noise", paths[1], "--seed", "1", *flags])
        return args.fn(args)


def _sampled(output):
    """``mc_frequencies`` over ten calls of the sampler ``output``."""
    return lambda: mc_frequencies(output, 10, seed=1)


NOT_NUMBERS = (TypeError, ValueError)
NOT_VERTICES = "sampler output must be vectors of one length with entries 0 or 1"
NOT_COUNTS = "counts must be integers in [0, 2**63), one per support entry"
NOT_SUPPORT = "support must be integer vectors of one length"

# (id, call, error type and message, or None twice for a call that returns
# True); a gate that converts a numpy or standard-library exception gives the
# pair (error type, the type of the exception it is raised from)
BOUNDARY = [
    *[(f"{name}-non-numeric", call, (error, NOT_NUMBERS), f"{what} must be an array of numbers")
      for name, call, error, what in ENTRIES],
    # an integer past the doubles' range fails the finiteness gate, as the
    # float literal 1e400 (read as inf) does
    ("topk_select-huge-int", lambda: topk_select([1, HUGE, 3], 1), (InputError, OverflowError),
     "utilities must be finite"),
    ("relax-huge-int", lambda: relax(ONE_HOT, SHANNON, [1, HUGE]), (InputError, OverflowError),
     "input must be finite"),
    ("softmax_simplex-huge-int", lambda: softmax_simplex([1, HUGE], 1.0),
     (InputError, OverflowError), "utilities must be finite"),
    ("UtilitySpec-huge-int", lambda: UtilitySpec("gumbel", [0, HUGE]),
     (InvalidSpecError, OverflowError), "theta must be finite"),
    ("utility_from_dict-huge-int",
     lambda: utility_from_dict({"family": "gumbel", "theta": [0, HUGE]}),
     (InvalidSpecError, OverflowError),
     f"malformed utility spec: {({'family': 'gumbel', 'theta': [0, HUGE]})!r}"),
    ("StructureSpec-spanning_tree-n", lambda: StructureSpec("spanning_tree", n=99, graph=K3),
     InvalidSpecError, "spanning_tree takes no n"),
    ("StructureSpec-arborescence-n",
     lambda: StructureSpec("arborescence", n=-4, graph=D3, root=0), InvalidSpecError,
     "arborescence takes no n"),
    ("Graph-None-edges", lambda: Graph(3, None), (InvalidSpecError, TypeError),
     "edges must be a list of node pairs, got None"),
    ("mc_frequencies-float-output", _sampled(lambda rng: np.array([0.7, 0.3])), InputError,
     NOT_VERTICES),
    ("mc_frequencies-int-output", _sampled(lambda rng: [2, -1]), InputError, NOT_VERTICES),
    ("mc_frequencies-int8-overflow", _sampled(lambda rng: [300, 0]), InputError, NOT_VERTICES),
    ("mc_frequencies-int8-output", _sampled(lambda rng: np.array([-1, 2], dtype=np.int8)),
     InputError, NOT_VERTICES),
    ("mc_frequencies-scalar-output", _sampled(lambda rng: 1), InputError, NOT_VERTICES),
    ("mc_frequencies-text-output", _sampled(lambda rng: ["a", "b"]), (InputError, NOT_NUMBERS),
     "sampler output must be an array of numbers"),
    ("mc_frequencies-ragged-output", _sampled(lambda rng: np.zeros(rng.integers(1, 3))),
     (InputError, NOT_NUMBERS), "sampler output must be an array of numbers"),
    ("mc_frequencies-float-vertex", lambda: mc_frequencies(
        lambda rng: [1.0, 0.0], 10, seed=1).to_dict() == TEN_OF_ONE, None, None),
    ("FrequencyTable-list-counts", lambda: FrequencyTable(
        support=((1, 0), (0, 1)), counts=[5, 5], total=10).frequencies.tolist() == [0.5, 0.5],
     None, None),
    ("FrequencyTable-negative-counts", lambda: FrequencyTable(
        support=((1, 0), (0, 1)), counts=[-5, 15], total=10), InputError, NOT_COUNTS),
    ("FrequencyTable-fractional-counts", lambda: FrequencyTable(
        support=((1, 0), (0, 1)), counts=[5.5, 4.5], total=10), InputError, NOT_COUNTS),
    ("FrequencyTable-unaligned-counts", lambda: FrequencyTable(
        support=((1, 0), (0, 1)), counts=[10], total=10), InputError, NOT_COUNTS),
    ("FrequencyTable-text-counts", lambda: FrequencyTable(
        support=((1, 0), (0, 1)), counts=["a", "b"], total=10), (InputError, NOT_NUMBERS),
     "counts must be an array of numbers"),
    ("ks_report-text", lambda: ks_report("abc", lambda x: x), (InputError, NOT_NUMBERS),
     "samples must be an array of numbers"),
    ("ks_report-nan", lambda: ks_report([0.1, np.nan], lambda x: x), InputError,
     "samples must be finite"),
    ("ks_report-empty", lambda: ks_report([], lambda x: x), InputError,
     "samples must not be empty"),
    ("ks_report-2d", lambda: ks_report([[0.1, 0.2], [0.3, 0.4]], lambda x: x), InputError,
     "samples must be a vector, got shape (2, 2)"),
    ("ks_report-scalar", lambda: ks_report(0.5, lambda x: x), InputError,
     "samples must be a vector, got shape ()"),
    ("FrequencyTable-list-support", lambda: FrequencyTable(
        support=([0, 1], [1, 0]), counts=[5, 5], total=10).support == ((0, 1), (1, 0)),
     None, None),
    ("FrequencyTable-array-support", lambda: FrequencyTable(
        support=np.eye(2, dtype=np.int8), counts=[5, 5], total=10).to_dict()["support"]
     == [[1, 0], [0, 1]], None, None),
    ("FrequencyTable-text-support", lambda: FrequencyTable(
        support=(("a", "b"), ("c", "d")), counts=[5, 5], total=10), InputError, NOT_SUPPORT),
    ("FrequencyTable-ragged-support", lambda: FrequencyTable(
        support=((1, 0), (1,)), counts=[5, 5], total=10), (InputError, ValueError),
     NOT_SUPPORT),
    ("FrequencyTable-zero-total", lambda: FrequencyTable(
        support=((1, 0), (0, 1)), counts=[0, 0], total=0), InputError, "total must be >= 1"),
    ("FrequencyTable-bool-total", lambda: FrequencyTable(
        support=[(1,)], counts=[1], total=True), InputError,
     "total must be an integer, got True"),
    ("FrequencyTable-float-total", lambda: FrequencyTable(
        support=[(1,)], counts=[1], total=1.0), InputError,
     "total must be an integer, got 1.0"),
    ("FrequencyTable-numpy-float-total", lambda: FrequencyTable(
        support=[(1,)], counts=[1], total=np.float64(1.0)), InputError,
     "total must be an integer, got np.float64(1.0)"),
    ("FrequencyTable-numpy-int-total", lambda: type(FrequencyTable(
        support=[(1,)], counts=[1], total=np.int64(1)).to_dict()["total"]) is int, None, None),
    ("two_sample_equivalence-widths-differ", lambda: two_sample_equivalence(
        FrequencyTable(support=[(0, 1), (1, 0)], counts=[500, 500], total=1000),
        FrequencyTable(support=[(0, 1, 0), (1, 0, 0)], counts=[500, 500], total=1000)),
     InputError, "tables must hold vertices of one length"),
    ("mc_frequencies-text-support", lambda: mc_frequencies(
        _sampler, 3, seed=1, support=[("a", "b")]), InputError, NOT_SUPPORT),
    ("mc_frequencies-list-support", lambda: mc_frequencies(
        lambda rng: [1, 0], 10, seed=1, support=[[0, 1], [1, 0]]).to_dict()
     == {"support": [[0, 1], [1, 0]], "counts": [0, 10], "total": 10}, None, None),
    ("mc_frequencies-width-changes-between-chunks", lambda: mc_frequencies(
        lambda rng, calls=itertools.count(): np.zeros(2 + (next(calls) >= _TALLY_ROWS)),
        _TALLY_ROWS + 1, seed=1), InputError, NOT_VERTICES),
    ("Graph-reachable_from-negative", lambda: D3.reachable_from(-1), InputError,
     "root -1 out of range"),
    ("Graph-reachable_from-wrapped", lambda: D3.reachable_from(-3), InputError,
     "root -3 out of range"),
    ("Graph-reachable_from-past-end", lambda: D3.reachable_from(5), InputError,
     "root 5 out of range"),
    ("Graph-reachable_from-bool", lambda: D3.reachable_from(True), InputError,
     "root must be an integer, got True"),
    ("Graph-reachable_from-numpy-int", lambda: D3.reachable_from(np.int64(2)) == {0, 1, 2},
     None, None),
    ("Graph-in_edges-negative", lambda: D3.in_edges(-1), InputError, "node -1 out of range"),
    ("Graph-in_edges-past-end", lambda: D3.in_edges(3), InputError, "node 3 out of range"),
    ("Graph-tree_plan-negative", lambda: complete_digraph(3).tree_plan(-1), InputError,
     "boundary -1 out of range"),
    ("Graph-tree_plan-past-end", lambda: complete_digraph(3).tree_plan(7), InputError,
     "boundary 7 out of range"),
    ("Graph-tree_plan-bool", lambda: complete_digraph(3).tree_plan(True), InputError,
     "boundary must be an integer, got True"),
    ("Graph-tree_plan-list", lambda: complete_digraph(3).tree_plan([1]), InputError,
     "boundary must be an integer, got [1]"),
    ("Graph-tree_plan-numpy-int", lambda: [a.tolist() for a in complete_digraph(3).tree_plan(
        np.int64(0))] == [[2, 2, 0, 0, 1, 1], [0, 1, 2, 1, 2, 0]], None, None),
    # a cached plan does not skip the check on a key equal to its node
    ("Graph-tree_plan-bool-after-int", _plan_after_cached(True), InputError,
     "boundary must be an integer, got True"),
    ("Graph-tree_plan-float-after-int", _plan_after_cached(1.0), InputError,
     "boundary must be an integer, got 1.0"),
    ("Graph-no-nodes", lambda: Graph(0, ()), InvalidSpecError, "graph needs at least one node"),
    ("StructureSpec-one_hot-no-n", lambda: StructureSpec("one_hot"), InvalidSpecError,
     "one_hot requires a positive n"),
    ("StructureSpec-one_hot-root", lambda: StructureSpec("one_hot", n=3, root=0),
     InvalidSpecError, "one_hot takes no graph or root"),
    ("StructureSpec-one_hot-k", lambda: StructureSpec("one_hot", n=3, k=1), InvalidSpecError,
     "one_hot takes no cardinality k"),
    ("StructureSpec-spanning_tree-directed", lambda: StructureSpec("spanning_tree", graph=D3),
     InvalidSpecError, "spanning_tree requires an undirected graph"),
    ("StructureSpec-spanning_tree-root", lambda: StructureSpec("spanning_tree", graph=K3, root=0),
     InvalidSpecError, "spanning_tree takes no root"),
    ("StructureSpec-arborescence-undirected",
     lambda: StructureSpec("arborescence", graph=K3, root=0), InvalidSpecError,
     "arborescence requires a directed graph"),
    ("StructureSpec-arborescence-root", lambda: StructureSpec("arborescence", graph=D3, root=5),
     InvalidSpecError, "arborescence requires a valid root node"),
    ("spec_from_dict-graph-no-num_nodes",
     lambda: spec_from_dict({"kind": "spanning_tree", "graph": {"edges": [[0, 1]]}}),
     (InvalidSpecError, KeyError), "malformed graph: {'edges': [[0, 1]]}"),
    ("UtilitySpec-2d-theta", lambda: UtilitySpec("gumbel", [[0.0, 1.0]]), InvalidSpecError,
     "theta must be a 1-d vector"),
    ("sample-shape", lambda: sample(GUMBEL, np.zeros(3)), InputError,
     "base noise must have shape (2,), got (3,)"),
    ("log_density-shape", lambda: log_density(GUMBEL, np.zeros(3)), InputError,
     "u must have shape (2,), got (3,)"),
    ("fd_vjp-direction-shape", lambda: fd_vjp(ONE_HOT, SHANNON, [0.0, 1.0], [1.0, 2.0, 3.0]),
     InputError, "direction must have shape (2,), got (3,)"),
    ("chi_square_gof-unaligned", lambda: chi_square_gof(TABLE, [0.2, 0.3, 0.5]), InputError,
     "expected probabilities must align with the table support"),
    ("euclidean_project-matching",
     lambda: euclidean_project(StructureSpec("matching", n=2), np.zeros(4), 1.0),
     UnsupportedPairError, "euclidean relaxation does not support matching"),
    ("binary_entropy_relax-one-point", lambda: binary_entropy_relax(
        StructureSpec("one_hot", n=1), [0.5], 1.0).x.tolist() == [1.0], None, None),
    # 2**14 vertices pass the default enumeration limit, so no covariance
    ("gradcheck-expfam-past-the-enumeration-limit", lambda: gradcheck(
        StructureSpec("subsets", n=14), RelaxationSpec("expfam_entropy"), np.zeros(14)
    ).covariance_discrepancy is None, None, None),
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
    ("mc_frequencies-huge-draws", lambda: mc_frequencies(_sampler, HUGE, seed=1), InputError,
     TALLY_CAP),
    ("run_suite-huge-draws", lambda: run_suite("gumbel-max", 1, draws=HUGE), InputError,
     TALLY_CAP),
    ("cli-sample-huge-draws", lambda: _sample_command("--draws", str(HUGE)), InputError,
     TALLY_CAP),
    ("cli-sample-raw-huge-draws", lambda: _sample_command("--draws", str(HUGE), "--raw"),
     InputError, TALLY_CAP),
    ("run_suite-subsets-zero-draws", lambda: run_suite("subsets", 1, draws=0), InputError,
     "draws must be >= 1"),
    ("run_suite-subsets-negative-draws", lambda: run_suite("subsets", 1, draws=-1), InputError,
     "draws must be >= 1"),
    ("run_suite-subsets-float-draws", lambda: run_suite("subsets", 1, draws=2.5), InputError,
     "draws must be an integer, got 2.5"),
    ("run_suite-subsets-text-draws", lambda: run_suite("subsets", 1, draws="x"), InputError,
     "draws must be an integer, got 'x'"),
    ("run_suite-limits-draws", lambda: run_suite("limits", 1, draws=5), InputError,
     "suite 'limits' does not take draws"),
    ("mc_frequencies-None-seed", lambda: mc_frequencies(_sampler, 3, seed=None).total == 3,
     None, None),
    ("singular-tree-point", _singular_tree_point_reports_inf, None, None),
    ("singular-arborescence-point", _singular_arborescence_point_reports_inf, None, None),
    *[(f"extreme-shift-{reg}", lambda reg=reg: _extreme_shift_point(reg), None, None)
      for reg in MAPS],
    ("extreme-softmax", _extreme_softmax_points, None, None),
    ("extreme-gibbs-covariance", _extreme_gibbs_covariance, None, None),
    ("extreme-gibbs-oracle", _extreme_gibbs_oracle, None, None),
    *[(f"extreme-expfam-{name}", lambda spec=spec, u=u: _extreme_expfam_point(spec, u), None, None)
      for name, spec, u in EXTREME_EXPFAM],
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in BOUNDARY],
                         ids=[case[0] for case in BOUNDARY])
def test_boundary_table(call, error, message):
    """Each bad input raises an ``SstError`` subclass, with its message and
    the cause its row names, and no warning on the way; the rows with no
    error type are good inputs (a None seed draws from fresh entropy, and
    tree points whose Laplacian is singular say so) that must not warn
    either."""
    error, cause = error if isinstance(error, tuple) else (error, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert call()
            return
        with pytest.raises(error) as info:
            call()
    assert isinstance(info.value, SstError)
    assert str(info.value) == message
    if cause is not None:
        assert isinstance(info.value.__cause__, cause)
