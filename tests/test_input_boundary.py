"""Caller values that numpy cannot read as numbers (text, ragged rows) are
rejected at every public entry with an ``InputError`` naming the value, not
with numpy's bare ``ValueError`` or ``TypeError``."""

import importlib

import numpy as np
import pytest

from sst import (
    FDConfig,
    FrequencyTable,
    InputError,
    InvalidSpecError,
    RelaxationSpec,
    Regularizer,
    StructureKind,
    StructureSpec,
    UtilitySpec,
    chi_square_gof,
    directed_matrix_tree_marginals,
    fd_vjp,
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
    topk_select,
    utility_from_dict,
)

from graphs import D3, K4

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
