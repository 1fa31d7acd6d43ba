"""Chunked perturb-and-MAP against the per-draw path.

``sst sample``, ``mc_frequencies`` and the argmax halves of the ``subsets``,
``topk``, ``tree`` and ``arborescence`` suites draw their noise in blocks,
maximize whole blocks and tally sorted rows.  The oracle is the path they
replaced: one ``draw`` and one maximizer call per draw, tallied in a dict,
and, for correlated k-subsets, a scalar Viterbi loop.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import expit

import sst
from sst import (
    InputError,
    StructureKind,
    StructureSpec,
    UtilityFamily,
    UtilitySpec,
    cle_max_arborescence,
    hungarian_match,
    kruskal_max_tree,
    mc_frequencies,
    run_suite,
    sample_arborescence_categorical,
    sample_topk_without_replacement,
    sample_tree_categorical,
    solve_map,
    topk_select,
    two_sample_equivalence,
)
from sst import argmax, verify
from sst.cli import run
from sst.utilities import draw
from sst.verify import RETRY_OFFSET

from graphs import D3, K4, complete_arcs, complete_digraph, complete_edges


SPECS = {
    "one_hot": {"kind": "one_hot", "n": 4},
    "subsets": {"kind": "subsets", "n": 5},
    "k_subsets": {"kind": "k_subsets", "n": 6, "k": 2},
    "corr_k_subsets": {"kind": "corr_k_subsets", "n": 5, "k": 2},
    "matching": {"kind": "matching", "n": 3},
    "spanning_tree": {"kind": "spanning_tree",
                      "graph": {"num_nodes": 4, "edges": complete_edges(4), "directed": False}},
    "arborescence": {"kind": "arborescence", "root": 1,
                     "graph": {"num_nodes": 4, "edges": complete_arcs(4), "directed": True}},
}
FAMILIES = [f.value for f in UtilityFamily]


def _noise(family, dim, seed=0):
    theta = np.random.default_rng(seed).uniform(-1.0, 1.0, dim)
    if family == "neg_exponential":
        theta = np.exp(theta)
    return {"family": family, "theta": theta.tolist()}


def _per_draw(spec, uspec, rng, draws):
    """The replaced path: one ``draw`` and one ``solve_map`` per draw."""
    return [tuple(int(b) for b in solve_map(spec, draw(uspec, rng).u).vertex)
            for _ in range(draws)]


def _dict_table(verts):
    tally = {}
    for v in verts:
        tally[v] = tally.get(v, 0) + 1
    keys = sorted(tally)
    return {"support": [list(k) for k in keys], "counts": [tally[k] for k in keys],
            "total": len(verts)}


def _render(payload, fmt):
    if fmt == "json":
        return json.dumps(payload, sort_keys=True) + "\n"
    return "".join(f"{k},{json.dumps(v)}\n" for k, v in payload.items())


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def _check_sample(files, capsys, spec_d, noise_d, seed, draws):
    """Table, raw, JSON and CSV output of ``sst sample`` against the oracle."""
    spec = sst.spec_from_dict(spec_d)
    verts = _per_draw(spec, sst.utility_from_dict(noise_d), np.random.default_rng(seed), draws)
    want = {False: _dict_table(verts), True: {"draws": [list(v) for v in verts]}}
    argv = ["sample", "--spec", files("spec.json", spec_d),
            "--noise", files("noise.json", noise_d), "--seed", str(seed), "--draws", str(draws)]
    for raw in (False, True):
        for fmt in ("json", "csv"):
            assert run(argv + ["--format", fmt] + (["--raw"] if raw else [])) == 0
            assert capsys.readouterr().out == _render(want[raw], fmt), (raw, fmt)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", list(SPECS))
def test_sample_matches_per_draw_path(files, capsys, kind, family):
    spec_d = SPECS[kind]
    dim = sst.spec_from_dict(spec_d).dim
    _check_sample(files, capsys, spec_d, _noise(family, dim), seed=11, draws=150)


@pytest.mark.parametrize("kind", list(SPECS))
def test_chunk_boundaries(files, capsys, monkeypatch, kind):
    spec_d = SPECS[kind]
    spec = sst.spec_from_dict(spec_d)
    monkeypatch.setattr(argmax, "_MAP_CHUNK", 64 * 8)  # bytes: 64 doubles
    rows = argmax._chunk_rows(spec)
    noise_d = _noise("gumbel", spec.dim, seed=3)
    for draws in sorted({1, rows - 1, rows, rows + 1, 4 * rows + 1} - {0}):
        _check_sample(files, capsys, spec_d, noise_d, seed=draws, draws=draws)


def test_two_row_chunks_of_correlated_k_subsets(files, capsys, monkeypatch):
    # test_chunk_boundaries' 64 doubles make 7-row chunks of these 9-double rows
    spec_d = SPECS["corr_k_subsets"]
    spec = sst.spec_from_dict(spec_d)
    monkeypatch.setattr(argmax, "_MAP_CHUNK", 2 * 8 * spec.dim)
    rows = argmax._chunk_rows(spec)
    assert rows == 2
    noise_d = _noise("gumbel", spec.dim, seed=3)
    for draws in (1, rows, rows + 1, 4 * rows + 1):
        _check_sample(files, capsys, spec_d, noise_d, seed=draws, draws=draws)


def test_chunk_boundaries_at_the_real_chunk_size(files, capsys):
    spec_d = {"kind": "one_hot", "n": 5}
    rows = argmax._chunk_rows(sst.spec_from_dict(spec_d))
    assert rows == argmax._MAP_CHUNK // (8 * 5)
    for draws in (rows - 1, rows, rows + 1):
        _check_sample(files, capsys, spec_d, _noise("logistic", 5), seed=draws, draws=draws)


class _ZeroAt:
    """A generator whose doubles at the given stream positions are 0.0; the
    position is part of ``bit_generator.state``, so a restored state replays
    the same zeros."""

    def __init__(self, rng, positions):
        self._rng, self._pos, self._zero = rng, 0, positions
        self.bit_generator = self

    @property
    def state(self):
        return self._rng.bit_generator.state, self._pos

    @state.setter
    def state(self, value):
        self._rng.bit_generator.state, self._pos = value

    def random(self, size):
        out = self._rng.random(size)
        flat = out.reshape(-1)
        for p in self._zero:
            if self._pos <= p < self._pos + flat.size:
                flat[p - self._pos] = 0.0
        self._pos += flat.size
        return out


def test_exact_zero_redraw_in_a_later_chunk(files, capsys, monkeypatch):
    spec_d = SPECS["k_subsets"]
    spec = sst.spec_from_dict(spec_d)
    noise_d = _noise("gumbel", spec.dim, seed=5)
    uspec = sst.utility_from_dict(noise_d)
    monkeypatch.setattr(argmax, "_MAP_CHUNK", 60 * 8)  # 10 rows of 6 doubles per chunk
    positions = [2 * 60 + 17, 4 * 60 + 5]  # rows 22 and 40: chunks 3 and 5
    real = np.random.default_rng
    verts = _per_draw(spec, uspec, _ZeroAt(real(4), positions), 47)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroAt(real(seed), positions))
    argv = ["sample", "--spec", files("spec.json", spec_d), "--noise", files("noise.json", noise_d),
            "--seed", "4", "--draws", "47"]
    assert run(argv + ["--raw"]) == 0
    assert json.loads(capsys.readouterr().out) == {"draws": [list(v) for v in verts]}
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == _dict_table(verts)
    # the zeros were redrawn, so the path differs from the plain stream
    assert verts != _per_draw(spec, uspec, real(4), 47)


def test_zero_draws(files, capsys):
    argv = ["sample", "--spec", files("spec.json", SPECS["one_hot"]),
            "--noise", files("noise.json", _noise("gumbel", 4)), "--seed", "1"]
    assert run(argv + ["--draws", "0"]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["message"]) == ("InputError", "draws must be >= 1")
    assert run(argv + ["--draws", "0", "--raw"]) == 0
    assert capsys.readouterr().out == '{"draws": []}\n'
    # a negative count is no count of draws, with --raw or without
    assert run(argv + ["--draws", "-2", "--raw"]) == 1
    assert capsys.readouterr().out == ""


def test_non_finite_noise_is_input_error(files, capsys):
    # a denormal rate sends log(b) / rate to -inf
    noise = {"family": "neg_exponential", "theta": [1e-320, 1.0, 1.0, 1.0]}
    argv = ["sample", "--spec", files("spec.json", SPECS["one_hot"]),
            "--noise", files("noise.json", noise), "--seed", "1", "--draws", "5"]
    with np.errstate(over="ignore"):
        for extra in ([], ["--raw"]):
            assert run(argv + extra) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert '"message": "utilities must be finite"' in captured.err


# --- block maximizers ------------------------------------------------------------


def _viterbi_loop(n, k, u, tie):
    """MAP over the chain with node scores u[:n], pair scores u[n:], sum = k."""
    phi, psi = u[:n], u[n:]
    neg = -math.inf
    score = np.full((2, k + 1), neg)
    score[0, 0] = 0.0
    score[1, 1] = phi[0]
    back = np.zeros((n, 2, k + 1), dtype=np.int8)
    for i in range(1, n):
        nxt = np.full((2, k + 1), neg)
        for s in (0, 1):
            for c in range(k + 1):
                if c - s < 0:
                    continue
                gain = phi[i] if s else 0.0
                best, best_prev = neg, 0
                for prev in (0, 1):
                    cand = score[prev, c - s] + gain + (psi[i - 1] if s and prev else 0.0)
                    if cand > best:
                        best, best_prev = cand, prev
                    elif cand == best and cand > neg and prev != best_prev:
                        tie[0] = True
                nxt[s, c] = best
                back[i, s, c] = best_prev
        score = nxt
    s = 0 if score[0, k] >= score[1, k] else 1
    if score[0, k] == score[1, k]:
        tie[0] = True
    bits = np.zeros(2 * n - 1, dtype=np.int8)
    c = k
    for i in range(n - 1, -1, -1):
        bits[i] = s
        prev = int(back[i, s, c]) if i > 0 else 0
        c -= s
        s = prev
    bits[n:] = bits[: n - 1] * bits[1:n]
    return bits


def _tied_block(dim, rows, seed):
    rng = np.random.default_rng(seed)
    block = rng.integers(-1, 2, size=(rows, dim)).astype(float)
    block[: rows // 4] = 0.0  # all-equal rows
    block[rows // 4: rows // 2] *= -0.0  # signed zeros among the ties
    return block


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (7, 3), (9, 8)])
def test_viterbi_block_matches_the_loop_row_by_row(n, k):
    rng = np.random.default_rng(n * 10 + k)
    block = np.concatenate([
        _tied_block(2 * n - 1, 200, n),
        rng.normal(size=(100, 2 * n - 1)),
        rng.choice([-1e308, 1e308, 0.0, 1.0], size=(50, 2 * n - 1)),  # sums overflow
    ])
    spec = StructureSpec(StructureKind.CORR_K_SUBSETS, n=n, k=k)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing rows
        bits, ties = argmax._viterbi_block(n, k, block)
        for row, got, tie in zip(block, bits, ties):
            cell = [False]
            want = _viterbi_loop(n, k, row, cell)
            assert got.tolist() == want.tolist()
            assert bool(tie) is cell[0]
            sol = solve_map(spec, row)
            assert sol.vertex.tolist() == want.tolist()
            assert sol.tie_broken is cell[0]
    assert ties.any() and not ties.all()


@pytest.mark.parametrize("kind", list(SPECS))
def test_map_block_matches_solve_map_on_tied_rows(kind):
    spec = sst.spec_from_dict(SPECS[kind])
    block = np.concatenate([_tied_block(spec.dim, 120, 1),
                            np.random.default_rng(2).normal(size=(40, spec.dim))])
    got = argmax._map_block(spec, block)
    assert got.dtype == np.int8 and got.shape == block.shape
    for row, bits in zip(block, got):
        assert bits.tolist() == solve_map(spec, row).vertex.tolist()


def test_map_block_keeps_the_lowest_index_among_ties():
    block = np.zeros((1, 6))
    cases = {"one_hot": [1, 0, 0, 0, 0, 0], "subsets": [0] * 6, "k_subsets": [1, 1, 0, 0, 0, 0]}
    for kind, want in cases.items():
        spec = StructureSpec(kind, n=6, k=2 if kind == "k_subsets" else None)
        assert argmax._map_block(spec, block)[0].tolist() == want


# --- tallies -----------------------------------------------------------------------


@pytest.mark.parametrize("width", [0, 1, 3, 17, 45, 100])  # 45, 100: perturb_map's widths
def test_tally_rows_matches_a_dict_tally(width):
    rng = np.random.default_rng(width)
    blocks = [rng.integers(-2, 3, size=(int(rng.integers(1, 40)), width)).astype(np.int8)
              for _ in range(30)]
    blocks.append(np.repeat(blocks[0][:1], 50, axis=0))  # one row many times
    zero_tail = blocks[1].copy()
    zero_tail[:, width // 2:] = 0  # rows whose last bytes are 0
    blocks.append(zero_tail)
    support, counts = verify._tally_rows(iter(blocks))
    want = _dict_table([tuple(r) for b in blocks for r in b.tolist()])
    assert support.dtype == np.int8 and counts.dtype == np.int64
    assert support.tolist() == want["support"]
    assert counts.tolist() == want["counts"]


def test_tally_rows_of_an_empty_stream():
    assert verify._tally_rows(iter([])) == (None, None)


def test_mc_frequencies_tallies_across_chunks(monkeypatch):
    monkeypatch.setattr(verify, "_TALLY_ROWS", 7)
    theta = np.random.default_rng(0).uniform(-1, 1, 5)
    sampler = lambda rng: sample_topk_without_replacement(theta, 2, rng)
    got = mc_frequencies(sampler, 100, seed=3)
    rng = np.random.default_rng(3)
    want = _dict_table([tuple(int(b) for b in sampler(rng)) for _ in range(100)])
    assert got.to_dict() == want
    assert got.counts.dtype == np.int64


def test_mc_frequencies_support_alignment_and_errors():
    spec = StructureSpec(StructureKind.ONE_HOT, n=3)
    support = sst.enumerate_vertices(spec)
    # the table keeps the given order, not the sorted one
    got = mc_frequencies(lambda rng: support[2], 9, seed=0, support=support[::-1])
    assert got.support == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert got.counts.tolist() == [9, 0, 0]
    with pytest.raises(InputError, match=r"outside the given support: \[\(1, 1, 0\)\]"):
        mc_frequencies(lambda rng: np.array([1, 1, 0]), 5, seed=0, support=support)
    with pytest.raises(InputError, match="draws must be >= 1"):
        mc_frequencies(lambda rng: support[0], 0, seed=0)


@pytest.mark.parametrize("call", [
    lambda: sst.draw_block(UtilitySpec(UtilityFamily.GUMBEL, np.zeros(3)), np.random.default_rng(0), 0),
    lambda: run_suite("topk", 1, draws=0),
], ids=["draw_block", "topk_suite"])
def test_zero_draws_rejected_at_every_entry(call):
    with pytest.raises(InputError, match="^draws must be >= 1$"):
        call()


# --- suites --------------------------------------------------------------------------


def _retry(make, noise_seed):
    rep = make(noise_seed)
    if rep.passed:
        return rep, False
    return make(noise_seed + RETRY_OFFSET), True


def _per_draw_topk(seed, draws):
    ss = np.random.SeedSequence(seed).spawn(3)
    theta = np.random.default_rng(ss[0]).uniform(-1.0, 1.0, 4)
    uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
    return _retry(lambda s: two_sample_equivalence(
        mc_frequencies(lambda rng: topk_select(draw(uspec, rng).u, 2), draws, s),
        mc_frequencies(lambda rng: sample_topk_without_replacement(theta, 2, rng), draws, s + 1),
        level=0.01), int(ss[1].generate_state(1)[0]))


def _per_draw_tree(seed, draws):
    ss = np.random.SeedSequence(seed).spawn(3)
    theta = np.random.default_rng(ss[0]).uniform(-1.0, 1.0, K4.num_edges)
    uspec = UtilitySpec(UtilityFamily.GUMBEL, theta)
    return _retry(lambda s: two_sample_equivalence(
        mc_frequencies(lambda rng: kruskal_max_tree(K4, draw(uspec, rng).u), draws, s),
        mc_frequencies(lambda rng: sample_tree_categorical(K4, theta, rng), draws, s + 1),
        level=0.01), int(ss[1].generate_state(1)[0]))


def _per_draw_arborescence(seed, draws, root, i):
    ss = np.random.SeedSequence(seed).spawn(3)
    lam = np.exp(np.random.default_rng(ss[0]).uniform(-1.0, 1.0, D3.num_edges))
    return _retry(lambda s: two_sample_equivalence(
        mc_frequencies(lambda rng: cle_max_arborescence(
            D3, root, -rng.exponential(scale=1.0 / lam)), draws, s),
        mc_frequencies(lambda rng: sample_arborescence_categorical(D3, root, lam, rng),
                       draws, s + 1),
        level=0.01), int(ss[1].generate_state(1)[0]) + 7 * i)


def _per_draw_subsets_z(seed, draws, offset=0):
    ss = np.random.SeedSequence(seed).spawn(2)
    theta = np.random.default_rng(ss[0]).uniform(-2.0, 2.0, 6)
    spec = StructureSpec(StructureKind.SUBSETS, n=6)
    uspec = UtilitySpec(UtilityFamily.LOGISTIC, theta)
    rng = np.random.default_rng(int(ss[1].generate_state(1)[0]) + offset)
    hits = np.zeros(6)
    for _ in range(draws):
        hits += solve_map(spec, draw(uspec, rng).u).vertex
    target = expit(theta)
    return np.abs(hits / draws - target) / np.sqrt(target * (1.0 - target) / draws)


def _same_report(got, rep, retried):
    assert got["statistic"] == rep.statistic
    assert got["p_value"] == rep.p_value
    assert got["passed"] == rep.passed
    assert got.get("retried", False) is retried


# Retried seeds were found by scanning seeds at 2000 draws: their first
# attempt fails at level 0.01 (for subsets: some |z| > 3).  Seeds 74687
# (top-k) and 127044 (subsets) retry from a noise seed within RETRY_OFFSET
# of 2**32, so their retry seed does not fit a uint32.
@pytest.mark.parametrize("seed, retried", [(5, False), (22, True), (74687, True)])
def test_topk_suite_matches_per_draw_path(seed, retried):
    rep, was = _per_draw_topk(seed, 2000)
    assert was is retried
    (got,) = run_suite("topk", seed, draws=2000)
    _same_report(got, rep, retried)


@pytest.mark.parametrize("seed, retried", [(5, False), (26, True)])
def test_tree_suite_matches_per_draw_path(seed, retried):
    rep, was = _per_draw_tree(seed, 2000)
    assert was is retried
    (got,) = run_suite("tree", seed, draws=2000)
    _same_report(got, rep, retried)


@pytest.mark.parametrize("seed", [5, 48])
def test_arborescence_suite_matches_per_draw_path(seed):
    reports = run_suite("arborescence", seed, draws=2000)
    retries = []
    for i, (root, got) in enumerate(zip((0, 1, 2), reports)):
        rep, was = _per_draw_arborescence(seed, 2000, root, i)
        _same_report(got, rep, was)
        retries.append(was)
    assert any(retries) is (seed == 48)


@pytest.mark.parametrize("seed, retried", [(5, False), (95, True), (127044, True)])
def test_subsets_suite_matches_per_draw_path(seed, retried):
    z = _per_draw_subsets_z(seed, 2000)
    assert bool(z.max() > 3.0) is retried
    if retried:
        z = _per_draw_subsets_z(seed, 2000, RETRY_OFFSET)
    (got,) = run_suite("subsets", seed, draws=2000)
    assert got["max_z_score"] == float(z.max())
    assert got["passed"] is bool(z.max() <= 3.0)


def test_exponential_block_matches_per_draw_calls():
    lam = np.exp(np.random.default_rng(0).uniform(-1, 1, 6))
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = np.stack([a.exponential(scale=1.0 / lam) for _ in range(300)])
        block = np.concatenate([b.exponential(scale=1.0 / lam, size=(m, 6)) for m in (1, 120, 179)])
        assert rows.tobytes() == block.tobytes()
        assert a.bit_generator.state == b.bit_generator.state


# --- the public boundary ------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_input_errors(bad):
    rng = np.random.default_rng(0)
    tree_u = np.zeros(K4.num_edges)
    tree_u[2] = bad
    arb_u = np.zeros(D3.num_edges)
    arb_u[1] = bad
    vec = np.array([0.0, bad, 1.0, 2.0])
    calls = [
        lambda: kruskal_max_tree(K4, tree_u),
        lambda: cle_max_arborescence(D3, 0, arb_u),
        lambda: topk_select(vec, 2),
        lambda: hungarian_match(vec.reshape(2, 2)),
        lambda: sample_tree_categorical(K4, tree_u, rng),
        lambda: sample_topk_without_replacement(vec, 2, rng),
    ]
    for call in calls:
        with pytest.raises(InputError, match="must be finite"):
            call()
    nan_everywhere = np.full(K4.num_edges, np.nan)
    with pytest.raises(InputError):
        kruskal_max_tree(K4, nan_everywhere)


def test_negative_infinite_rates_are_input_errors():
    lam = np.ones(D3.num_edges)
    lam[0] = -np.inf
    with pytest.raises(InputError, match="strictly positive"):
        sample_arborescence_categorical(D3, 0, lam, np.random.default_rng(0))
    lam[0] = np.inf  # +inf stays a valid rate
    sample_arborescence_categorical(D3, 0, lam, np.random.default_rng(0))


def test_graph_arcs_are_built_once():
    g = complete_digraph(4)
    assert g.arcs is g.arcs
    tails, entering = g.arcs
    assert tails == tuple(t for t, _ in g.edges)
    for v in range(4):
        assert list(entering[v]) == g.in_edges(v) == sorted(entering[v])
        assert all(g.edges[i][1] == v for i in entering[v])
    assert sorted(i for ids in entering for i in ids) == list(range(g.num_edges))
    assert g == complete_digraph(4)
