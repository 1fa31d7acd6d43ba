"""Outputs pinned across versions.

``tests/golden/`` holds recorded outputs: ``sst sample`` frequency
tables (seed 7, 200 draws) and ``sst marginals --bruteforce`` output for
one instance of every structure kind, the five statistical suites
(``gumbel-max``, ``subsets``, ``topk``, ``tree`` and ``arborescence``) at
seed 20240 with 2000 draws and at their default draw counts, with the
``limits`` suite at seed 20240 (``suites_full.json``: the acceptance
criteria 1-4 and 7 check the other four statistical suites and ``limits``
against it, this module checks ``subsets``), and the exception
type and message (or ``null`` for a result) of ``relax`` and
``analytic_jacobian`` on a small and a large instance of every (kind,
regularizer) pair.  A seed maps to the same output across versions, so
each must be reproduced exactly.
"""

import contextlib
import io
import itertools
import json
import pathlib
import time

import numpy as np
import pytest

import sst
from sst.cli import run

from graphs import complete_arcs, complete_edges

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"


def _load(name):
    return json.loads((GOLDEN / name).read_text())


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


def test_seeded_outputs_reproduce_exactly(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    start = time.perf_counter()
    for case in _load("sample.json"):
        argv = ["sample", "--spec", write("spec.json", case["spec"]),
                "--noise", write("noise.json", case["noise"]), "--seed", "7", "--draws", "200"]
        assert _cli_stdout(argv) == case["stdout"], case["spec"]["kind"]
    for case in _load("marginals.json"):
        argv = ["marginals", "--spec", write("spec.json", case["spec"]),
                "--utilities", write("u.json", case["utilities"]),
                "--temperature", str(case["temperature"]), "--bruteforce"]
        assert _cli_stdout(argv) == case["stdout"], case["spec"]["kind"]
    for name, reports in _load("suites.json").items():
        got = json.loads(json.dumps(sst.run_suite(name, 20240, draws=2000)))
        assert got == reports, name
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"golden fixtures took {elapsed:.1f}s, budget 3s"


def test_subsets_suite_at_full_draws_reproduces_exactly():
    want = _load("suites_full.json")["subsets"]
    assert json.loads(json.dumps(sst.run_suite("subsets", 20240))) == want


_K4 = {"num_nodes": 4, "edges": complete_edges(4), "directed": False}
_D3 = {"num_nodes": 3, "edges": complete_arcs(3), "directed": True}
# a small and a large instance per kind; the large ones pass the
# enumeration limits of the covariance Jacobian and the matching marginals
_INSTANCES = {
    "one_hot": [{"kind": "one_hot", "n": 4}, {"kind": "one_hot", "n": 50}],
    "subsets": [{"kind": "subsets", "n": 4}, {"kind": "subsets", "n": 50}],
    "k_subsets": [{"kind": "k_subsets", "n": 5, "k": 2}, {"kind": "k_subsets", "n": 40, "k": 13}],
    "corr_k_subsets": [{"kind": "corr_k_subsets", "n": 5, "k": 2},
                       {"kind": "corr_k_subsets", "n": 30, "k": 10}],
    "matching": [{"kind": "matching", "n": 3}, {"kind": "matching", "n": 8}],
    "spanning_tree": [{"kind": "spanning_tree", "graph": _K4},
                      {"kind": "spanning_tree",
                       "graph": {"num_nodes": 7, "edges": complete_edges(7), "directed": False}}],
    "arborescence": [{"kind": "arborescence", "graph": _D3, "root": 0},
                     {"kind": "arborescence", "root": 0,
                      "graph": {"num_nodes": 7, "edges": complete_arcs(7), "directed": True}}],
}


def _outcome(fn):
    try:
        fn()
    except sst.SstError as exc:
        return [type(exc).__name__, str(exc)]
    return None


@pytest.mark.parametrize(
    "kind,reg", list(itertools.product(sst.StructureKind, sst.Regularizer)),
    ids=lambda v: v.value,
)
def test_pair_boundary_unchanged(kind, reg):
    pairs = _load("pairs.json")
    for size, spec_d in zip(("small", "large"), _INSTANCES[kind.value]):
        spec = sst.spec_from_dict(spec_d)
        u = np.random.default_rng(3).normal(size=spec.dim)
        rs = sst.RelaxationSpec(reg, temperature=0.5)
        want = pairs[f"{kind.value} {reg.value} {size}"]
        assert _outcome(lambda: sst.relax(spec, rs, u)) == want["relax"], size
        assert _outcome(lambda: sst.analytic_jacobian(spec, rs, u)) == want["jacobian"], size


def test_readme_pair_table_matches_supported_pairs():
    text = README.read_text()
    section = text[text.index("## Supported structure/regularizer pairs"):]
    section = section[:section.index("\n## ")]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header = [c.strip() for c in rows[0].strip("|").split("|")]
    assert header[1:] == [r.value for r in sst.Regularizer]
    table = set()
    for line in rows[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        table |= {(sst.StructureKind(cells[0]), sst.Regularizer(reg))
                  for reg, cell in zip(header[1:], cells[1:]) if cell != "-"}
    assert table == set(sst.supported_pairs())
