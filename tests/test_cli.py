import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sst
from sst import verify as verify_mod
from sst import cli
from sst.cli import _dumps, _table_json, build_parser, run

from graphs import complete_arcs, complete_edges


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ``sst solve`` on a tied k-subset, then ``sst relax`` on a k-subset
# (Euclidean, with a dual and a residual) and on a triangle (with a
# condition estimate): every field of ``MapSolution`` and ``RelaxedPoint``,
# in field order
RECORD_OUTPUTS = {
    "json": (
        '{"objective": 1.5, "tie_broken": true, "vertex": [1, 1, 0, 0]}\n'
        '{"condition_estimate": null, "dual": 0.4999999999999999, "residual": 0.0, '
        '"x": [1.0, 0.5000000000000001, 0.5000000000000001, 0.0]}\n'
        '{"condition_estimate": 1.0264588760043691, "dual": null, "residual": null, '
        '"x": [0.6610072370227912, 0.4410954210660691, 0.8978973419111397]}\n'),
    "csv": (
        "vertex,[1, 1, 0, 0]\nobjective,1.5\ntie_broken,true\n"
        "x,[1.0, 0.5000000000000001, 0.5000000000000001, 0.0]\ndual,0.4999999999999999\n"
        "residual,0.0\ncondition_estimate,null\n"
        "x,[0.6610072370227912, 0.4410954210660691, 0.8978973419111397]\ndual,null\n"
        "residual,null\ncondition_estimate,1.0264588760043691\n"),
}


@pytest.mark.parametrize("fmt", sorted(RECORD_OUTPUTS))
def test_solve_and_relax_print_their_result_records(files, capsys, fmt):
    k_subsets = files("ks.json", {"kind": "k_subsets", "n": 4, "k": 2})
    u4 = files("u4.json", [1.0, 0.5, 0.5, -2.0])
    triangle = files("tri.json", {"kind": "spanning_tree",
                                  "graph": {"num_nodes": 3, "edges": complete_edges(3)}})
    u3 = files("u3.json", [0.3, -0.2, 1.5])
    fmt_flag = ["--format", fmt]
    assert run(["solve", "--spec", k_subsets, "--utilities", u4] + fmt_flag) == 0
    assert run(["relax", "--spec", k_subsets, "--utilities", u4, "--regularizer", "euclidean",
                "--temperature", "0.5"] + fmt_flag) == 0
    assert run(["relax", "--spec", triangle, "--utilities", u3,
                "--regularizer", "expfam"] + fmt_flag) == 0
    assert capsys.readouterr().out == RECORD_OUTPUTS[fmt]


class TestSolve:
    def test_one_hot_example(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        u = files("u.json", [0.1, 2.0, -1.0])
        code, out = run_json(["solve", "--spec", spec, "--utilities", u], capsys)
        assert code == 0
        assert out["vertex"] == [0, 1, 0]
        assert out["objective"] == 2.0
        assert out["tie_broken"] is False

    def test_dimension_mismatch_is_input_error(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        u = files("u.json", [0.1, 2.0])
        assert run(["solve", "--spec", spec, "--utilities", u]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "invalid_input"

    @pytest.mark.parametrize("argv", [
        ["solve"], ["relax", "--regularizer", "shannon"], ["marginals"],
        ["marginals", "--bruteforce"], ["gradcheck", "--regularizer", "shannon"],
    ])
    def test_length_is_checked_by_the_entry(self, files, capsys, argv):
        # the loader checks finiteness only; the public entry checks the length
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        for vec, shape in (([0.1, 2.0], "(2,)"), ([[0.1, 2.0, 1.0]], "(1, 3)")):
            u = files("u.json", vec)
            assert run([argv[0], "--spec", spec, "--utilities", u] + argv[1:]) == 1
            err = json.loads(capsys.readouterr().err)["error"]
            assert err == {"code": "invalid_input", "type": "DimensionMismatchError",
                           "message": f"expected a vector of length 3, got shape {shape}"}

    def test_utilities_object_reads_as_its_list(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        outs = []
        for payload in ([0.1, 2.0, -1.0], {"u": [0.1, 2.0, -1.0]}):
            assert run(["solve", "--spec", spec, "--utilities", files("u.json", payload)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["vertex"] == [0, 1, 0]

    def test_missing_file(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        assert run(["solve", "--spec", spec, "--utilities", "/nonexistent.json"]) == 1

    def test_directed_must_be_a_json_boolean(self, files, capsys):
        spec = files("spec.json", {"kind": "arborescence", "root": 0, "graph": {
            "num_nodes": 2, "edges": [[0, 1]], "directed": "false"}})
        u = files("u.json", [1.0])
        assert run(["solve", "--spec", spec, "--utilities", u]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "InvalidSpecError"
        assert err["message"] == "directed must be true or false, got 'false'"


class TestRelax:
    def test_k3_tree_marginals(self, files, capsys):
        spec = files("spec.json", {
            "kind": "spanning_tree",
            "graph": {"num_nodes": 3, "edges": [[0, 1], [0, 2], [1, 2]], "directed": False},
        })
        u = files("u.json", [0.0, 0.0, 0.0])
        code, out = run_json(
            ["relax", "--spec", spec, "--utilities", u,
             "--regularizer", "expfam_entropy", "--temperature", "1"],
            capsys,
        )
        assert code == 0
        assert [round(v, 4) for v in out["x"]] == [0.6667, 0.6667, 0.6667]

    def test_singular_tree_point_prints_infinity(self, files, capsys):
        """A tree point whose reduced Laplacian is singular in double
        precision reports ``condition_estimate`` inf, which Python's json
        writes as ``Infinity`` and reads back."""
        spec = files("spec.json", {"kind": "spanning_tree",
                                   "graph": {"num_nodes": 6, "edges": complete_edges(6)}})
        u = files("u.json", np.random.default_rng(11).normal(size=15).tolist())
        code = run(["relax", "--spec", spec, "--utilities", u,
                    "--regularizer", "expfam_entropy", "--temperature", "1e-4"])
        text = capsys.readouterr().out
        assert code == 0 and '"condition_estimate": Infinity' in text
        assert json.loads(text)["condition_estimate"] == float("inf")

    def test_expfam_short_alias(self, files, capsys):
        spec = files("spec.json", {"kind": "k_subsets", "n": 4, "k": 2})
        u = files("u.json", [0.0, 0.0, 0.0, 0.0])
        code, out = run_json(
            ["relax", "--spec", spec, "--utilities", u, "--regularizer", "expfam"],
            capsys,
        )
        assert code == 0
        assert [round(v, 4) for v in out["x"]] == [0.5, 0.5, 0.5, 0.5]

    def test_solver_failure_exit_code(self, files, capsys):
        spec = files("spec.json", {"kind": "matching", "n": 3})
        u = files("u.json", list(np.random.default_rng(19).normal(size=9)))
        code = run([
            "relax", "--spec", spec, "--utilities", u,
            "--regularizer", "shannon", "--temperature", "0.01",
            "--tol", "1e-12", "--max-iter", "2",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "solver_failure"

    def test_unsupported_pair_is_input_error(self, files, capsys):
        spec = files("spec.json", {"kind": "matching", "n": 2})
        u = files("u.json", [0.0, 0.0, 0.0, 0.0])
        code = run([
            "relax", "--spec", spec, "--utilities", u,
            "--regularizer", "euclidean",
        ])
        assert code == 1


class TestMarginals:
    @pytest.mark.parametrize("method", [[], ["--bruteforce"]])
    def test_one_node_tree(self, files, capsys, method):
        spec = files("spec.json", {"kind": "spanning_tree",
                                   "graph": {"num_nodes": 1, "edges": []}})
        u = files("u.json", [])
        code, out = run_json(["marginals", "--spec", spec, "--utilities", u] + method, capsys)
        assert code == 0
        assert out["marginals"] == []

    def test_structured_matches_bruteforce(self, files, capsys):
        spec = files("spec.json", {"kind": "k_subsets", "n": 5, "k": 2})
        u = files("u.json", [0.3, -0.1, 0.9, 0.0, -1.2])
        code, fast = run_json(
            ["marginals", "--spec", spec, "--utilities", u, "--temperature", "0.7"],
            capsys,
        )
        assert code == 0
        code, slow = run_json(
            ["marginals", "--spec", spec, "--utilities", u, "--temperature", "0.7",
             "--bruteforce"],
            capsys,
        )
        assert code == 0
        np.testing.assert_allclose(fast["marginals"], slow["marginals"], atol=1e-10)

    @pytest.mark.parametrize("method", [[], ["--bruteforce"]])
    def test_zero_temperature_is_input_error(self, files, capsys, method):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        u = files("u.json", [0.3, -0.1, 0.9])
        argv = ["marginals", "--spec", spec, "--utilities", u, "--temperature", "0"]
        assert run(argv + method) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "invalid_input", "type": "InputError",
                       "message": "temperature must be > 0"}


class TestSample:
    def test_frequency_table_deterministic(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        noise = files("noise.json", {"family": "gumbel", "theta": [0.0, 0.5, -0.5]})
        argv = ["sample", "--spec", spec, "--noise", noise, "--seed", "7", "--draws", "200"]
        code = run(argv)
        first = capsys.readouterr().out
        assert code == 0
        run(argv)
        assert capsys.readouterr().out == first
        table = json.loads(first)
        assert sum(table["counts"]) == table["total"] == 200

    def test_raw_draws(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 2})
        noise = files("noise.json", {"family": "logistic", "theta": [0.0, 0.0]})
        code, out = run_json(
            ["sample", "--spec", spec, "--noise", noise, "--seed", "1",
             "--draws", "5", "--raw"],
            capsys,
        )
        assert code == 0
        assert len(out["draws"]) == 5
        assert all(sum(d) == 1 for d in out["draws"])

    def test_raw_negative_draws_are_rejected(self, files, capsys):
        argv = ["sample", "--spec", files("spec.json", {"kind": "one_hot", "n": 2}),
                "--noise", files("noise.json", {"family": "gumbel", "theta": [0.0, 0.0]}),
                "--seed", "1", "--raw"]
        assert run(argv + ["--draws", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": {
            "code": "invalid_input", "type": "InputError",
            "message": "draws must be >= 0 with --raw"}}
        assert run(argv + ["--draws", "0"]) == 0
        assert capsys.readouterr().out == '{"draws": []}\n'

    def test_noise_dimension_checked(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        noise = files("noise.json", {"family": "gumbel", "theta": [0.0]})
        assert run(["sample", "--spec", spec, "--noise", noise, "--seed", "0"]) == 1

    def test_table_writer_matches_json_dumps(self):
        g = np.random.default_rng(3)
        shapes = [(1, 0), (1, 1), (1, 9), (4, 1)]
        shapes += [(int(g.integers(1, 60)), int(g.integers(0, 70))) for _ in range(60)]
        for rows, width in shapes:
            support = g.integers(0, 2, size=(rows, width)).astype(np.int8)
            counts = g.integers(1, 10 ** 6, size=rows)
            total = int(g.integers(1, 10 ** 9))
            want = _dumps({"support": support, "counts": counts, "total": total}, sort_keys=True)
            assert _table_json(support, counts, total) == want

    @pytest.mark.parametrize("kind", ["k_subsets", "arborescence"])
    def test_csv_and_out_tables_are_unchanged(self, files, capsys, tmp_path, kind):
        if kind == "k_subsets":
            spec = {"kind": "k_subsets", "n": 6, "k": 2}
        else:
            spec = {"kind": "arborescence", "root": 0,
                    "graph": {"num_nodes": 4, "edges": complete_arcs(4), "directed": True}}
        dim = 6 if kind == "k_subsets" else 12
        argv = ["sample", "--spec", files("spec.json", spec), "--noise",
                files("noise.json", {"family": "gumbel", "theta": [0.1 * i for i in range(dim)]}),
                "--seed", "5", "--draws", "300"]
        assert run(argv) == 0
        text = capsys.readouterr().out
        table = json.loads(text)
        assert run(argv + ["--format", "csv"]) == 0
        want = "".join(f"{key},{json.dumps(table[key])}\n" for key in ("support", "counts", "total"))
        assert capsys.readouterr().out == want
        target = tmp_path / "table.json"
        assert run(argv + ["--out", str(target)]) == 0
        assert target.read_text() == text

    def test_one_node_tree(self, files, capsys):
        """The empty edge set is the only tree of one node: every draw is the
        zero-width vertex."""
        for graph in ({"num_nodes": 1, "edges": []},
                      {"num_nodes": 1, "edges": [], "directed": True}):
            spec = {"kind": "arborescence", "root": 0, "graph": graph} if graph.get("directed") \
                else {"kind": "spanning_tree", "graph": graph}
            argv = ["sample", "--spec", files("spec.json", spec), "--noise",
                    files("noise.json", {"family": "gumbel", "theta": []}),
                    "--seed", "1", "--draws", "3"]
            assert run_json(argv, capsys) == (0, {"counts": [3], "support": [[]], "total": 3})
            assert run_json(argv + ["--raw"], capsys) == (0, {"draws": [[], [], []]})


class TestGradcheckCommand:
    def test_pass(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 4})
        code, out = run_json(
            ["gradcheck", "--spec", spec, "--regularizer", "shannon",
             "--temperature", "1.0", "--epsilon", "1e-4", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert out["passed"] is True

    def test_verification_failure_exit_code(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 4})
        code = run(
            ["gradcheck", "--spec", spec, "--regularizer", "shannon",
             "--tolerance", "1e-18", "--seed", "3"],
        )
        capsys.readouterr()
        assert code == 3


    @pytest.mark.parametrize("argv, message", [
        (["--epsilon", "inf"], "epsilon must be finite"),
        (["--tolerance", "nan"], "tolerance must be a finite number >= 0, got nan"),
        (["--tolerance", "inf"], "tolerance must be a finite number >= 0, got inf"),
    ])
    def test_non_finite_step_and_tolerance_are_input_errors(self, files, capsys, argv, message):
        spec = files("spec.json", {"kind": "one_hot", "n": 4})
        code = run(["gradcheck", "--spec", spec, "--regularizer", "shannon"] + argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert json.loads(captured.err)["error"]["message"] == message


class TestVerifyCommand:
    def test_suite_runs_and_is_byte_stable(self, files, capsys):
        argv = ["verify", "--suite", "matrix-tree", "--seed", "5"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        reports = json.loads(first)
        assert all(r["passed"] for r in reports)

    def test_gumbel_max_suite_byte_stable(self, files, capsys):
        argv = ["verify", "--suite", "gumbel-max", "--seed", "7"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert all(r["passed"] for r in json.loads(first))

    def test_csv_rows_align_when_some_checks_retried(self, capsys, monkeypatch):
        # at 2000 draws, seed 48 retries the root-1 check only, whose report
        # holds a "retried" key that the other two lack
        suite = verify_mod.run_suite
        monkeypatch.setattr(verify_mod, "run_suite",
                            lambda name, seed: suite(name, seed, draws=2000))
        assert run(["verify", "--suite", "arborescence", "--seed", "48", "--format", "csv"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["check", "passed", "statistic", "dof", "p_value", "draws", "suite",
                          "retried"]
        assert [len(row) for row in rows] == [len(header)] * 3
        cells = [dict(zip(header, row)) for row in rows]
        assert [c["retried"] for c in cells] == ["", "true", ""]
        assert [(c["draws"], c["suite"]) for c in cells] == [("2000", "arborescence")] * 3


class TestEnumerate:
    def test_subsets(self, files, capsys):
        spec = files("spec.json", {"kind": "subsets", "n": 2})
        code, out = run_json(["enumerate", "--spec", spec], capsys)
        assert code == 0
        assert out["count"] == 4
        assert out["vertices"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_limit_flag(self, files, capsys):
        spec = files("spec.json", {"kind": "subsets", "n": 12})
        assert run(["enumerate", "--spec", spec, "--limit", "100"]) == 1

    def test_negative_limit_is_input_error(self, files, capsys):
        spec = files("spec.json", {"kind": "subsets", "n": 2})
        assert run(["enumerate", "--spec", spec, "--limit", "-1"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "invalid_input", "type": "InputError",
                       "message": "limit must be >= 0, got -1"}

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "one_hot", "n": "5"}, "n must be an integer, got '5'"),
        ({"kind": "one_hot", "n": 2.5}, "n must be an integer, got 2.5"),
        ({"kind": "one_hot", "n": True}, "n must be an integer, got True"),
        ({"kind": "k_subsets", "n": 5, "k": 2.5}, "k must be an integer, got 2.5"),
        ({"kind": "arborescence", "root": "0",
          "graph": {"num_nodes": 2, "edges": [[0, 1]], "directed": True}},
         "root must be an integer, got '0'"),
        ({"kind": "spanning_tree", "graph": {"num_nodes": "x", "edges": [[0, 1]]}},
         "num_nodes must be an integer, got 'x'"),
        ({"kind": "spanning_tree", "graph": {"num_nodes": 2, "edges": [[0, 1.5]]}},
         "edge endpoint must be an integer, got 1.5"),
    ])
    def test_non_integer_spec_fields_are_input_errors(self, files, capsys, spec, message):
        assert run(["enumerate", "--spec", files("spec.json", spec)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "invalid_input", "type": "InvalidSpecError", "message": message}


    @pytest.mark.parametrize("text", ["abc", "-1"])
    @pytest.mark.parametrize("argv", [["enumerate"], ["marginals", "--bruteforce"]])
    def test_bad_limit_variable_is_input_error(self, files, capsys, monkeypatch, argv, text):
        monkeypatch.setenv("SST_MAX_ENUM", text)
        spec = files("spec.json", {"kind": "subsets", "n": 2})
        u = files("u.json", [0.5, -0.5])
        extra = ["--utilities", u] if argv[0] == "marginals" else []
        assert run([argv[0], "--spec", spec] + extra + argv[1:]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": "invalid_input", "type": "InputError",
                       "message": f"SST_MAX_ENUM must be a non-negative integer, got '{text}'"}


class TestUnreadableFiles:
    def _error(self, argv, capsys):
        assert run(argv) == 1
        return json.loads(capsys.readouterr().err)["error"]

    def test_directory_as_spec(self, files, capsys, tmp_path):
        err = self._error(["enumerate", "--spec", str(tmp_path)], capsys)
        assert err["type"] == "InputError"
        assert err["message"].startswith(f"cannot read {tmp_path}: ")

    def test_directory_as_out(self, files, capsys, tmp_path):
        spec = files("spec.json", {"kind": "subsets", "n": 2})
        err = self._error(["enumerate", "--spec", spec, "--out", str(tmp_path)], capsys)
        assert err["type"] == "InputError"
        assert err["message"].startswith(f"cannot write {tmp_path}: ")

    @pytest.mark.parametrize("payload", ["abc", [[1, 2], [3]], {"v": 1}])
    def test_utilities_that_are_not_numbers(self, files, capsys, payload):
        spec = files("spec.json", {"kind": "one_hot", "n": 2})
        u = files("u.json", payload)
        err = self._error(["solve", "--spec", spec, "--utilities", u], capsys)
        assert err == {"code": "invalid_input", "type": "InputError",
                       "message": f"{u}: utilities must be an array of numbers"}

    def test_malformed_json(self, files, capsys, tmp_path):
        spec = files("spec.json", {"kind": "one_hot", "n": 2})
        u = tmp_path / "u.json"
        u.write_text("[1.0, 2.0")
        err = self._error(["solve", "--spec", spec, "--utilities", str(u)], capsys)
        assert err["type"] == "InputError"
        assert err["message"].startswith(f"malformed JSON in {u}: ")

    def test_integer_past_the_double_range(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 2})
        u = files("u.json", [1, 10 ** 400])
        err = self._error(["solve", "--spec", spec, "--utilities", u], capsys)
        assert err == {"code": "invalid_input", "type": "InputError",
                       "message": f"{u}: utilities must be finite"}
        noise = files("noise.json", {"family": "gumbel", "theta": [0, 10 ** 400]})
        err = self._error(["sample", "--spec", spec, "--noise", noise, "--seed", "0"], capsys)
        assert err["type"] == "InvalidSpecError"
        assert err["message"].startswith("malformed utility spec")

    def test_spec_that_is_not_an_object(self, files, capsys):
        spec = files("spec.json", [{"kind": "one_hot", "n": 2}])
        err = self._error(["enumerate", "--spec", spec], capsys)
        assert err == {"code": "invalid_input", "type": "InvalidSpecError",
                       "message": "a structure spec must be an object, got list"}


class TestFormats:
    def test_csv_output(self, files, capsys):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        u = files("u.json", [0.1, 2.0, -1.0])
        code = run(["solve", "--spec", spec, "--utilities", u, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert json.loads(rows["objective"]) == 2.0

    def test_out_file(self, files, capsys, tmp_path):
        spec = files("spec.json", {"kind": "one_hot", "n": 3})
        u = files("u.json", [0.1, 2.0, -1.0])
        target = tmp_path / "result.json"
        assert run(["solve", "--spec", spec, "--utilities", u, "--out", str(target)]) == 0
        assert json.loads(target.read_text())["vertex"] == [0, 1, 0]

    def test_round_trip_relax_point(self, files, capsys):
        """JSON floats use the shortest round-trip decimal form, so the
        emitted vector re-parses to exactly the in-memory result."""
        import sst

        spec_d = {"kind": "subsets", "n": 3}
        u_vec = [0.5, -0.5, 0.0]
        spec = files("spec.json", spec_d)
        u = files("u.json", u_vec)
        code, out = run_json(
            ["relax", "--spec", spec, "--utilities", u,
             "--regularizer", "binary_entropy"],
            capsys,
        )
        assert code == 0
        direct = sst.relax(
            sst.spec_from_dict(spec_d),
            sst.RelaxationSpec("binary_entropy", temperature=1.0),
            np.asarray(u_vec),
        ).x
        assert out["x"] == direct.tolist()


def test_console_entry_point(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "one_hot", "n": 3}))
    u = tmp_path / "u.json"
    u.write_text(json.dumps([0.1, 2.0, -1.0]))
    proc = subprocess.run(
        [sys.executable, "-m", "sst.cli", "solve", "--spec", str(spec), "--utilities", str(u)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vertex"] == [0, 1, 0]


def test_import_leaves_slow_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(sst.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sst; print(sorted(m for m in ('scipy.optimize', 'scipy.stats') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_TREE_SOLVES_SCRIPT = """
import importlib, sys
import numpy as np
import sst, sst.cli
from sst import Graph, RelaxationSpec, StructureSpec, fd_vjp, relax

relax_module = importlib.import_module("sst.relax")
calls = {"_tree_rows_by_inverse": 0, "_tree_marginals_by_logdet": 0}
for name in calls:
    def counted(*args, _name=name, _f=getattr(relax_module, name)):
        calls[_name] += 1
        return _f(*args)
    setattr(relax_module, name, counted)
rspec = RelaxationSpec("expfam_entropy", temperature=0.05)
k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
d4 = Graph(4, [(a, b) for a in range(4) for b in range(4) if a != b], directed=True)
for spec in (StructureSpec("spanning_tree", graph=k5), StructureSpec("arborescence", graph=d4, root=0)):
    # equal weights are certified at any temperature; spread ones are not
    for u in (np.zeros(spec.dim), 3.0 * np.random.default_rng(0).normal(size=spec.dim)):
        relax(spec, rspec, u)
        fd_vjp(spec, rspec, u, np.ones(spec.dim))
assert sst.cli.run(sys.argv[1:]) == 0
assert min(calls.values()) > 0, calls
print(sorted(m for m in ("scipy.optimize", "scipy.stats", "scipy.linalg") if m in sys.modules),
      file=sys.stderr)
"""


def test_tree_solves_and_a_sample_leave_slow_scipy_modules_unloaded(files):
    """Both tree paths (the certified inverse with its condition numbers,
    and the elimination) and a one-hot ``sst sample`` run on numpy alone: the
    matching solver's ``scipy.optimize`` and the KS test's ``scipy.stats``
    stay lazy, and no tree solve reaches for ``scipy.linalg``."""
    src = os.path.dirname(os.path.dirname(sst.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["sample", "--spec", files("spec.json", {"kind": "one_hot", "n": 3}),
            "--noise", files("noise.json", {"family": "gumbel", "theta": [0.0, 0.5, -0.5]}),
            "--seed", "3", "--draws", "50"]
    proc = subprocess.run([sys.executable, "-c", _TREE_SOLVES_SCRIPT, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total"] == 50
    assert proc.stderr.strip() == "[]"


# (argv, the namespace it parses to) for each subcommand: only the required
# flags, then every flag set to a value other than its default
PARSED = [
    (["solve", "--spec", "s", "--utilities", "u"],
     dict(command="solve", spec="s", utilities="u", format="json", out=None)),
    (["solve", "--spec", "s", "--utilities", "u", "--format", "csv", "--out", "o"],
     dict(command="solve", spec="s", utilities="u", format="csv", out="o")),
    (["sample", "--spec", "s", "--noise", "n", "--seed", "3"],
     dict(command="sample", spec="s", noise="n", seed=3, draws=1, raw=False, format="json",
          out=None)),
    (["sample", "--spec", "s", "--noise", "n", "--seed", "3", "--draws", "5", "--raw",
      "--format", "csv", "--out", "o"],
     dict(command="sample", spec="s", noise="n", seed=3, draws=5, raw=True, format="csv",
          out="o")),
    (["relax", "--spec", "s", "--utilities", "u", "--regularizer", "expfam"],
     dict(command="relax", spec="s", utilities="u", regularizer="expfam", temperature=1.0,
          tol=1e-10, max_iter=None, format="json", out=None)),
    (["relax", "--spec", "s", "--utilities", "u", "--regularizer", "shannon",
      "--temperature", "0.5", "--tol", "1e-8", "--max-iter", "50", "--format", "csv",
      "--out", "o"],
     dict(command="relax", spec="s", utilities="u", regularizer="shannon", temperature=0.5,
          tol=1e-8, max_iter=50, format="csv", out="o")),
    (["marginals", "--spec", "s", "--utilities", "u"],
     dict(command="marginals", spec="s", utilities="u", temperature=1.0, bruteforce=False,
          format="json", out=None)),
    (["marginals", "--spec", "s", "--utilities", "u", "--temperature", "2", "--bruteforce",
      "--format", "csv", "--out", "o"],
     dict(command="marginals", spec="s", utilities="u", temperature=2.0, bruteforce=True,
          format="csv", out="o")),
    (["gradcheck", "--spec", "s", "--regularizer", "euclidean"],
     dict(command="gradcheck", spec="s", utilities=None, regularizer="euclidean",
          temperature=1.0, epsilon=1e-4, tolerance=1e-6, tol=1e-12, max_iter=20_000, seed=0,
          format="json", out=None)),
    (["gradcheck", "--spec", "s", "--utilities", "u", "--regularizer", "expfam_entropy",
      "--temperature", "0.25", "--epsilon", "1e-5", "--tolerance", "1e-3", "--tol", "1e-9",
      "--max-iter", "7", "--seed", "18446744073709551615", "--format", "csv", "--out", "o"],
     dict(command="gradcheck", spec="s", utilities="u", regularizer="expfam_entropy",
          temperature=0.25, epsilon=1e-5, tolerance=1e-3, tol=1e-9, max_iter=7,
          seed=2 ** 64 - 1, format="csv", out="o")),
    (["verify", "--suite", "limits", "--seed", "0"],
     dict(command="verify", suite="limits", seed=0, format="json", out=None)),
    (["verify", "--suite", "tree", "--seed", "9", "--format", "csv", "--out", "o"],
     dict(command="verify", suite="tree", seed=9, format="csv", out="o")),
    (["enumerate", "--spec", "s"],
     dict(command="enumerate", spec="s", limit=None, format="json", out=None)),
    (["enumerate", "--spec", "s", "--limit", "4", "--format", "csv", "--out", "o"],
     dict(command="enumerate", spec="s", limit=4, format="csv", out="o")),
]


@pytest.mark.parametrize("argv, want", PARSED,
                         ids=[f"{argv[0]}-{('required', 'every-flag')[i % 2]}"
                              for i, (argv, _) in enumerate(PARSED)])
def test_parser_reads_each_flag(argv, want):
    """Each flag's dest, type, default and order, and the handler."""
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("fn") is getattr(cli, f"_cmd_{argv[0]}")
    assert list(parsed.items()) == list(want.items())


def test_bad_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


def test_negative_seed_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "limits", "--seed", "-1"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "sst verify: error: argument --seed: seed must be an unsigned 64-bit integer\n")
