import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import bilevelpen as bp
from bilevelpen import cli
from bilevelpen.cli import main


def run_cli(*args, tmp_path=None):
    argv = list(args)
    if tmp_path is not None:
        argv += ["--output", str(tmp_path)]
    return main(argv)


def _gridded_qb(tmp_path):
    """A QB document whose follower reads y, so its oracle grids x: QB's own
    convex quadratic follower takes the exact argmin face and no grid."""
    path = tmp_path / "qb_y.json"
    path.write_text(json.dumps({**bp.problem_to_dict(bp.registry_get("QB")),
                                "name": "qb-y", "h": "(x[0] + x[1] - y[0])^2"}))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestList:
    def test_lists_registry(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out.split()
        assert "FS" in out and "QB" in out


class TestSolve:
    def test_qb_solve(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "QB", "--epsilon", "0.1",
                       "--seed", "7", tmp_path=tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "QB_solve.json").read_text())
        assert doc["schema"] == "solve-v1"
        assert doc["value"] == pytest.approx(4.0 / 1.4, abs=2e-4)
        assert doc["seed"] == 7
        assert doc["converged"] is True
        # csv mirror agrees with the json report
        with open(tmp_path / "QB_solve.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["value"]) == doc["value"]

    def test_unknown_problem(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "nope", "--epsilon", "0.1",
                       tmp_path=tmp_path)
        assert code == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_zero_epsilon(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "QB", "--epsilon", "0",
                       tmp_path=tmp_path)
        assert code == 1
        assert "epsilon must be positive" in capsys.readouterr().err

    def test_bad_flag_is_config_error(self, tmp_path, capsys):
        assert run_cli("solve", "--problem", "QB", tmp_path=tmp_path) == 1

    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"], ["continuation"],
                                         ["rates"]])
    def test_negative_seed_names_the_seed(self, tmp_path, capsys, command):
        # the error used to be numpy's "expected non-negative integer"
        code = run_cli(*command, "--problem", "QB", "--seed", "-1", tmp_path=tmp_path)
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be an integer of at least 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_optimistic_solve(self, tmp_path):
        code = run_cli("solve", "--problem", "FS", "--epsilon", "0.01",
                       "--sign", "optimistic", tmp_path=tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "FS_solve.json").read_text())
        assert doc["value"] == pytest.approx(3.0, abs=1e-3)


class TestContinuation:
    def test_qb_trace_files(self, tmp_path):
        code = run_cli("continuation", "--problem", "QB", "--eps0", "0.1",
                       "--rho", "0.5", "--k", "10", tmp_path=tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "QB_trace.json").read_text())
        assert doc["schema"] == "trace-v1"
        assert doc["monotone_ok"] is True
        vs = [r["v"] for r in doc["rows"]]
        assert vs == sorted(vs)
        assert vs[-1] == pytest.approx(4 / (1 + 4 * 0.1 * 0.5 ** 9), abs=2e-4)
        with open(tmp_path / "QB_trace.csv") as fh:
            header = fh.readline().strip()
            rows = list(csv.reader(fh))
        assert header == "epsilon,y0,x0,x1,x2,x3,v,h_value,fw_gap,evals"
        # every cell is a number, and each row holds its JSON row's values
        assert len(rows) == len(doc["rows"])
        for row, doc_row in zip(rows, doc["rows"]):
            assert [float(c) for c in row] == (
                [doc_row["epsilon"]] + doc_row["y"] + doc_row["x"]
                + [doc_row[k] for k in ("v", "h_value", "fw_gap", "evals")])

    def test_fs_constant_trace(self, tmp_path):
        code = run_cli("continuation", "--problem", "FS", "--k", "4",
                       tmp_path=tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "FS_trace.json").read_text())
        assert all(abs(r["v"] - 2.0) < 1e-9 for r in doc["rows"])

    def test_limit_needs_three_rows(self, tmp_path, capsys):
        code = run_cli("continuation", "--problem", "QB", "--k", "1",
                       "--limit", tmp_path=tmp_path)
        assert code == 1
        assert "need k >= 3" in capsys.readouterr().err

    def _run_with_rows(self, monkeypatch, tmp_path, change):
        """Run `continuation` on QB with row 2 of each trace changed by change."""
        run = cli.run_continuation

        def changed(*args, **kwargs):
            trace = run(*args, **kwargs)
            rows = list(trace.rows)
            rows[2] = dataclasses.replace(rows[2], **change)
            return dataclasses.replace(trace, rows=tuple(rows))
        monkeypatch.setattr(cli, "run_continuation", changed)
        return run_cli("continuation", "--problem", "QB", "--k", "4", tmp_path=tmp_path)

    def test_monotonicity_drop_exits_2_with_its_report(self, tmp_path, capsys, monkeypatch):
        code = self._run_with_rows(monkeypatch, tmp_path, {"v": 0.0})
        assert code == 2
        assert capsys.readouterr().err == "monotonicity violated at rows [2]\n"
        doc = json.loads((tmp_path / "QB_trace.json").read_text())
        assert doc["monotone_ok"] is False and doc["monotone_violations"] == [2]
        assert (tmp_path / "QB_trace.csv").exists()

    def test_unconverged_row_exits_2(self, tmp_path, capsys, monkeypatch):
        code = self._run_with_rows(monkeypatch, tmp_path, {"converged": False})
        assert code == 2
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "QB_trace.json").read_text())
        assert doc["monotone_ok"] is True
        assert [r["converged"] for r in doc["rows"]] == [True, True, False, True]

    def test_limit_report(self, tmp_path):
        code = run_cli("continuation", "--problem", "QB", "--k", "12",
                       "--limit", tmp_path=tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "QB_trace.json").read_text())
        assert doc["limit"]["v"] == pytest.approx(4.0, abs=1e-3)


class TestOracle:
    def test_qb_oracle(self, tmp_path):
        code = run_cli("oracle", "--problem", "QB", "--ygrid", "1e-3",
                       tmp_path=tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "QB_oracle.json").read_text())
        assert doc["schema"] == "oracle-v1"
        assert doc["leader_value"] == pytest.approx(4.0, abs=1e-3)
        assert doc["y_best"][0] == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("problem,flag", [("FS", "--ygrid"), ("QB", "--xgrid")])
    def test_zero_grid_step_is_input_error(self, tmp_path, capsys, problem, flag):
        assert run_cli("oracle", "--problem", problem, flag, "0", tmp_path=tmp_path) == 1
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,other", [("--xgrid", "--ygrid"), ("--ygrid", "--xgrid")])
    def test_infinite_grid_step_is_input_error(self, tmp_path, capsys, flag, other):
        # an infinite step used to grid a single point and report a wrong value
        code = run_cli("oracle", "--problem", "QB", flag, "inf", other, "0.1", tmp_path=tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be positive and finite" in err
        assert f"{flag[2:]} must" in err  # the flag's name, not the library's
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt,files", [("json", ["FS_oracle.json"]),
                                           ("csv", ["FS_oracle.csv"]),
                                           ("both", ["FS_oracle.csv", "FS_oracle.json"])])
    def test_format_picks_the_reports(self, tmp_path, fmt, files):
        assert run_cli("oracle", "--problem", "FS", "--format", fmt, tmp_path=tmp_path) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == files

    def test_csv_holds_the_json_values(self, tmp_path):
        assert run_cli("oracle", "--problem", "FS", tmp_path=tmp_path) == 0
        doc = json.loads((tmp_path / "FS_oracle.json").read_text())
        with open(tmp_path / "FS_oracle.csv") as fh:
            header, row = csv.reader(fh)
        assert header == ["y_best0", "x_best0", "x_best1", "leader_value", "follower_value",
                          "method", "resolution"]
        assert row == [str(v) for v in [*doc["y_best"], *doc["x_best"], doc["leader_value"],
                                        doc["follower_value"], doc["method"], doc["resolution"]]]

    def test_follower_reading_y_report_bytes_are_pinned(self, tmp_path):
        # the per-y path: the argmin set on the x grid at every leader point
        out = tmp_path / "out"
        assert run_cli("oracle", "--problem", _gridded_qb(tmp_path), "--ygrid", "0.01",
                       "--xgrid", "0.01", "--format", "json", tmp_path=out) == 0
        report = (out / "qb-y_oracle.json").read_bytes()
        doc = json.loads(report)
        assert doc["method"] == "grid" and doc["leader_value"] == 3.158832185270581
        assert hashlib.sha256(report).hexdigest() == (
            "81a1dd607f3c4d07fb5d34f60d33f1b9a884d19eed12d002cb4bb90d6804dbad")

    def test_seed_is_not_an_oracle_flag(self, tmp_path, capsys):
        assert run_cli("oracle", "--problem", "FS", "--seed", "3", tmp_path=tmp_path) == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_is_input_error(self, tmp_path, capsys, tol):
        code = run_cli("oracle", "--problem", "FS", "--tol", tol, "--ygrid", "0.1",
                       "--xgrid", "0.1", tmp_path=tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tol must be" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestOutput:
    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"], ["continuation"],
                                         ["oracle"], ["rates"]])
    def test_output_file_is_input_error(self, tmp_path, capsys, monkeypatch, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(cli, "resolve_problem",
                            lambda name: pytest.fail("--output checked after solving"))
        code = main(command[:1] + ["--problem", "FS", "--output", str(taken)] + command[1:])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unwritable_report_is_input_error(self, tmp_path, capsys):
        # a report is written whole or not at all: a failed write leaves no file
        for blocked in ("FS_oracle.json", "FS_oracle.csv"):
            out = tmp_path / blocked.replace(".", "_")
            (out / blocked).mkdir(parents=True)
            code = main(["oracle", "--problem", "FS", "--ygrid", "0.1", "--xgrid", "0.1",
                         "--output", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err == f"error: cannot write {str(out / blocked)!r}: Is a directory\n"
            assert [p.name for p in out.iterdir()] == [blocked]


class TestFrontDoor:
    """main checks the flags and --output, loads the problem once, and makes
    --output only when the first report is written."""

    def _fail_on_load(self, monkeypatch):
        monkeypatch.setattr(cli, "resolve_problem",
                            lambda name: pytest.fail("problem loaded"))

    @staticmethod
    def _one_error_line(capsys):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        return err

    def test_rejected_document_makes_no_output(self, tmp_path, fs, capsys):
        (tmp_path / "doc.json").write_text(json.dumps({**bp.problem_to_dict(fs), "name": ".."}))
        code = run_cli("solve", "--problem", str(tmp_path / "doc.json"), "--epsilon", "0.1",
                       tmp_path=tmp_path / "new" / "deep" / "dir")
        assert code == 1
        assert "name must be" in self._one_error_line(capsys)
        assert not (tmp_path / "new").exists()

    def test_unknown_problem_makes_no_output(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "nope", "--epsilon", "0.1",
                       tmp_path=tmp_path / "other" / "dir")
        assert code == 1
        assert "unknown problem 'nope'" in self._one_error_line(capsys)
        assert not (tmp_path / "other").exists()

    def test_grid_guard_makes_no_output(self, tmp_path, capsys):
        code = run_cli("oracle", "--problem", _gridded_qb(tmp_path), "--xgrid", "1e-10",
                       tmp_path=tmp_path / "guard" / "dir")
        assert code == 1
        assert "guard" in self._one_error_line(capsys)
        assert not (tmp_path / "guard").exists()

    @pytest.mark.parametrize("command,message", [
        (["continuation", "--slack", "nan"], "error: slack must be finite and nonnegative"),
        (["solve", "--epsilon", "nan"], "error: epsilon must be positive and finite"),
        (["continuation", "--rho", "nan"], "error: rho must be finite and nonnegative"),
        (["continuation", "--eps0", "0"], "error: eps0 must be positive and finite"),
    ], ids=["slack", "epsilon", "rho", "eps0"])
    def test_bad_float_flag_fails_before_the_problem_loads(self, tmp_path, capsys, monkeypatch,
                                                           command, message):
        self._fail_on_load(monkeypatch)
        for name in ("run_continuation", "solve_penalized"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("solver ran"))
        out = tmp_path / "out"
        code = run_cli(command[0], "--problem", "QB", *command[1:], tmp_path=out)
        assert code == 1
        assert self._one_error_line(capsys).startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("output", ["", "taken/sub", "taken/sub/deeper"])
    def test_unusable_output_fails_before_the_problem_loads(self, tmp_path, capsys,
                                                            monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        self._fail_on_load(monkeypatch)
        assert main(["solve", "--problem", "QB", "--epsilon", "0.1", "--output", output]) == 1
        self._one_error_line(capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_reports_make_their_output_with_its_parents(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--problem", "FS", "--epsilon", "0.1", "--output", "a/b/c"]) == 0
        assert sorted(p.name for p in (tmp_path / "a" / "b" / "c").iterdir()) == [
            "FS_solve.csv", "FS_solve.json"]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("command", [
        ["solve", "--problem", "FS", "--epsilon", "nan"],
        ["continuation", "--problem", "FS", "--eps0", "nan", "--k", "3"],
        ["continuation", "--problem", "FS", "--slack", "nan", "--k", "3"],
    ])
    def test_is_input_error(self, tmp_path, capsys, command):
        assert main(command + ["--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # no report of a rejected run

    def test_infinite_exponent_literal_is_input_error(self, tmp_path, fs, capsys):
        # int(inf) used to end the parse in an OverflowError traceback
        doc = {**bp.problem_to_dict(fs), "f": "1 + x[0]^1e400"}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run_cli("solve", "--problem", str(tmp_path / "doc.json"), "--epsilon", "0.1",
                       tmp_path=out)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_deeply_nested_expression_is_input_error(self, tmp_path, fs, capsys):
        # the parser once ended in a RecursionError traceback
        doc = {**bp.problem_to_dict(fs), "f": "(" * 700 + "1 + x[0]" + ")" * 700}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run_cli("solve", "--problem", str(tmp_path / "doc.json"), "--epsilon", "0.1",
                       tmp_path=out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nests deeper than" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("h", ["(y[0]/y[0]) * x[0]", "(y[0]/y[0]) * (x[0] - 0.5)^2"],
                             ids=["vertex_face", "grid"])
    def test_non_finite_follower_is_oracle_input_error(self, tmp_path, fs, capsys, h):
        # NaN at y = 0 once ended in a TypeError traceback or an empty-argmin error
        (tmp_path / "doc.json").write_text(json.dumps({**bp.problem_to_dict(fs), "h": h}))
        out = tmp_path / "out"
        assert run_cli("oracle", "--problem", str(tmp_path / "doc.json"), tmp_path=out) == 1
        assert capsys.readouterr().err.startswith("error: follower objective is nan")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_leader_point_never_wins_the_oracle(self, tmp_path, qb):
        # f is NaN where x[0] = 0 on QB; the oracle once took that point as the
        # worst response at every leader point and exited 1
        doc = {**bp.problem_to_dict(qb),
               "f": "(1 + 4*y[0]*(1 - y[0])) * (1 + x[0] + x[1]) + 0*(1/x[0])"}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("oracle", "--problem", str(tmp_path / "doc.json"), "--xgrid", "0.1",
                       "--ygrid", "0.01", "--format", "json", tmp_path=out) == 0
        report = json.loads((out / "QB_oracle.json").read_text())
        assert report["leader_value"] == pytest.approx(4.0, abs=1e-12)
        assert report["y_best"] == pytest.approx([0.5], abs=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_grid_point_oracle_writes_strict_json(self, tmp_path, fs):
        # the NaN at y = 0.3 used to win the grid scan and write "NaN" to the report
        doc = {**bp.problem_to_dict(fs),
               "f": "1 + 4*y[0]*(1 - y[0]) + x[0] + 0*(1/(y[0] - 0.3))"}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        assert run_cli("oracle", "--problem", str(tmp_path / "doc.json"),
                       tmp_path=tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "FS_oracle.json").read_text(),
                            parse_constant=_reject_constant)
        assert report["y_best"] == [0.5] and report["leader_value"] == 2.0

    @pytest.mark.parametrize("change,code,err", [
        ({"h": "(y[0]/y[0]) * x[0]"}, 1, "error: follower objective is nan at y = [0.0] on C\n"),
        ({"f": "1 + 4*y[0]*(1 - y[0]) + x[0] + 0*(1/(y[0] - 0.3))"}, 0, ""),
    ], ids=["nan_follower", "nan_leader_point"])
    def test_oracle_stderr_holds_no_runtime_warning(self, tmp_path, fs, capsys, change, code,
                                                    err):
        # numpy's RuntimeWarnings, with the library line that raised them,
        # once came before the one error line, or printed on a run that exits 0
        (tmp_path / "doc.json").write_text(json.dumps({**bp.problem_to_dict(fs), **change}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("oracle", "--problem", str(tmp_path / "doc.json"),
                           tmp_path=tmp_path / "out") == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"],
                                         ["continuation", "--k", "3"]])
    def test_nan_follower_solve_names_its_probe(self, tmp_path, fs, capsys, command):
        # the solve once printed numpy's RuntimeWarnings and exited 0 with
        # converged True, although it probed y = 0, where h is NaN
        (tmp_path / "doc.json").write_text(
            json.dumps({**bp.problem_to_dict(fs), "h": "(y[0]/y[0]) * x[0]"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*command, "--problem", str(tmp_path / "doc.json"),
                           tmp_path=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("epsilon 0.1: follower objective is not finite at the probed "
                              "leader point y = [0.0]\n")
        if command[0] == "solve":
            assert err.count("\n") == 1
            report = json.loads((tmp_path / "out" / "FS_solve.json").read_text())
            assert report["converged"] is False

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("f", ["1 + x[0] + 0*(1/(y[0] - y[0]))",
                                   "2 + x[0] + (1 - 1)/(1 - 1)", "2 + x[0] + 10^400"],
                             ids=["nan_everywhere", "constant_division", "constant_overflow"])
    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"], ["oracle"]])
    def test_non_finite_leader_is_input_error(self, tmp_path, fs, capsys, f, command):
        # these reported NaN (exit 0 or 2) or ended in a ZeroDivisionError or
        # OverflowError traceback
        (tmp_path / "doc.json").write_text(json.dumps({**bp.problem_to_dict(fs), "f": f}))
        out = tmp_path / "out"
        code = run_cli(command[0], "--problem", str(tmp_path / "doc.json"), *command[1:],
                       tmp_path=out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: leader objective is not finite")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"], ["oracle"],
                                         ["continuation", "--k", "3"], ["rates"]])
    def test_constant_folding_prints_only_the_error_line(self, tmp_path, fs, capsys, command):
        # folding (1 - 1)/(1 - 1) at build time once printed numpy's
        # RuntimeWarning, with the library line that raised it, first
        (tmp_path / "doc.json").write_text(
            json.dumps({**bp.problem_to_dict(fs), "f": "2 + x[0] + (1 - 1)/(1 - 1)"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command[0], "--problem", str(tmp_path / "doc.json"), *command[1:],
                           tmp_path=tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: leader objective is not finite") and err.count("\n") == 1

    @pytest.mark.parametrize("change", [
        {"h": None}, {"f": 1}, {"dim_x": 2.7}, {"dim_x": "2"}, {"dim_x": True},
        {"dim_x": None}, {"b": [float("nan")]}, {"A": [[float("nan"), 1.0]]},
        {"b": [float("inf")]}],
        ids=["h_null", "f_number", "dim_x_2.7", "dim_x_string", "dim_x_true", "dim_x_null",
             "b_nan", "A_nan", "b_inf"])
    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"], ["oracle"]])
    def test_malformed_document_is_input_error(self, tmp_path, fs, capsys, change, command):
        # these ended in a TypeError or SVD traceback, were truncated, or blamed
        # the leader objective for NaN vertices
        (tmp_path / "doc.json").write_text(json.dumps({**bp.problem_to_dict(fs), **change}))
        out = tmp_path / "out"
        code = run_cli(command[0], "--problem", str(tmp_path / "doc.json"), *command[1:],
                       tmp_path=out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"], ["oracle"]])
    def test_box_whose_span_overflows_is_input_error(self, tmp_path, fs, capsys, command):
        # a solve spent its 20000 evaluations on inf steps and exited 2
        (tmp_path / "doc.json").write_text(json.dumps(
            {**bp.problem_to_dict(fs), "K_lower": [-1e308], "K_upper": [1e308]}))
        out = tmp_path / "out"
        code = run_cli(command[0], "--problem", str(tmp_path / "doc.json"), *command[1:],
                       tmp_path=out)
        assert code == 1
        assert capsys.readouterr().err == "error: box span upper - lower must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"name": "../escaped"}, {"name": None}, {"dim_y": 0, "K_lower": [], "K_upper": []},
        {"dim_x": -1}],
        ids=["name_escapes", "name_null", "dim_y_0", "dim_x_negative"])
    @pytest.mark.parametrize("command", [["solve", "--epsilon", "0.1"], ["oracle"]])
    def test_bad_name_or_dimension_is_input_error(self, tmp_path, fs, capsys, change, command):
        # "../escaped" wrote its reports outside --output, null wrote
        # None_solve.json, and dim_y 0 ended in a numpy reduction error
        (tmp_path / "doc.json").write_text(json.dumps({**bp.problem_to_dict(fs), **change}))
        code = run_cli(command[0], "--problem", str(tmp_path / "doc.json"), *command[1:],
                       tmp_path=tmp_path / "out" / "sub")
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: {next(iter(change))} must be")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["doc.json"]

    def test_directory_as_problem_is_input_error(self, tmp_path, capsys):
        # open() of a directory ended in an IsADirectoryError traceback
        (tmp_path / "docs").mkdir()
        out = tmp_path / "out"
        code = run_cli("solve", "--problem", str(tmp_path / "docs"), "--epsilon", "0.1",
                       tmp_path=out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: cannot read problem document")
        assert not out.exists()

    def test_250_term_sum_validates_and_solves(self, tmp_path, fs):
        terms = " + ".join(f"0.001*x[{k % 2}]" for k in range(250))
        doc = {**bp.problem_to_dict(fs), "f": "1 + y[0] + " + terms,
               "h": f"({terms} - 0.2*y[0])^2"}
        assert bp.validate_problem(bp.problem_from_dict(doc)).all_passed
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        assert run_cli("solve", "--problem", str(tmp_path / "doc.json"), "--epsilon", "0.1",
                       tmp_path=tmp_path / "out") == 0

    def test_oversized_x_grid_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("oracle", "--problem", _gridded_qb(tmp_path), "--xgrid", "1e-10",
                       tmp_path=out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "guard" in err
        assert not out.exists()

    def test_subnormal_x_grid_is_input_error(self, tmp_path, capsys):
        # its point count overflowed to inf and int() raised OverflowError
        out = tmp_path / "out"
        assert run_cli("oracle", "--problem", _gridded_qb(tmp_path), "--xgrid", "1e-320",
                       tmp_path=out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "guard" in err
        assert not out.exists()


    def test_subnormal_leader_step_coarsens_to_the_budget(self, tmp_path):
        # the leader grid coarsens to the same 5,000,000 points as for any
        # tiny step; only the stated resolution, ygrid / 10, differs
        docs = []
        for step in ("1e-9", "1e-320"):
            assert run_cli("oracle", "--problem", "QB", "--ygrid", step,
                           tmp_path=tmp_path / step) == 0
            docs.append(json.loads((tmp_path / step / "QB_oracle.json").read_text()))
        assert docs[1].pop("resolution") == 1e-321
        assert docs[0].pop("resolution") == 1e-10
        assert docs[0] == docs[1]


class TestRates:
    def test_qb_rates_report(self, tmp_path):
        code = run_cli("rates", "--problem", "QB", tmp_path=tmp_path)
        # soft exit: every row converges, but the sum-sublevel description
        # is strictly larger than the optimal set on QB (min of h + f is
        # 3 < 4 at the origin corner), so the certificate flags itself
        assert code == 2
        doc = json.loads((tmp_path / "QB_rates.json").read_text())
        assert doc["certificate"]["valid"] is False
        assert all(row["converged"] for row in doc["trace"]["rows"])
        fit = doc["ratefit"]
        assert 0.9 <= fit["slope"] <= 1.1
        assert fit["classification"] == "linear_rate"
        assert doc["certificate"]["schema"] == "certificate-v2"
        # why it is invalid: min of h + f is 3 < 4 at the origin corner
        assert doc["certificate"]["min_sum"] == pytest.approx(3.0, abs=1e-9)
        assert doc["certificate"]["level_sum"] == pytest.approx(4.0, abs=1e-6)
        assert doc["certificate"]["min_sum_x"][:2] == pytest.approx([0.0, 0.0], abs=1e-9)
        gaps = doc["gaps"]
        assert all(g == pytest.approx(16 * e / (1 + 4 * e), abs=5e-4)
                   for e, g in gaps)
        with open(tmp_path / "QB_gaps.csv") as fh:
            assert fh.readline().strip() == "epsilon,gap"

    def test_fs_rates_exact_selection(self, tmp_path):
        code = run_cli("rates", "--problem", "FS", tmp_path=tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "FS_rates.json").read_text())
        assert doc["ratefit"]["classification"] == "exact_selection"
        assert doc["certificate"]["valid"] is True


    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("flag,name", [("--cert-tol", "tol"), ("--tau", "tau")])
    def test_bad_tolerance_is_input_error(self, tmp_path, capsys, flag, name, value):
        code = run_cli("rates", "--problem", "FS", flag, value, "--k", "3",
                       "--ygrid", "0.1", "--xgrid", "0.1", tmp_path=tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{name} must be" in err
        assert list(tmp_path.iterdir()) == []  # no report of a rejected run

    @pytest.mark.parametrize("args", [["--tau", "nan"], ["--cert-tol", "-1"],
                                      ["--ygrid", "inf"], ["--xgrid", "0"]],
                             ids=["tau", "cert-tol", "ygrid", "xgrid"])
    def test_bad_arguments_fail_before_any_solve(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.setattr(cli, "run_continuation",
                            lambda *a, **k: pytest.fail("continuation ran"))
        assert run_cli("rates", "--problem", "QB", *args, tmp_path=tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_rates_is_pessimistic_only(self, tmp_path, capsys):
        # the grid oracle it compares against is pessimistic
        assert run_cli("rates", "--problem", "FS", "--sign", "optimistic",
                       tmp_path=tmp_path) == 1
        assert "unrecognized arguments: --sign" in capsys.readouterr().err


class TestRoundTrip:
    def test_json_problem_reproduces_solve(self, tmp_path, qb):
        bp.save_problem(qb, tmp_path / "qb.json")
        d1 = tmp_path / "by_name"
        d2 = tmp_path / "by_file"
        assert run_cli("solve", "--problem", "QB", "--epsilon", "0.05",
                       "--seed", "3", tmp_path=d1) == 0
        assert run_cli("solve", "--problem", str(tmp_path / "qb.json"),
                       "--epsilon", "0.05", "--seed", "3", tmp_path=d2) == 0
        a = json.loads((d1 / "QB_solve.json").read_text())
        b = json.loads((d2 / "QB_solve.json").read_text())
        assert a == b


def test_console_entry_point(tmp_path):
    # the child imports the package under test, also when pytest put src on sys.path
    src = os.path.dirname(os.path.dirname(bp.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "bilevelpen.cli", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "QB" in proc.stdout
    assert proc.stderr == ""
