"""Command line behavior: exit codes, subcommands, config-file merging."""

import csv

import pytest

from noncvxpro.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROBLEM,
    _parse_m_range,
    main,
)


# ---------------------------------------------------------------- exit codes

def test_missing_problem_is_config_error(capsys):
    assert main(["bench"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_solver_is_config_error(capsys):
    rc = main(["bench", "--problem", "synth:m=6,n=4,s=1", "--solvers", "nope"])
    assert rc == EXIT_CONFIG
    assert "unknown solver" in capsys.readouterr().err


def test_unreadable_problem_is_problem_error(capsys):
    rc = main(["bench", "--problem", "libsvm:/no/such/file", "--solvers", "cd"])
    assert rc == EXIT_PROBLEM
    assert "problem error" in capsys.readouterr().err


def test_trace_reg_outside_mt_problems_is_config_error(capsys):
    rc = main(["solve", "--problem", "synth:m=20,n=40,s=4", "--reg", "trace"])
    assert rc == EXIT_CONFIG
    assert "mt:" in capsys.readouterr().err


# --------------------------------------------------------------- subcommands

def test_bench_happy_path_writes_csv(tmp_path, capsys):
    out = tmp_path / "race.csv"
    rc = main(
        [
            "bench",
            "--problem", "synth:m=10,n=8,s=2",
            "--solvers", "cd,fista-bb",
            "--iters", "100",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "f* =" in printed
    assert f"wrote {out}" in printed
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["solver", "iteration", "time_s", "objective", "suboptimality"]
    assert {r[0] for r in rows[1:]} == {"cd", "fista-bb"}


def test_solve_subcommand_prints_objective(capsys):
    rc = main(["solve", "--problem", "synth:m=8,n=6,s=2", "--solver", "cd"])
    assert rc == EXIT_OK
    assert "cd: objective=" in capsys.readouterr().out


def test_solve_reports_solver_failure(capsys):
    # the constrained-only splitting method cannot run at lam > 0
    rc = main(["solve", "--problem", "synth:m=8,n=6,s=2", "--solver", "dr"])
    assert rc == EXIT_PROBLEM
    assert "FAILED" in capsys.readouterr().err


def test_lq_phase_tiny_run(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    rc = main(
        [
            "lq-phase",
            "--n", "6",
            "--k", "2",
            "--m-range", "6",
            "--q-list", "1.0",
            "--trials", "1",
            "--restarts", "2",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "q=1.0" in printed
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "q", "successes", "trials"]
    assert rows[1] == ["6", "1.0", "1", "1"]


# --------------------------------------------------------------- config file

def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "problem = synth:m=8,n=6,s=2\n"
        "solvers = cd\n"
        "iters = 20\n"
        "budget-s = 0.0\n"  # dashed keys map to underscores
    )
    assert main(["bench", "--config", str(cfg)]) == EXIT_OK
    assert "cd: samples=1" in capsys.readouterr().out  # zero budget: initial sample only


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = libsvm:/no/such/file\nsolvers = cd\n")
    rc = main(["bench", "--config", str(cfg), "--problem", "synth:m=8,n=6,s=2"])
    assert rc == EXIT_OK
    capsys.readouterr()


def test_malformed_config_line_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a bare line\n")
    assert main(["bench", "--config", str(cfg)]) == EXIT_CONFIG
    assert "expected key=value" in capsys.readouterr().err


def test_missing_config_file_is_config_error(capsys):
    assert main(["bench", "--config", "/no/such.cfg"]) == EXIT_CONFIG
    capsys.readouterr()


def test_bad_config_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = synth:m=8,n=6,s=2\niters = many\n")
    assert main(["bench", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config key iters" in capsys.readouterr().err


# ------------------------------------------------------------------- helpers

def test_parse_m_range_colon_forms():
    assert _parse_m_range("4:12:4") == [4, 8, 12]
    assert _parse_m_range("4:6") == [4, 5, 6]
    assert _parse_m_range("3,7,9") == [3, 7, 9]
    assert _parse_m_range("16") == [16]
