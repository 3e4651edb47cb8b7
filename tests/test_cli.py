"""CLI: report schema, determinism, exit codes, golden trivial cases."""

import io
import json
import os
import pkgutil
import subprocess
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import orbitoda
from orbitoda.cli import COMMANDS, main

Result = namedtuple("Result", "exit_code output")


def _invoke(args):
    """Run the CLI in this process: its exit code, and its stdout and
    stderr together as ``output``."""
    out, code = io.StringIO(), None
    with redirect_stdout(out), redirect_stderr(out):
        try:
            main(args=args, prog_name="orbitoda")
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue())


def _reports(result):
    return [json.loads(line) for line in result.output.splitlines() if line]


def _strip_time(rep):
    return {k: v for k, v in rep.items() if k != "elapsed_ms"}


def test_jfunc_stream_and_exit():
    result = _invoke(["jfunc", "--k", "2", "--m", "1", "--qdeg", "4"])
    assert result.exit_code == 0
    reps = _reports(result)
    assert [r["check"] for r in reps] == [
        "ladder-alpha-1", "ladder-alpha-2", "ladder-alpha-3", "qde"]
    assert all(r["status"] == "pass" for r in reps)
    assert all(r["schema"] == 1 for r in reps)


def test_negate_flag_fails_with_discrepancy():
    result = _invoke(["jfunc", "--k", "3", "--m", "2", "--qdeg", "6",
                      "--negate"])
    assert result.exit_code == 1
    bad = [r for r in _reports(result) if r["status"] == "fail"]
    assert bad and "first_discrepancy" in bad[0]


def test_vertex_negate():
    result = _invoke(["vertex", "--k", "3", "--m", "2", "--modes", "6",
                      "--negate"])
    assert result.exit_code == 1


def test_bad_flags_exit_2():
    result = _invoke(["jfunc", "--k", "3"])
    assert result.exit_code == 2


@pytest.mark.parametrize("flags, message", [
    (["--k", "3", "--m", "2", "--qdeg", "-1"], "--qdeg"),
    (["--k", "3", "--m", "2", "--zdeg", "-6"], "lo:hi"),
    (["--k", "3", "--m", "2", "--zdeg", "2:-6"], "lo > hi"),
    (["--k", "2", "--m", "4"], "coprime"),
    (["--k", "2", "--m", "2"], "distinct"),
    (["--k", "2", "--m", "1", "--zdeg", "3:3"], "lies above z^1"),
    (["--k", "3", "--m", "2", "--zdeg", "2:4"], "need lo <= 1"),
])
def test_bad_jfunc_flags_exit_2(flags, message):
    result = _invoke(["jfunc"] + flags)
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("args, message", [
    (["mirror-pairing", "--k", "2", "--m", "4"], "coprime"),
    (["vertex", "--k", "2", "--m", "4"], "coprime"),
    (["periods", "--k", "1", "--m", "1"], "distinct"),
    (["toda", "--k", "3", "--m", "3"], "distinct"),
    (["asymptotics", "--k", "4", "--m", "6"], "coprime"),
    (["hqe", "--k", "0"], "x>=1"),
    (["all", "--matrix", "2,4"], "coprime"),
    (["all", "--matrix", "2;3"], "not of the form k,m"),
    (["all", "--matrix", "2,1;3,x"], "not of the form k,m"),
    (["all", "--matrix", "2,1", "--qdeg", "-1"], "x>=0"),
    (["all", "--modes", "0"], "x>=1"),
    (["vertex", "--k", "2", "--m", "1", "--modes", "0"], "x>=1"),
    (["hqe", "--times", "0"], "x>=1"),
    (["toda", "--times", "0"], "x>=1"),
    (["toda", "--eps-order", "-1"], "x>=3"),
    (["toda", "--x-order", "4"], "No such option"),
    (["mirror-pairing", "--k", "2", "--m", "1", "--degree", "-1"], "x>=0"),
    (["mirror-pairing", "--k", "2", "--m", "1", "--points", "-1"], "x>=0"),
    (["asymptotics", "--n", "-5"], "x>=2"),
])
def test_bad_pair_flags_exit_2(args, message):
    result = _invoke(args)
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize("args", [["asymptotics"],
                                  ["hqe", "--times", "1", "--negate"]])
def test_every_report_is_timed(args):
    reps = _reports(_invoke(args))
    assert reps
    assert all(r["elapsed_ms"] > 0 for r in reps), \
        [r["check"] for r in reps if not r["elapsed_ms"] > 0]


def test_deterministic_reports():
    args = ["mirror-pairing", "--k", "2", "--m", "1", "--points", "2",
            "--seed", "7"]
    a = _invoke(args)
    b = _invoke(args)
    assert a.exit_code == b.exit_code == 0
    ra = [_strip_time(r) for r in _reports(a)]
    rb = [_strip_time(r) for r in _reports(b)]
    assert ra == rb


GOLDEN_VACUUM = {
    "check": "toda-vacuum",
    "max_order_verified": {},
    "params": {"depth": 4},
    "schema": 1,
    "status": "pass",
}


def test_golden_vacuum_report():
    from orbitoda.toda import verify_vacuum
    rep = json.loads(verify_vacuum(3).to_json())
    assert _strip_time(rep) == GOLDEN_VACUUM


def test_bilinearity_fails_on_zero_residue(monkeypatch):
    # scaling an identically zero residue would pass vacuously
    import orbitoda.hqe
    from orbitoda.series import TruncSeries
    monkeypatch.setattr(orbitoda.hqe, "hqe_residue_eval",
                        lambda *args, **kwargs: TruncSeries.zero())
    rep = orbitoda.hqe.verify_bilinearity(3, 2)
    assert rep.name == "hqe-bilinearity"
    assert rep.status == "fail" and rep.first_discrepancy is not None
    assert rep.elapsed_ms > 0


def test_raising_check_becomes_error_report(monkeypatch):
    import orbitoda.mirror

    def broken(n):
        raise ZeroDivisionError("planted")
    monkeypatch.setattr(orbitoda.mirror, "verify_a_polynomials", broken)
    result = _invoke(["asymptotics", "--n", "4"])
    assert result.exit_code == 3
    reps = _reports(result)
    errors = [r for r in reps if r["status"] == "error"]
    assert len(errors) == 1
    assert errors[0]["check"] == "a-polynomials"
    assert "ZeroDivisionError" in errors[0]["detail"]
    assert errors[0]["elapsed_ms"] > 0
    assert [r["check"] for r in reps] == [
        "a-polynomials", "gaussian-moment-oracle", "classical-r"]
    assert all(r["status"] == "pass" for r in reps[1:])


def test_error_report_names_the_row_params(monkeypatch):
    import orbitoda.jfunction

    def broken(*args, **kwargs):
        raise ZeroDivisionError("planted")
    monkeypatch.setattr(orbitoda.jfunction, "verify_jfunc", broken)
    result = _invoke(["jfunc", "--k", "3", "--m", "2"])
    assert result.exit_code == 3
    (error,) = _reports(result)
    assert error["status"] == "error"
    assert error["check"] == "jfunc"
    assert error["params"] == {"k": 3, "m": 2, "qdeg": 12, "zwin": [-6, 2],
                               "negate": False}


def _exit(args, capsys):
    """The SystemExit code of a run, and its stdout and stderr apart."""
    with pytest.raises(SystemExit) as exc:
        main(args=args, prog_name="orbitoda")
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("args, code", [
    (["jfunc", "--k", "2", "--m", "1", "--qdeg", "2"], 0),
    (["vertex", "--k", "3", "--m", "2", "--modes", "6", "--negate"], 1),
    (["--help"], 0),
    *[([name, "--help"], 0) for name in COMMANDS],
])
def test_exit_code_and_stdout(args, code, capsys):
    got, out, err = _exit(args, capsys)
    assert (got, err) == (code, "")
    assert out


def test_bad_flag_exits_2_with_the_message_on_stderr(capsys):
    code, out, err = _exit(["jfunc", "--k", "2", "--m", "1", "--qdeg", "-1"],
                           capsys)
    assert (code, out) == (2, "")
    assert "--qdeg" in err and "x>=0" in err


def test_raising_row_exits_3(monkeypatch, capsys):
    import orbitoda.mirror

    def broken(n):
        raise ZeroDivisionError("planted")
    monkeypatch.setattr(orbitoda.mirror, "verify_a_polynomials", broken)
    code, out, err = _exit(["asymptotics", "--n", "2"], capsys)
    assert (code, err) == (3, "")
    assert json.loads(out.splitlines()[0])["status"] == "error"


@pytest.mark.parametrize("zdeg", [["--zdeg", "-8:2"], ["--zdeg=-8:2"]])
def test_a_negative_window_is_read_as_the_flag_value(zdeg):
    result = _invoke(["jfunc", "--k", "2", "--m", "1", "--qdeg", "2", *zdeg])
    assert result.exit_code == 0
    reps = _reports(result)
    assert reps and all(r["params"]["zwin"] == [-8, 2] for r in reps)


def test_out_file_is_closed_and_stdout_is_not(tmp_path, monkeypatch):
    from orbitoda import cli
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(cli, "open", spy, raising=False)
    path = tmp_path / "reports.jsonl"
    args = ["asymptotics", "--n", "2"]
    assert _invoke([*args, "--out", str(path)]) == (0, "")
    (stream,) = opened
    assert stream.closed
    checks = ["a-polynomials", "gaussian-moment-oracle", "classical-r"]
    assert [json.loads(line)["check"]
            for line in path.read_text().splitlines()] == checks
    stdout = io.StringIO()
    with redirect_stdout(stdout), pytest.raises(SystemExit):
        main(args=args, prog_name="orbitoda")
    assert not stdout.closed
    assert [r["check"] for r in _reports(Result(0, stdout.getvalue()))] == \
        checks


def test_the_cli_loads_no_third_party_module():
    code = ("import sys; before = set(sys.modules); import orbitoda; "
            "from orbitoda.cli import main; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    packages = {name.split(".")[0] for name in loaded}
    assert "orbitoda" in packages and "click" not in packages
    assert packages - {"orbitoda"} <= set(sys.stdlib_module_names)


def test_no_module_loads_dataclasses_or_inspect():
    # records are NamedTuples and slotted classes: dataclasses would load
    # inspect, ast, dis and tokenize into every process.  pkgutil itself
    # loads inspect, so the names are listed here and imported there.
    names = [f"orbitoda.{info.name}"
             for info in pkgutil.iter_modules(orbitoda.__path__)]
    code = ("import importlib, sys\n"
            f"for name in {names!r}: importlib.import_module(name)\n"
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert "orbitoda.cli" in names and loaded == []


def test_all_is_the_concatenation_of_the_subcommand_rows():
    from orbitoda import cli

    def ids(rows):
        return [row_id for row_id, _, _ in rows]
    assert ids(cli.all_jobs([(2, 1)], None, 12, 0)) == ids(
        cli.jfunc_jobs(2, 1, 4, -6, 2, False) +
        cli.mirror_jobs(2, 1, 2, 0, 1) + cli.periods_jobs(2, 1) +
        cli.vertex_jobs(2, 1, 12, False) + cli.asymptotics_jobs(3, 2, 12) +
        cli.toda_jobs(2, 1, 3, 2) + cli.hqe_jobs(3, 2, 2, True))


def _timed(exit_by):
    from orbitoda.reports import CheckReport
    with CheckReport(name="timed", params={}) as rep:
        if exit_by == "return":
            return rep
        if exit_by == "raise":
            raise ValueError(rep)
    return rep


@pytest.mark.parametrize("exit_by", ["end", "return", "raise"])
def test_report_times_itself(exit_by):
    try:
        rep = _timed(exit_by)
    except ValueError as exc:
        rep = exc.args[0]
    assert rep.elapsed_ms > 0
