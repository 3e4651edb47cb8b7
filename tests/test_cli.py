"""CLI: report schema, determinism, exit codes, golden trivial cases."""

import json

from click.testing import CliRunner

from orbitoda.cli import main


def _reports(result):
    return [json.loads(line) for line in result.output.splitlines() if line]


def _strip_time(rep):
    return {k: v for k, v in rep.items() if k != "elapsed_ms"}


def test_jfunc_stream_and_exit():
    runner = CliRunner()
    result = runner.invoke(main, ["jfunc", "--k", "2", "--m", "1",
                                  "--qdeg", "4"])
    assert result.exit_code == 0
    reps = _reports(result)
    assert [r["check"] for r in reps] == [
        "ladder-alpha-1", "ladder-alpha-2", "ladder-alpha-3", "qde"]
    assert all(r["status"] == "pass" for r in reps)
    assert all(r["schema"] == 1 for r in reps)


def test_negate_flag_fails_with_discrepancy():
    runner = CliRunner()
    result = runner.invoke(main, ["jfunc", "--k", "3", "--m", "2",
                                  "--qdeg", "6", "--negate"])
    assert result.exit_code == 1
    bad = [r for r in _reports(result) if r["status"] == "fail"]
    assert bad and "first_discrepancy" in bad[0]


def test_vertex_negate():
    runner = CliRunner()
    result = runner.invoke(main, ["vertex", "--k", "3", "--m", "2",
                                  "--modes", "6", "--negate"])
    assert result.exit_code == 1


def test_bad_flags_exit_2():
    runner = CliRunner()
    result = runner.invoke(main, ["jfunc", "--k", "3"])
    assert result.exit_code == 2


def test_deterministic_reports():
    runner = CliRunner()
    args = ["mirror-pairing", "--k", "2", "--m", "1", "--points", "2",
            "--seed", "7"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
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
    from orbitoda.series import up_win
    from orbitoda.toda import verify_vacuum
    rep = json.loads(verify_vacuum(up_win(3)).to_json())
    assert _strip_time(rep) == GOLDEN_VACUUM


GOLDEN_SERIES_JSON = {
    "vars": ["u", "z"],
    "windows": {
        "u": {"lo": 0, "hi": 2, "lo_hard": True, "hi_hard": True, "den": 1},
        "z": {"lo": -2, "hi": 0, "lo_hard": False, "hi_hard": True, "den": 1},
    },
    "terms": [
        [[0, -2], "nu0 - nu1"],
        [[2, 0], "(1)/(nu0-nu1)"],
    ],
}


def test_series_canonical_json():
    from orbitoda.rationals import PR
    from orbitoda.series import TruncSeries as TS, down_win
    ser = (TS.from_poly("u", {2: 1}).scale(PR.diff().inverse()) +
           TS.var("z", down_win(-2), power=-2, coeff=PR.diff()))
    assert ser.to_json() == GOLDEN_SERIES_JSON


def test_bilinearity_fails_on_zero_residue(monkeypatch):
    # scaling an identically zero residue would pass vacuously
    import orbitoda.hqe
    from orbitoda.cli import hqe_jobs
    from orbitoda.series import TruncSeries
    monkeypatch.setattr(orbitoda.hqe, "hqe_residue_eval",
                        lambda *args, **kwargs: TruncSeries.zero())
    rep = hqe_jobs(3, 2, 1, False)[1]()
    assert rep.name == "hqe-bilinearity"
    assert rep.status == "fail" and rep.first_discrepancy is not None
    assert rep.elapsed_ms > 0
