"""``CheckReport.compare``: one comparison for every check, and the ratchet
on the reports whose comparisons meet no term."""

import json
from fractions import Fraction as F

import pytest

from test_hqe import _perturbed_tau

from orbitoda import cli
from orbitoda.hqe import toda_hqe_report
from orbitoda.jfunction import verify_jfunc
from orbitoda.rationals import ParamRat as PR
from orbitoda.reports import CheckReport
from orbitoda.series import POINT, TruncSeries as TS, up_win
from orbitoda.toda import ShiftOp, identity_op

EW = up_win(3)


def _report():
    return CheckReport(name="t", params={})


def _series():
    """1 + 2 x + 3 x y^2 on x, y in [0, 3] (soft tops)."""
    wins = {"x": up_win(3), "y": up_win(3)}
    return TS.scalar(1, wins) + TS.monomial({"x": 1}, wins, coeff=2) + \
        TS.monomial({"x": 1, "y": 2}, wins, coeff=3)


@pytest.mark.parametrize("lhs, rhs", [
    (_series(), _series()),
    (_series(), _series() + TS.monomial({"x": 4}, {"x": up_win(5)})),
    (ShiftOp({1: TS.scalar(1, {"eps": EW}), 0: _series()}, 0, True),
     ShiftOp({1: TS.scalar(1, {"eps": EW}), 0: _series()}, 0, True)),
    (PR.nu0() * 2, PR.nu0() + PR.nu0()),
    (F(1, 3), F(2, 6)),
    ({1: F(1)}, {1: F(1)}),
])
def test_equal_operands_pass_with_no_discrepancy(lhs, rhs):
    # the second series pair differs only at x^4, above the soft top 3
    rep = _report()
    assert rep.compare(lhs, rhs, {"where": 1})
    assert rep.ok and rep.first_discrepancy is None and rep.detail == ""


def test_reports_built_with_defaults_share_no_window():
    a, b = CheckReport(name="a", params={}), CheckReport(name="b", params={})
    a.max_order_verified["q"] = 3
    assert b.max_order_verified == {}


def test_the_first_failing_call_is_kept():
    rep = _report()
    assert not rep.compare(F(1), F(2), {"call": 1})
    assert rep.compare(F(3), F(3), {"call": 2})
    assert not rep.compare(_series(), TS.scalar(1, {"x": up_win(3)}),
                           {"call": 3})
    assert rep.status == "fail"
    assert rep.first_discrepancy == {"at": {"call": 1}, "lhs": "1",
                                     "rhs": "2"}


def test_a_series_difference_names_its_least_key_and_both_coefficients():
    wins = {"x": up_win(3), "y": up_win(3)}
    other = _series() + TS.monomial({"x": 1, "y": 2}, wins, coeff=4) + \
        TS.monomial({"x": 2}, wins, coeff=5)
    rep = _report()
    assert not rep.compare(_series(), other, {"identity": "I"})
    # keys (1, 2) and (2, 0) differ; (1, 2) is the least
    assert rep.first_discrepancy == {
        "at": {"identity": "I", "at": {"x": 1, "y": 2}},
        "lhs": "3", "rhs": "7"}
    # a scalar side is the constant series
    rep = _report()
    assert not rep.compare(_series(), 1, {})
    assert rep.first_discrepancy == {
        "at": {"at": {"x": 1}}, "lhs": "2", "rhs": "0"}


def test_a_shift_operator_difference_names_its_band():
    a = TS.from_poly("x", {2: 1}).truncated({"eps": EW})
    M = ShiftOp({1: TS.scalar(1, {"eps": EW}), -1: a}, -1, True)
    N = M + ShiftOp({-1: TS.from_poly("x", {1: 3}), 0: TS.scalar(7)},
                    -1, True)
    rep = _report()
    assert not rep.compare(M, N, {"op": "M"})
    assert rep.first_discrepancy == {
        "at": {"op": "M", "band": -1, "at": {"x": 1}},
        "lhs": "0", "rhs": "3"}
    rep = _report()
    assert not rep.compare(identity_op(),
                           ShiftOp({0: TS.scalar(1)}, 0, True, PR.one()), {})
    assert rep.first_discrepancy == {
        "at": {"band": "eps d_x"}, "lhs": "0",
        "rhs": "1"}


def test_every_location_has_one_format():
    # a series, a shift operator, a ladder class and the HQE box each name
    # the least differing key as {variable: nonzero integer exponent}
    series = _report()
    series.compare(_series(), TS.scalar(1, {"x": up_win(3)}), {})
    op = _report()
    M = ShiftOp({1: TS.scalar(1, {"eps": EW})}, 0, True)
    op.compare(M, M + ShiftOp({1: TS.from_poly("x", {2: 5})}, 0, True), {})
    ladder = verify_jfunc(3, 2, 6, negate=True)[0]
    box = toda_hqe_report(_perturbed_tau(), 1, 0, 1)
    for rep, want in [(series, {"x": 1}), (op, {"x": 2}),
                      (ladder, {"z": 2}), (box, {"eps": -1, "y1b": 1})]:
        assert rep.status == "fail"
        at = json.loads(rep.to_json())["first_discrepancy"]["at"]["at"]
        assert at == rep.first_discrepancy["at"]["at"] == want
        assert all(type(e) is int and e for e in at.values())


def test_nothing_is_turned_into_a_string_on_a_pass(monkeypatch):
    calls = []
    for cls in (TS, PR, F, ShiftOp):
        original = cls.__str__

        def spy(self, original=original):
            calls.append(type(self).__name__)
            return original(self)
        monkeypatch.setattr(cls, "__str__", spy)
    op = ShiftOp({1: TS.scalar(1, {"eps": EW}), 0: _series()}, 0, True)
    rep = _report()
    for lhs, rhs in [(_series(), _series()), (op, op),
                     (PR.nu0(), PR.nu0()), (F(1, 2), F(1, 2)),
                     ({1: F(1)}, {1: F(1)})]:
        assert rep.compare(lhs, rhs, {})
    assert calls == []
    # the spy sees the strings of a recorded discrepancy
    assert not rep.compare(PR.nu0(), PR.nu1(), {})
    assert calls.count("ParamRat") == 2


# -- the vacuity ratchet --------------------------------------------------

# reports of `orbitoda all` whose comparisons all meet no nonzero
# coefficient: the sums of the period rows collapse to one term (ROADMAP
# item 1), so these compare empty with empty.  The set may only shrink.
VACUOUS = {(name, k, m) for k, m in [(2, 1), (3, 2)] for name in (
    "bi-infinite-fixed-point", "transformation-shift-classical",
    "transformation-shift-mirror-x", "transformation-shift+tail-classical",
    "transformation-shift+tail-mirror-x")}
# reports that compare with 0 a difference the library forms itself, whose
# sides the spy cannot see: the residue term1 - term2 of `hqe_residue_eval`
# and of `toda_hqe_eval` (inside the flow-bidegree box), and the bands of
# the commutator AB - BA outside [-m, k-1]
ONE_SIDED = {("hqe-trivial-residue", 3, 2), ("reduced-flow-band", 2, 1)} | {
    (f"toda-hqe-{n}-{l}", None, None) for n in (0, 1) for l in (0, 1)}


def _known(s, d):
    """How many terms of the series s lie on the known window of d (every
    variable inside its known region, every capped group under its cap)."""
    n = 0
    for key, c in s.terms.items():
        exps = dict(zip(s.vars, key))
        if any(v not in d.wins for v, e in exps.items() if e):
            continue
        inside = all(d.wins[v].known_lo() <= exps.get(v, 0)
                     <= d.wins[v].known_hi() for v in d.vars)
        capped = all(sum(exps.get(v, 0) for v in g) <= cap
                     for g, cap in d.caps.items())
        n += inside and capped and not c.is_zero()
    return n


def met_terms(lhs, rhs) -> int:
    """The nonzero coefficients of both sides that a compare of lhs with rhs
    reads: for a series or shift operator, those on the difference's known
    window, band by band."""
    if isinstance(lhs, ShiftOp):
        d = lhs - rhs
        return sum(_known(side.bands[i], d.bands[i]) for side in (lhs, rhs)
                   for i in d.bands if i in side.bands) + \
            sum(not c.is_zero() for c in (lhs.deriv, rhs.deriv, lhs.logq,
                                          rhs.logq))
    if isinstance(lhs, TS):
        rhs = rhs if isinstance(rhs, TS) else TS.scalar(rhs)
        d = lhs - rhs
        return _known(lhs, d) + _known(rhs, d)
    if isinstance(lhs, dict):
        return sum(c != 0 for side in (lhs, rhs) for c in side.values())
    return sum(c != 0 for c in (lhs, rhs))


def test_known_window_counts_only_known_terms():
    s = TS.from_poly("x", {0: 1, 2: 5, 4: 1}).truncated({"x": up_win(3)})
    assert met_terms(s, s) == 4
    assert met_terms(s, TS.scalar(0, {"x": up_win(1)})) == 1
    assert met_terms(TS.scalar(0, {"x": POINT}), 0) == 0


def test_vacuous_reports_of_all_are_pinned(monkeypatch):
    met = {}
    compare = CheckReport.compare

    def spy(self, lhs, rhs, where):
        met.setdefault(id(self), [self, 0])[1] += met_terms(lhs, rhs)
        return compare(self, lhs, rhs, where)
    monkeypatch.setattr(CheckReport, "compare", spy)
    for _, _, call in cli.all_jobs([(2, 1), (3, 2)], None, 12, 0):
        call()
    vacuous = {(rep.name, rep.params.get("k"), rep.params.get("m"))
               for rep, n in met.values() if n == 0}
    assert vacuous == VACUOUS | ONE_SIDED
