"""Check reports: the one JSON schema every verification emits.

A check states that two objects, built independently, agree; it says so
through ``CheckReport.compare``, which takes their difference once, and on
a difference records where it lies, in the one format of
``series.discrepancy``, and returns False.  ``fail`` stays for verdicts
that are not an equality of two objects: a window too shallow to check, a
residue that vanishes where scaling it must show, a planted perturbation
left unlocated.
"""

from __future__ import annotations

import json
import time

SCHEMA_VERSION = 1


class CheckReport:
    """One check's verdict.  Used as a context manager it times itself:

        with CheckReport(name=..., params=...) as rep:
            ...

    stamps ``elapsed_ms`` when the block exits, by any route."""
    __slots__ = ("name", "params", "status", "max_order_verified",
                 "first_discrepancy", "elapsed_ms", "detail", "_t0")

    def __init__(self, name: str, params: dict,
                 max_order_verified: dict | None = None, detail: str = ""):
        self.name = name
        self.params = params
        self.status = "pass"                  # pass | fail | error
        self.max_order_verified = ({} if max_order_verified is None
                                   else max_order_verified)
        self.first_discrepancy = None
        self.elapsed_ms = 0.0
        self.detail = detail

    def fail(self, where: dict, lhs: str, rhs: str, detail: str = ""):
        self.status = "fail"
        if self.first_discrepancy is None:
            self.first_discrepancy = {"at": where, "lhs": lhs, "rhs": rhs}
        if detail:
            self.detail = detail
        return self

    def compare(self, lhs, rhs, where: dict) -> bool:
        """Whether ``lhs`` equals ``rhs``; where they differ, fail at
        ``where`` and return False.

        An operand with an ``eq_report`` (a series, a shift operator) takes
        the difference itself: its least differing key joins ``where`` as
        {"at": {variable: nonzero exponent}} (and a shift operator's band),
        and the discrepancy's lhs and rhs are the two sides' coefficients
        there.
        Other values (``ParamRat``, ``Fraction``, dicts) compare by ``==``
        and are recorded whole.  Nothing is turned into a string on a pass.
        """
        if not hasattr(lhs, "eq_report"):
            if lhs == rhs:
                return True
            at = {}
        else:
            found = lhs.eq_report(rhs)
            if found is None:
                return True
            at, lhs, rhs = found
        self.fail({**where, **at}, str(lhs), str(rhs))
        return False

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed_ms = (time.perf_counter() - self._t0) * 1000.0
        return False

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "check": self.name,
            "params": self.params,
            "status": self.status,
            "max_order_verified": self.max_order_verified,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.first_discrepancy is not None:
            payload["first_discrepancy"] = self.first_discrepancy
        if self.detail:
            payload["detail"] = self.detail
        return json.dumps(payload, sort_keys=True)
