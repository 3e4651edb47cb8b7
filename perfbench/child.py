"""One benchmark sample: a fresh interpreter that runs CLI invocations.

    python3 perfbench/child.py [--trace] '<JSON list of argv lists>'

The parent (run.py) spawns this with PYTHONPATH=src. It prints one JSON
line per event on stdout:

    {"ready": <monotonic>, "module": <orbitoda.__file__>}
    {"argv": [...], "code": <exit code or null>, "out": <report lines>,
     "error": <exception text, only if the invocation raised>}
    ...
    {"trace": {...}}            (with --trace only)

An empty list makes a set-up-only sample. With --trace, the public
functions listed in TRACED are wrapped before the first invocation: each
wrapper counts calls and adds up self time (its duration minus the time of
wrapped calls nested inside it). Each invocation is itself the root span
`cli.main`, so time spent outside every wrapped function is cli self time.
"""

import contextlib
import io
import json
import sys
import time

# layer (module of orbitoda) -> [(class or None, metric name, attributes)].
# Operator aliases (__rmul__, __radd__) share their operator's counters.
TRACED = {
    "rationals": [
        ("ParamRat", "mul", ("__mul__", "__rmul__")),
        ("ParamRat", "add", ("__add__", "__radd__")),
        ("ParamRat", "inverse", ("inverse",)),
    ],
    "series": [
        ("TruncSeries", "mul", ("__mul__", "__rmul__")),
        ("TruncSeries", "add", ("__add__", "__radd__")),
        ("TruncSeries", "recip", ("recip",)),
        ("TruncSeries", "exp", ("exp",)),
        ("TruncSeries", "subst", ("subst",)),
        ("TruncSeries", "truncated", ("truncated",)),
        ("TruncSeries", "coeff_of", ("coeff_of",)),
        ("TruncSeries", "eq_report", ("eq_report",)),
        (None, "series_reversion", ("series_reversion",)),
    ],
    "jfunction": [(None, f, (f,)) for f in
                  ("build_j", "build_dj", "poch_ratio")],
    "mirror": [(None, f, (f,)) for f in
               ("flat_coords_residue", "flat_coords_binomial",
                "solve_chart_change", "residue_both_ends")],
    "hqe": [(None, f, (f,)) for f in
            ("hqe_residue_eval", "toda_hqe_eval", "apply_vertex",
             "build_gamma")],
    "periods": [(None, f, (f,)) for f in ("d_inverse", "bi_infinite_sum")],
    "toda": [
        ("ShiftOp", "mul", ("mul",)),
        ("ShiftOp", "inverse", ("inverse",)),
        (None, "tau_to_wave", ("tau_to_wave",)),
    ],
    "cohomology": [("QuantumRing", "mul", ("mul",))],
    "algebra": [(None, f, (f,)) for f in ("symmetric_e", "symmetric_h")],
    "reports": [("CheckReport", "to_json", ("to_json",))],
}


class Tracer:
    """Call counts and self times of wrapped functions, in one process."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.root_s = 0.0
        self.mul_pairs = 0
        self.mul_terms_out = 0
        self._stack = []

    def span(self, key, fn, /, *args, **kwargs):
        self.calls[key] += 1
        nested = [0.0]
        self._stack.append(nested)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[key] += dt - nested[0]
            if self._stack:
                self._stack[-1][0] += dt
            else:
                self.root_s += dt

    def wrap(self, key, fn):
        self.calls.setdefault(key, 0)
        self.self_s.setdefault(key, 0.0)

        def wrapper(*args, **kwargs):
            return self.span(key, fn, *args, **kwargs)
        return wrapper

    def wrap_series_mul(self, key, fn, series_cls):
        inner = self.wrap(key, fn)

        def wrapper(a, b):
            out = inner(a, b)
            if isinstance(b, series_cls) and isinstance(out, series_cls):
                self.mul_pairs += len(a.terms) * len(b.terms)
                self.mul_terms_out += len(out.terms)
            return out
        return wrapper

    def install(self):
        import importlib
        import pkgutil

        import orbitoda
        modules = [importlib.import_module(f"orbitoda.{info.name}")
                   for info in pkgutil.iter_modules(orbitoda.__path__)]
        series_cls = importlib.import_module("orbitoda.series").TruncSeries
        for layer, entries in TRACED.items():
            mod = importlib.import_module(f"orbitoda.{layer}")
            for cls_name, name, attrs in entries:
                key = f"{layer}.{name}"
                owner = getattr(mod, cls_name) if cls_name else mod
                for attr in attrs:
                    fn = getattr(owner, attr)
                    if key == "series.mul":
                        wrapped = self.wrap_series_mul(key, fn, series_cls)
                    else:
                        wrapped = self.wrap(key, fn)
                    setattr(owner, attr, wrapped)
                    if cls_name is None:
                        # `from .x import f` copies: rebind them as well.
                        for other in modules:
                            if getattr(other, attr, None) is fn:
                                setattr(other, attr, wrapped)

    def record(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "root_s": self.root_s, "series.mul.pairs": self.mul_pairs,
                "series.mul.terms_out": self.mul_terms_out}


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_one(main, argv, tracer):
    buf = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(buf):
        try:
            if tracer is None:
                main(args=argv, prog_name="orbitoda")
            else:
                tracer.span("cli.main", main, args=argv, prog_name="orbitoda")
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported, and counted wrong by the gate
            error = f"{type(exc).__name__}: {exc}"
    line = {"argv": argv, "code": code, "out": buf.getvalue()}
    if error is not None:
        line["error"] = error
    emit(line)


def main():
    trace = sys.argv[1] == "--trace"
    invocations = json.loads(sys.argv[-1])
    import orbitoda
    from orbitoda.cli import main as cli_main
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.calls["cli.main"] = 0
        tracer.self_s["cli.main"] = 0.0
    emit({"ready": time.monotonic(), "module": orbitoda.__file__})
    for argv in invocations:
        run_one(cli_main, argv, tracer)
    if tracer is not None:
        emit({"trace": tracer.record()})


if __name__ == "__main__":
    main()
