"""Outside-in tracing of the adeltors layers.

The tracer wraps the public entry points of each layer from here, in
the benchmark's own files: nothing under ``src/`` knows it is being
traced.  A wrapped module-level function is replaced in every
``adeltors.*`` module that imported it (found through ``sys.modules``,
because the package attribute ``adeltors.homology`` is the function,
not the module); a wrapped method is replaced on its class.  Spans
(name, start, end, parent, input id) are kept in memory and written out
when the run ends.  ``uninstall`` puts every original back, and an
untraced run never calls ``install``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from fractions import Fraction

# Stages timed as spans: (module, qualified name).  The metric prefix is
# the module name without the package, then the qualified name.
STAGES = [
    ("adelic", "AdelicCube.tensor"),
    ("shapes", "big_L"),
    ("torsion", "validate"),
    ("shapes", "big_R"),
    ("shapes", "holim_punctured"),
    ("homology", "homology"),
    ("adelic", "reconstruct_limit"),
    ("adelic", "is_adelic_object"),
    ("oracle", "oracle_check"),
    ("localize", "Site.mgm_check"),
    ("localize", "Site.split_gamma"),
    ("localize", "Site.split_l"),
    ("shapes", "fib_cof_inverse_check"),
    ("complexes", "cone"),
    ("linalg", "snf"),
]

# Exceptions a stage counts as it passes them on: stage -> (module,
# exception name, metric suffix).
REFUSALS = {
    "homology.homology": ("homology", "UnsupportedMixedShape", "refusals"),
    "localize.Site.split_l": ("localize", "HypothesisFailed", "hypothesis_refusals"),
}

COUNTS = [
    "homology.homology.cells",
    "linalg.snf.entries",
    "linalg.mat_mul.calls",
    "linalg.mat_mul.products",
    "ratfunc.RatXY.new",
    "complexes.ChainComplex.checked",
    "complexes.ChainMap.checked",
] + [f"{stage}.{suffix}" for stage, (_, _, suffix) in REFUSALS.items()]


def _module(name: str):
    return sys.modules["adeltors." + name]


def _is_zero(e) -> bool:
    return e == 0 if isinstance(e, (int, Fraction)) else e.is_zero()


def _total_rank(C) -> int:
    return sum(C.rank(n) for n in C.degrees())


def _checked(args, kwargs) -> bool:
    """Whether a ChainComplex/ChainMap constructor call validates: both
    take ``check`` as their fourth parameter after self."""
    return bool(args[4]) if len(args) > 4 else bool(kwargs.get("check", True))


def _cells(counts, args):
    counts["homology.homology.cells"] += _total_rank(args[0])


def _entries(counts, args):
    A = args[0]
    counts["linalg.snf.entries"] += len(A) * (len(A[0]) if A else 0)


# Counts a stage takes from its arguments before it runs.
BEFORE = {"homology.homology": _cells, "linalg.snf": _entries}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (id, name, start, end, parent, input)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.useful = 0
        self.input_id = None
        self._stack: list[list] = []           # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name: str, fn):
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter
        before = BEFORE.get(name)
        refusal, refusal_key = (), None        # ``except ()`` catches nothing
        if name in REFUSALS:
            modname, exc_name, suffix = REFUSALS[name]
            refusal, refusal_key = getattr(_module(modname), exc_name), f"{name}.{suffix}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except refusal:
                counts[refusal_key] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[1]
                spans.append((sid, name, t0, t1, parent, self.input_id))
        return traced

    def _counted(self, key: str, fn, when=None):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if when is None or when(args, kwargs):
                counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _mat_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(A, B):
            n, k = len(A), len(B)
            m = len(B[0]) if k else 0
            counts["linalg.mat_mul.calls"] += 1
            counts["linalg.mat_mul.products"] += n * k * m
            if n and k == len(A[0]):
                col_nz = [sum(1 for i in range(n) if not _is_zero(A[i][t])) for t in range(k)]
                row_nz = [sum(1 for e in B[t] if not _is_zero(e)) for t in range(k)]
                self.useful += sum(a * b for a, b in zip(col_nz, row_nz))
            return fn(A, B)
        return counted

    # -- patching -----------------------------------------------------------
    def _replace_function(self, modname: str, attr: str, new):
        """Swap a module-level function in every adeltors module bound to it."""
        old = getattr(_module(modname), attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "adeltors" or name.startswith("adeltors.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, old))

    def _replace_method(self, modname: str, clsname: str, attr: str, make):
        cls = getattr(_module(modname), clsname)
        old = cls.__dict__[attr]
        setattr(cls, attr, make(old))
        self._undo.append((cls, attr, old))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, qual in STAGES:
            name = f"{modname}.{qual}"
            if "." in qual:
                clsname, attr = qual.split(".")
                self._replace_method(modname, clsname, attr,
                                     lambda old, n=name: self._span(n, old))
            else:
                self._replace_function(modname, qual,
                                       self._span(name, getattr(_module(modname), qual)))
        self._replace_function("linalg", "mat_mul", self._mat_mul(_module("linalg").mat_mul))
        self._replace_method("ratfunc", "RatXY", "__init__",
                             lambda old: self._counted("ratfunc.RatXY.new", old))
        for clsname in ("ChainComplex", "ChainMap"):
            self._replace_method("complexes", clsname, "__init__",
                                 lambda old, k=f"complexes.{clsname}.checked":
                                 self._counted(k, old, _checked))

    def uninstall(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    # -- results ------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for modname, qual in STAGES:
            name = f"{modname}.{qual}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1000.0, "ms")
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        products = self.counts["linalg.mat_mul.products"]
        out["linalg.mat_mul.useful_frac"] = (self.useful / products if products else 0.0, "frac")
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "input"],
                       "spans": self.spans}, fh)
