"""Tracing from outside the program.

``Tracer.installed()`` replaces every public function of the traced ordolab
modules with a wrapper that records a span, at every module that holds the
function by name (so ``partition.minimize_offset`` and
``gomoryhu.st_min_cut`` are traced where they are called), and restores
the originals on exit.  Oracle ``evaluate`` methods get counters and
accumulated time instead of spans; ``dense_values`` gets a span plus table
counters.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "core", "matroids", "sfm", "partition", "solve", "reductions", "gomoryhu", "mlvc", "simplex")

ORACLE_KINDS = {"GraphicMatroid": "graphic", "VectorMatroid": "vector", "CutFunction": "cut",
                "ContractedOracle": "contracted"}


def _sfm_method(args) -> str:
    """minimize_offset's path, by its documented rule: enumeration up to
    enum_cap, Fujishige-Wolfe beyond."""
    method = args["method"]
    if method == "auto":
        method = "enumerate" if args["f"].m <= args["enum_cap"] else "wolfe"
    return f"sfm.minimize_offset.{method}"


#: span name from the bound arguments, for functions traced per path
LABELS = {"sfm.minimize_offset": _sfm_method}

#: units of work a call brings, from its bound arguments
WORK = {
    "simplex.simplex_minimize": lambda a: sum(1 for coeffs, _, _ in a["rows"] for v in coeffs if v),
    "mlvc.best_of_n": lambda a: a["n_samples"],
    "mlvc.balance_check": lambda a: a["trials"],
}


def unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    def __init__(self):
        self._patches = []
        self._stack = []
        self.rounds = []          # finished rounds' spans
        self._reset()

    def _reset(self):
        self.t0 = time.perf_counter()
        self.spans = []           # (name, parent index, start, duration, oracle evals)
        self.stats = {}           # name -> [calls, busy_s, self_s, evals]
        self.pairs = Counter()    # (ancestor name, name) -> calls
        self.work = Counter()
        self.evals = 0
        self.oracles = {}         # kind -> [evals, seconds]
        self.dense = Counter()

    # -- install / uninstall ------------------------------------------------

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self):
        modules = [importlib.import_module(f"ordolab.{name}") for name in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = (obj, self._wrap_function(obj, f"{layer}.{attr}"))
        oracle_base = importlib.import_module("ordolab.core").SetFunctionOracle
        classes = {obj for mod in modules for obj in vars(mod).values()
                   if inspect.isclass(obj) and issubclass(obj, oracle_base)}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)][1])
        for cls in classes:
            if "evaluate" in vars(cls):
                kind = ORACLE_KINDS.get(cls.__name__, cls.__name__.lower())
                self._patch(cls, "evaluate", self._wrap_evaluate(vars(cls)["evaluate"], kind))
            if "dense_values" in vars(cls):
                self._patch(cls, "dense_values", self._wrap_dense(vars(cls)["dense_values"]))

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        seen = set()
        for frame in self._stack:
            if frame[0] not in seen:
                seen.add(frame[0])
                self.pairs[(frame[0], name)] += 1
        self._stack.append([name, len(self.spans), time.perf_counter(), 0.0, self.evals])
        self.spans.append(None)

    def _exit(self):
        name, index, start, child, evals0 = self._stack.pop()
        duration = time.perf_counter() - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stat[0] += 1
        stat[2] += duration - child
        if all(frame[0] != name for frame in self._stack):   # outermost: no double counting
            stat[1] += duration
            stat[3] += self.evals - evals0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[index] = (name, -1 if parent is None else parent[1], start - self.t0, duration,
                             self.evals - evals0)

    def _wrap_function(self, fn, name):
        label, work = LABELS.get(name), WORK.get(name)
        signature = inspect.signature(fn) if label or work else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if label:
                        span = label(bound.arguments)
                    if work:
                        tracer.work[name] += work(bound.arguments)
                except (TypeError, KeyError, AttributeError):
                    pass   # a changed signature: trace under the plain name
            tracer._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    def _wrap_evaluate(self, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def evaluate(oracle, subset):
            start = time.perf_counter()
            try:
                return fn(oracle, subset)
            finally:
                counter = tracer.oracles.setdefault(kind, [0, 0.0])
                counter[0] += 1
                counter[1] += time.perf_counter() - start
                tracer.evals += 1

        return evaluate

    def _wrap_dense(self, fn):
        tracer = self
        tables = weakref.WeakKeyDictionary()

        @functools.wraps(fn)
        def dense_values(oracle, *args, **kwargs):
            tracer._enter("core.dense_values")
            try:
                table = fn(oracle, *args, **kwargs)
            finally:
                tracer._exit()
            tracer.dense["calls"] += 1
            if tables.get(oracle) is table:
                tracer.dense["reused"] += 1
            else:
                tables[oracle] = table
                tracer.dense["built"] += 1
                tracer.dense["entries"] += len(table)
            return table

        return dense_values

    # -- per-round results --------------------------------------------------

    def take_round(self) -> dict:
        """The per-layer metrics of the round traced since the last call;
        the round's spans move to ``rounds``."""
        metrics = self.layer_metrics()
        self.rounds.append(self.spans)
        self._reset()
        return metrics

    def layer_metrics(self) -> dict:
        def stat(name, i):
            return self.stats.get(name, (0, 0.0, 0.0, 0))[i]

        def calls(name):
            return stat(name, 0)

        def busy(name):
            return stat(name, 1)

        def self_s(name):
            return stat(name, 2)

        def ratio(a, b):
            return a / b if b else 0.0

        def nested(ancestor, prefix):
            return sum(c for (a, n), c in self.pairs.items() if a == ancestor and n.startswith(prefix))

        pp, gh = "partition.compute_principal_partition", "gomoryhu.build_gh_tree"
        wolfe, enum = "sfm.minimize_offset.wolfe", "sfm.minimize_offset.enumerate"
        out = {
            "core.dense_values.calls": self.dense["calls"],
            "core.dense_values.tables_built": self.dense["built"],
            "core.dense_values.entries": self.dense["entries"],
            "core.dense_values.busy_s": busy("core.dense_values"),
            "core.dense_values.reuse_ratio": ratio(self.dense["reused"], self.dense["calls"]),
            "solve.exact_mlop_dp.busy_s": busy("solve.exact_mlop_dp"),
            "solve.exact_mlop_dp.self_s": self_s("solve.exact_mlop_dp"),
            "solve.exact_weighted_mlop_dp.self_s": self_s("solve.exact_weighted_mlop_dp"),
            "solve.small_basis_exact.busy_s": busy("solve.small_basis_exact"),
            "solve.approx_monotone_mlop.self_s": self_s("solve.approx_monotone_mlop"),
            "partition.zero_set_contract.busy_s": busy("partition.zero_set_contract"),
            "partition.compute_principal_partition.busy_s": busy(pp),
            "partition.sfm_solves_per_partition": ratio(nested(pp, "sfm.minimize_offset"), calls(pp)),
            "sfm.minimize_offset.enumerate.calls": calls(enum),
            "sfm.minimize_offset.enumerate.busy_s": busy(enum),
            "sfm.minimize_offset.wolfe.calls": calls(wolfe),
            "sfm.minimize_offset.wolfe.busy_s": busy(wolfe),
            "sfm.wolfe.evals_per_solve": ratio(stat(wolfe, 3), calls(wolfe)),
            "sfm.constrained_min.calls": calls("sfm.constrained_min"),
            "sfm.constrained_min.busy_s": busy("sfm.constrained_min"),
            "sfm.st_min_cut.calls": calls("sfm.st_min_cut"),
            "sfm.st_min_cut.busy_s": busy("sfm.st_min_cut"),
            "gomoryhu.build_gh_tree.busy_s": busy(gh),
            "gomoryhu.build_gh_tree.self_s": self_s(gh),
            "gomoryhu.st_cuts_per_tree": ratio(nested(gh, "sfm.st_min_cut"), calls(gh)),
            "gomoryhu.gh_upper_bound.busy_s": busy("gomoryhu.gh_upper_bound"),
        }
        for kind in ("graphic", "vector", "cut", "contracted"):
            evals, seconds = self.oracles.get(kind, (0, 0.0))
            out[f"oracle.{kind}.evals"] = evals
            out[f"oracle.{kind}.evals_per_s"] = ratio(evals, seconds)
        out.update({
            "simplex.simplex_minimize.calls": calls("simplex.simplex_minimize"),
            "simplex.simplex_minimize.busy_s": busy("simplex.simplex_minimize"),
            "simplex.nonzeros": self.work["simplex.simplex_minimize"],
            "mlvc.build_lp.busy_s": busy("mlvc.build_lp"),
            "mlvc.best_of_n.busy_s": busy("mlvc.best_of_n"),
            "mlvc.samples_per_s": ratio(self.work["mlvc.best_of_n"], busy("mlvc.best_of_n")),
            "mlvc.balance_check.busy_s": busy("mlvc.balance_check"),
            "mlvc.trials_per_s": ratio(self.work["mlvc.balance_check"], busy("mlvc.balance_check")),
            "reductions.solve_mlvc_via_apex.self_s": self_s("reductions.solve_mlvc_via_apex"),
            "reductions.mlvc_msvc_shift.busy_s": busy("reductions.mlvc_msvc_shift"),
            "cli.parse_instance.calls": calls("cli.parse_instance"),
            "cli.parse_instance.busy_s": busy("cli.parse_instance"),
            "cli.run.self_s": self_s("cli.run"),
        })
        return out

    def top_self_time(self, limit=12) -> list:
        """The names with the most self time in the current round."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:limit]
        return [{"name": n, "calls": s[0], "busy_s": round(s[1], 6), "self_s": round(s[2], 6)} for n, s in rows]
