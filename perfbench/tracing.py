"""Span tracing of anoncheck's public functions, installed from outside.

Nothing in ``src/`` knows about this module.  :func:`install` rebinds every
traced name in every ``anoncheck`` module that holds it (``build_system``,
for instance, is bound separately in ``system``, ``scenarios``,
``composition``, ``sysfile`` and the package itself), so each call made
through any import site opens a span.  Spans stay in memory; the caller
writes them out and aggregates them once the timed part has ended.

Hot inner calls are not given spans of their own:

* checkers (the objects behind ``CheckSuite.checker``) get one span per
  ``holds``/``first_failure`` call, never per formula node;
* ``Evaluator.evaluate`` calls made directly by ``check_property``,
  ``check_independence``, ``check_structural`` and the CLI are *folded*:
  their time and count are added to the enclosing span instead of being
  stored as spans, which keeps a 14,400-run check at a few hundred stored
  spans.

Self time is a span's duration minus the time covered by its child spans
and its folded evaluation time.
"""
from __future__ import annotations

import sys
from time import perf_counter

# Span names, one per layer boundary.  The part before the first dot is the
# layer (the anoncheck module); ``trace.*`` spans are the tracer's own work.
ROOT = "bench.workload"
NODE_WALK = "trace.nodes"

#: Evaluation group of folded Evaluator time, by the span it happened in.
FOLD_GROUP = {
    "properties.check": "property",
    "composition.check_independence": "independence",
    "composition.check_structural": "structural",
}

#: Checker names that belong to the independence and structural groups;
#: every other checker evaluates a property.
_INDEPENDENCE_CHECKERS = {
    "independence", "pairwise-independence", "disjunctive-independence",
    "posneg-independence", "negpos-independence", "parallel-independence",
    "independence-reformulation-equivalence",
}
_STRUCTURAL_CHECKERS = {
    "exhaustive-posting", "exhaustive-registration", "backward-causality",
    "exclusive-posts", "exclusive-agents",
}


def checker_metric_name(flavor: str, name: str) -> str:
    """The parallel flavor's ``independence`` checker is the parallel
    independence variant; naming it so keeps checker names unique."""
    if flavor == "parallel" and name == "independence":
        return "parallel-independence"
    return name


def checker_group(name: str) -> str:
    if name in _INDEPENDENCE_CHECKERS:
        return "independence"
    if name in _STRUCTURAL_CHECKERS:
        return "structural"
    return "property"


class Tracer:
    """Records spans as ``[name, start, end, parent, fold_s, fold_calls]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._walked: list = []  # keeps walked formulas alive, so ids stay unique
        self._seen_nodes: set[int] = set()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span nesting broken: closed {index}, open {popped}")

    def fold(self, seconds: float) -> None:
        if self._stack:
            span = self.spans[self._stack[-1]]
            span[4] += seconds
            span[5] += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def count_nodes(self, formula) -> None:
        """Add a compiled formula to ``compile.formula_nodes`` (nodes reached
        by a tree walk, shared subformulas once per occurrence) and
        ``compile.distinct_nodes`` (distinct node objects).  The walk is a
        span of the tracer's own, so it is not charged to any layer."""
        index = self.open(NODE_WALK)
        self._walked.append(formula)
        seen = self._seen_nodes
        total = 0
        stack = [formula]
        while stack:
            node = stack.pop()
            total += 1
            seen.add(id(node))
            slots = type(node).__slots__
            if "child" in slots:
                stack.append(node.child)
            elif "left" in slots:
                stack.append(node.left)
                stack.append(node.right)
        self.count("compile.formula_nodes", total)
        self.counters["compile.distinct_nodes"] = len(seen)
        self.close(index)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_generator(self, fn, name: str, on_item=None):
        """One span per produced item; the consumer's own work between items
        stays outside the spans."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span, computed from the recorded intervals."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, fold_s, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] - fold_s
                for i, (_, start, end, _, fold_s, _) in enumerate(self.spans)]

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\tself_s\tfold_s\tfold_calls\n")
            for i, (name, start, end, parent, fold_s, fold_calls) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{selfs[i]:.9f}\t{fold_s:.9f}\t{fold_calls}\n")


def _rebind(original, replacement, modules) -> int:
    """Replace ``original`` by ``replacement`` wherever one of ``modules``
    binds it; returns the number of bindings replaced."""
    replaced = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def _anoncheck_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "anoncheck" or name.startswith("anoncheck."))]


def install(tracer: Tracer) -> None:
    """Rebind anoncheck's public entry points to span-recording wrappers."""
    import anoncheck.cli  # noqa: F401  (the CLI must be imported to be rebound)
    from anoncheck import (composition, formula, properties, scenarios,
                           sysfile, system)

    modules = _anoncheck_modules()

    def runs_built(result):
        tracer.count("system.build.runs", len(result.runs))

    def runs_loaded(result):
        tracer.count("sysfile.load.runs", len(result.runs))

    plain = [
        (system.build_system, "system.build", runs_built),
        (sysfile.load_system, "sysfile.load", runs_loaded),
        (sysfile.save_system, "sysfile.save", None),
        (composition.derive_sequential, "composition.derive", None),
        (composition.derive_parallel, "composition.derive", None),
        (composition.structural_formula, "composition.structural", tracer.count_nodes),
        (composition.check_independence, "composition.check_independence", None),
        (composition.check_structural, "composition.check_structural", None),
        (properties.compile_property, "properties.compile", tracer.count_nodes),
        (properties.check_property, "properties.check", None),
        (scenarios.random_system, "scenarios.generate", None),
        (scenarios.mixer_chain, "scenarios.generate", None),
        (scenarios.sweep, "scenarios.orchestrate", None),
        (scenarios.falsify, "scenarios.orchestrate", None),
        (scenarios.check_claim, "scenarios.orchestrate", None),
        (anoncheck.cli.main, "cli", None),
    ]
    for fn, name, hook in plain:
        _rebind(fn, tracer.wrap(fn, name, hook), modules)

    _rebind(scenarios.exhaustive_systems,
            tracer.wrap_generator(scenarios.exhaustive_systems, "scenarios.generate"),
            modules)
    _rebind(composition.independence_obligations,
            tracer.wrap_generator(composition.independence_obligations,
                                  "composition.obligations",
                                  lambda item: tracer.count_nodes(item[1])),
            modules)

    # Evaluators used directly by the checking functions and the CLI fold
    # their top-level evaluate/valid calls into the enclosing span.  The
    # scenarios module keeps the real class: its evaluation is timed at the
    # checker boundary instead.
    base_evaluator = formula.Evaluator

    class FoldingEvaluator:
        __slots__ = ("_ev", "system")

        def __init__(self, system_):
            self._ev = base_evaluator(system_)
            self.system = system_

        def evaluate(self, f, run):
            start = perf_counter()
            try:
                return self._ev.evaluate(f, run)
            finally:
                tracer.fold(perf_counter() - start)

        def valid(self, f):
            start = perf_counter()
            try:
                return self._ev.valid(f)
            finally:
                tracer.fold(perf_counter() - start)

    _rebind(base_evaluator, FoldingEvaluator,
            [formula, properties, composition, anoncheck.cli])

    base_suite = scenarios.CheckSuite

    class TracedCheckSuite(base_suite):
        """Counts suites and compiled checkers; times each checker call."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.count("scenarios.suites")
            self._timed: dict[str, _TimedChecker] = {}

        def checker(self, name):
            timed = self._timed.get(name)
            if timed is None:
                index = tracer.open("scenarios.compile")
                try:
                    inner = super().checker(name)
                finally:
                    tracer.close(index)
                tracer.count("scenarios.checkers_compiled")
                label = checker_metric_name(self.flavor, name)
                timed = _TimedChecker(tracer, inner, f"formula.checker.{label}")
                self._timed[name] = timed
            return timed

    _rebind(base_suite, TracedCheckSuite, modules)


class _TimedChecker:
    __slots__ = ("_tracer", "_inner", "_span")

    def __init__(self, tracer: Tracer, inner, span: str):
        self._tracer = tracer
        self._inner = inner
        self._span = span

    def holds(self, ctx):
        index = self._tracer.open(self._span)
        try:
            return self._inner.holds(ctx)
        finally:
            self._tracer.close(index)

    def first_failure(self, ctx):
        index = self._tracer.open(self._span)
        try:
            return self._inner.first_failure(ctx)
        finally:
            self._tracer.close(index)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer totals from the recorded spans.

    Returns calls and self seconds per span name (``<name>.calls``,
    ``<name>.self_s``), evaluation totals (``formula.evaluate.*``), the
    counters, and ``trace.attributed_frac``: the share of the traced wall
    time that lies in anoncheck spans rather than in the benchmark's own
    code or the tracer's.
    """
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    groups = {"independence": 0.0, "property": 0.0, "structural": 0.0, "eval": 0.0}
    eval_calls = 0
    for (name, _, _, _, fold_s, fold_calls), own in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if fold_calls:
            groups[FOLD_GROUP.get(name, "eval")] += fold_s
            eval_calls += fold_calls
        if name.startswith("formula.checker."):
            groups[checker_group(name[len("formula.checker."):])] += own
            eval_calls += 1

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for group, seconds in groups.items():
        out[f"formula.evaluate.{group}.self_s"] = seconds
    out["formula.evaluate.self_s"] = sum(groups.values())
    out["formula.evaluate.calls"] = eval_calls
    out.update(tracer.counters)
    load_s = sum(end - start for name, start, end, *_ in tracer.spans if name == "sysfile.load")
    if load_s:
        out["sysfile.load.runs_per_s"] = tracer.counters["sysfile.load.runs"] / load_s

    total_self = sum(selfs) + sum(span[4] for span in tracer.spans)
    root_s = sum(own for (name, *_), own in zip(tracer.spans, selfs) if name == ROOT)
    tracer_s = self_s.get(NODE_WALK, 0.0)
    if abs(total_self - wall_s) > 1e-3 * wall_s + 1e-6:
        raise RuntimeError(f"span self times sum to {total_self:.6f} s, "
                           f"traced wall time is {wall_s:.6f} s")
    out["trace.attributed_frac"] = (wall_s - root_s - tracer_s) / wall_s
    return out
