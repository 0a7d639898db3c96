"""A per-run evaluator written straight from the semantics, and the
property, independence and structural checks restated on it: the
reference that the bitmask evaluators are tested against.

An atom reads ``run.facts``; ``K[j]``/``P[j]`` are ``all``/``any`` over
``system.kernel(j, run)``.  There is no memo and no mask, so it is slow
on purpose and only fit for small systems and shallow formulas.
"""
from anoncheck.composition import independence_obligations, structural_formula
from anoncheck.formula import (And, Atom, Const, Iff, Implies, Knows, Not, Or,
                               Poss, Verdict, render)
from anoncheck.properties import PropertyReport, _conjuncts


class Reference:
    """Truth run by run.  With ``derive`` (as for
    :class:`~anoncheck.formula.Evaluator`) every formula is read on the
    derived system, where base formulas keep their truth."""

    all = True

    def __init__(self, system, derive=None):
        self.system = system if derive is None else derive()

    def evaluate(self, f, run):
        t = type(f)
        if t is Atom:
            return (f.agent, f.action) in run.facts
        if t is Const:
            return f.value
        if t is Not:
            return not self.evaluate(f.child, run)
        if t is And:
            return self.evaluate(f.left, run) and self.evaluate(f.right, run)
        if t is Or:
            return self.evaluate(f.left, run) or self.evaluate(f.right, run)
        if t is Implies:
            return not self.evaluate(f.left, run) or self.evaluate(f.right, run)
        if t is Iff:
            return self.evaluate(f.left, run) == self.evaluate(f.right, run)
        if t is Knows:
            return all(self.evaluate(f.child, r) for r in self.system.kernel(f.observer, run))
        if t is Poss:
            return any(self.evaluate(f.child, r) for r in self.system.kernel(f.observer, run))
        raise TypeError(f"not a formula: {f!r}")

    def values(self, f):
        return [self.evaluate(f, run) for run in self.system.runs]

    def holds(self, f):
        return all(self.values(f))

    def valid(self, f):
        for run in self.system.runs:
            if not self.evaluate(f, run):
                return Verdict(False, run.run_id)
        return Verdict(True, None)


def check_property(system, spec):
    """The first run, in declaration order, where the guard holds and a
    conjunct fails, and there the first failing conjunct."""
    parts = _conjuncts(system, spec)
    ref = Reference(system)
    guard = Atom(spec.subject, spec.action)
    for run in system.runs:
        if ref.evaluate(guard, run):
            for desc, f in parts:
                if not ref.evaluate(f, run):
                    return False, (run.run_id, desc)
    return True, None


def _first_failure(system, obligations):
    ref = Reference(system)
    for label, f in obligations:
        verdict = ref.valid(f)
        if not verdict.holds:
            return False, (verdict.counterexample, label)
    return True, None


def check_independence(system, observer, schema, kind, bound=2):
    return _first_failure(system, independence_obligations(system, schema, observer,
                                                           kind, bound))


def check_structural(system, schema, cond):
    f = structural_formula(system, schema, cond)
    return _first_failure(system, [(render(f), f)])


def outcome(report: PropertyReport):
    return report.holds, report.counterexample
