"""A per-run evaluator written straight from the semantics, and the
property, independence and structural checks restated on it: the
reference that the bitmask evaluators are tested against.  Derivation
and the fact index are restated run by run too, for the column algebra
of ``composition`` and ``InterpretedSystem.holding``.

An atom reads ``run.facts``; ``K[j]``/``P[j]`` are ``all``/``any`` over
``system.kernel(j, run)``.  There is no memo and no mask, so it is slow
on purpose and only fit for small systems and shallow formulas.
"""
from collections import defaultdict

from anoncheck.composition import (SequentialSchema, independence_obligations,
                                   structural_formula)
from anoncheck.formula import (And, Atom, Const, Iff, Implies, Knows, Not, Or,
                               Poss, Verdict, render)
from anoncheck.properties import PropertyReport, _conjuncts
from anoncheck.system import InterpretedSystem, Run


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


def holding(system, fact):
    """The runs holding ``fact``, as a run mask, from a scan of every run."""
    return sum(1 << i for i, run in enumerate(system.runs) if fact in run.facts)


def _chained(schema):
    """A run's chained facts theta(x, derived(c)): x performs first(k) and
    k performs second(c), for some intermediary k."""
    intermediary = dict(zip(schema.first_actions, schema.first_params))  # use(k) -> k
    derived = dict(zip(schema.second_actions, schema.derived_actions))  # post(c) -> submit(c)

    def new_facts(facts):
        posted = defaultdict(list)  # k -> the submit(c) of each post(c) k performs
        for k, action in facts:
            if action in derived:
                posted[k].append(derived[action])
        return {(x, d) for x, action in facts if action in intermediary
                for d in posted.get(intermediary[action], ())}
    return new_facts


def _joint(schema):
    """A run's joint facts theta(x, joint(c)): x performs both a(c) and b(c)."""
    joint = {a: (b, d) for a, b, d in
             zip(schema.actions_a, schema.actions_b, schema.derived_actions)}
    return lambda facts: {(x, joint[a][1]) for x, a in facts
                          if a in joint and (x, joint[a][0]) in facts}


def derive(system, schema):
    """``system`` with the schema's derived facts added run by run, as a
    new system with indexes of its own (no validation)."""
    new_facts = (_chained if isinstance(schema, SequentialSchema) else _joint)(schema)
    runs = tuple(Run(run.run_id, run.facts | new_facts(run.facts)) for run in system.runs)
    return InterpretedSystem(system.name, system.agents, system.roles,
                             system.actions + schema.derived_actions, runs,
                             system.observers)
