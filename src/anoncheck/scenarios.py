"""Executable claim registry, bundled systems, and falsification search.

Every registered claim has machine-checkable hypotheses and conclusion; a
claim on a system is *confirmed* (hypotheses and conclusion hold), *vacuous*
(some hypothesis fails), or *REFUTED* (hypotheses hold, conclusion fails).
The registered claims are theorems of the underlying semantics, so REFUTED
must never occur with full hypotheses; the sweep and falsify entry points
exist to hammer on exactly that, and to demonstrate hypothesis necessity by
re-running searches with a hypothesis dropped.

Hypotheses and conclusions are named checkers.  Most are looked up in
tables: a ``<stage>-<property>`` checker asks one property of every
(subject, action) of a stage, and independence and structural checkers
name their condition.  A suite compiles them once per declaration shape
into hash-consed formulas.  A checker is decided on a context, which is
an evaluator: one system's run bitmasks
(:class:`~anoncheck.formula.RunMasks`), whose derived facts are derived
only when a formula reads them, or a batch of generated systems as slot
planes (:class:`~anoncheck.formula.SlotPlanes`).  Both share one walk
over the connectives; all semantics lives in the formula/property/
composition modules.  The bundled systems are the ``data/*.sys`` files.
"""
from __future__ import annotations

import random
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import (accumulate, chain, combinations, combinations_with_replacement,
                       groupby, islice, permutations, repeat)
from pathlib import Path
from typing import NamedTuple

from .composition import (IndependenceKind, ParallelSchema, SequentialSchema,
                          StructuralCondition, StructuralKind, derive_parallel,
                          derive_sequential, independence_obligations,
                          parallel_subjects, structural_formula)
from .formula import (And, Atom, Const, Formula, Implies, Knows, Not, Poss,
                      RunMasks, SlotPlanes, conj)
from .properties import (anonymous_up_to, compile_property,
                         maximally_identified, maximally_onymous,
                         minimally_anonymous, minimally_private,
                         private_up_to, role_interchangeable)
from .sysfile import load_system
from .system import (Action, InterpretedSystem, ObserverPartition, Run,
                     ValidationError, build_system)

ClaimId = str


# ---------------------------------------------------------------------------
# Schemas and schema inference


def standard_sequential_schema(system: InterpretedSystem,
                               first_family: str = "use",
                               second_family: str = "post",
                               derived_family: str = "submit") -> SequentialSchema:
    """Infer the two-stage schema from a system's declaration.

    The first-stage population is the agents tagged ``real`` (falling back
    to the performers of first-family actions); intermediaries are the
    parameters of the first-family actions; second-stage parameters come
    from the second-family actions.
    """
    first_params = tuple(a.param for a in system.actions if a.family == first_family)
    second_params = tuple(a.param for a in system.actions if a.family == second_family)
    if not first_params or not second_params:
        raise ValidationError(
            f"cannot infer schema: no {first_family}/{second_family} actions declared")
    first_agents = system.agents_with_role("real")
    if not first_agents:
        performers = set()
        for run in system.runs:
            for agent, action in run.facts:
                if action.family == first_family:
                    performers.add(agent)
        first_agents = tuple(a for a in system.agents if a in performers)
    if not first_agents:
        raise ValidationError("cannot infer schema: no first-stage agents")
    return SequentialSchema(first_family, first_agents, first_params,
                            second_family, second_params, derived_family)


def standard_parallel_schema(system: InterpretedSystem,
                             family_a: str = "act_a",
                             family_b: str = "act_b",
                             derived_family: str = "joint") -> ParallelSchema:
    params = tuple(a.param for a in system.actions if a.family == family_a)
    params_b = tuple(a.param for a in system.actions if a.family == family_b)
    if not params or set(params) != set(params_b):
        raise ValidationError(
            f"cannot infer schema: {family_a}/{family_b} parameter sets differ")
    return ParallelSchema(family_a, family_b, derived_family, params)


def _flavor_functions(flavor: str):
    """The schema inference and the derivation of a claim flavor."""
    if flavor == "parallel":
        return standard_parallel_schema, derive_parallel
    return standard_sequential_schema, derive_sequential


# ---------------------------------------------------------------------------
# Checkers: named obligation bundles shared by claims


@dataclass(frozen=True)
class _Obligation:
    label: str
    formula: Formula


# A checker's context is an evaluator: a :class:`RunMasks` for one system
# (see :meth:`CheckSuite.context`), a :class:`SlotPlanes` for a batch.  Its
# ``holds(ctx)`` is the vector of the context's systems on which it holds:
# a bool on one system, an int bitmask on a batch.  Both support ``&``,
# ``|`` and ``^`` with ``ctx.valid`` and ``ctx.all``; ``first_failure``
# needs a :class:`RunMasks`.


def _all_valid(ctx, obligations):
    held = ctx.all
    for ob in obligations:
        held &= ctx.valid(ob.formula)
        if not held:
            break
    return held


class _AllValid:
    """Holds iff every obligation formula is valid."""

    __slots__ = ("name", "obligations")

    def __init__(self, name: str, obligations):
        self.name = name
        self.obligations = tuple(obligations)

    def holds(self, ctx):
        return _all_valid(ctx, self.obligations)

    def first_failure(self, ctx: RunMasks) -> str | None:
        for ob in self.obligations:
            run_id = ctx.first_failure(ob.formula)
            if run_id is not None:
                return f"{ob.label} @ {run_id}"
        return None


class _AnyOfEachValid:
    """For each item, at least one alternative must be valid (CB-style
    either/or hypotheses).  Symmetric in the alternatives."""

    __slots__ = ("name", "items")

    def __init__(self, name: str, items):
        self.name = name
        self.items = tuple(items)  # (label, (formula, ...))

    def holds(self, ctx):
        held = ctx.all
        for _, fs in self.items:
            some = False
            for f in fs:
                some |= ctx.valid(f)
                if not held & ~some:
                    break
            held &= some
            if not held:
                break
        return held

    def first_failure(self, ctx: RunMasks) -> str | None:
        for label, fs in self.items:
            if not any(ctx.valid(f) for f in fs):
                return f"{label} (no alternative holds)"
        return None


class _EquivalenceValid:
    """Two obligation bundles must agree: both all-valid or neither."""

    __slots__ = ("name", "left", "right", "left_label", "right_label")

    def __init__(self, name: str, left, right, left_label: str, right_label: str):
        self.name = name
        self.left = tuple(left)
        self.right = tuple(right)
        self.left_label = left_label
        self.right_label = right_label

    def holds(self, ctx):
        return ctx.all ^ _all_valid(ctx, self.left) ^ _all_valid(ctx, self.right)

    def first_failure(self, ctx: RunMasks) -> str | None:
        lv, rv = _all_valid(ctx, self.left), _all_valid(ctx, self.right)
        if lv == rv:
            return None
        return (f"{self.left_label}={'holds' if lv else 'fails'} but "
                f"{self.right_label}={'holds' if rv else 'fails'}")


# ---------------------------------------------------------------------------
# Checker tables


class _Stage(NamedTuple):
    """One stage of a claim flavor: the reference system its properties
    compile against (``base`` or ``derived``), the agents they are stated
    of, and its actions.  Anonymity is up to the stage's agents; privacy
    and role interchangeability are up to its actions."""

    target: str
    subjects: tuple[str, ...]
    actions: tuple[Action, ...]


def _sequential_stages(schema: SequentialSchema, system, observer) -> dict[str, _Stage]:
    return {"use": _Stage("base", schema.first_agents, schema.first_actions),
            "post": _Stage("base", schema.first_params, schema.second_actions),
            "submit": _Stage("derived", schema.first_agents, schema.derived_actions)}


def _parallel_stages(schema: ParallelSchema, system, observer) -> dict[str, _Stage]:
    subjects = parallel_subjects(system, observer)
    return {"a": _Stage("base", subjects, schema.actions_a),
            "b": _Stage("base", subjects, schema.actions_b),
            "joint": _Stage("derived", subjects, schema.derived_actions)}


_STAGES = {"sequential": _sequential_stages, "parallel": _parallel_stages}

#: Property suffix of a ``<stage>-<property>`` checker -> the spec it asks
#: of each (subject, action) of the stage.
_PROPERTY_SPECS = {
    "anonymity": lambda i, a, stage, j: anonymous_up_to(i, a, stage.subjects, j),
    "privacy": lambda i, a, stage, j: private_up_to(i, a, stage.actions, j),
    "onymity": lambda i, a, stage, j: maximally_onymous(i, a, j),
    "identity": lambda i, a, stage, j: maximally_identified(i, a, j),
    "min-anonymity": lambda i, a, stage, j: minimally_anonymous(i, a, j),
    "min-privacy": lambda i, a, stage, j: minimally_private(i, a, j),
    "role-interchangeability":
        lambda i, a, stage, j: role_interchangeable(i, a, j, stage.actions),
}

#: The ``<stage>-<property>`` checkers each flavor offers.
_PROPERTY_CHECKERS = {
    "sequential": ("use-anonymity", "use-onymity", "use-min-anonymity",
                   "use-role-interchangeability", "post-privacy",
                   "post-identity", "post-min-privacy",
                   "post-role-interchangeability", "submit-privacy",
                   "submit-anonymity", "submit-min-privacy",
                   "submit-min-anonymity", "submit-onymity",
                   "submit-role-interchangeability"),
    "parallel": ("a-privacy", "b-privacy", "a-anonymity", "b-anonymity",
                 "joint-privacy", "joint-anonymity", "joint-min-privacy",
                 "joint-identity"),
}

_INDEPENDENCE_KINDS = {
    "sequential": {"independence": IndependenceKind.BASIC,
                   "pairwise-independence": IndependenceKind.PAIRWISE,
                   "disjunctive-independence": IndependenceKind.DISJUNCTIVE,
                   "posneg-independence": IndependenceKind.POS_NEG,
                   "negpos-independence": IndependenceKind.NEG_POS},
    "parallel": {"independence": IndependenceKind.PARALLEL},
}

#: Structural checkers (sequential flavor) -> their conditions.
_STRUCTURAL_CONDITIONS = {
    "exhaustive-posting":
        lambda sch: [StructuralCondition(StructuralKind.EXHAUSTIVE_POSTING)],
    "exhaustive-registration":
        lambda sch: [StructuralCondition(StructuralKind.EXHAUSTIVE_REGISTRATION)],
    "backward-causality":
        lambda sch: [StructuralCondition(StructuralKind.BACKWARD_CAUSALITY)],
    "exclusive-posts":
        lambda sch: [StructuralCondition(StructuralKind.EXCLUSIVE_ACTION, action=a)
                     for a in sch.second_actions],
    "exclusive-agents":
        lambda sch: [StructuralCondition(StructuralKind.EXCLUSIVE_AGENT, agent=i)
                     for i in sch.first_agents],
}


class CheckSuite:
    """Compiles the named checkers for one declaration shape.

    A suite is reusable across every system sharing the declaration (the
    sweep generates thousands of such systems).  The formulas of all its
    checkers are hash-consed: structurally equal subformulas become one
    object, so the evaluator of a system or a batch evaluates each of
    them once, whichever obligation or checker reaches it first.
    """

    def __init__(self, flavor: str, schema, observer: str,
                 ref_base: InterpretedSystem, bound: int = 2):
        self.flavor = flavor
        self.schema = schema
        self.observer = observer
        self.ref_base = ref_base
        self.bound = bound
        self._ref_derived: InterpretedSystem | None = None
        self._checkers: dict[str, object] = {}
        self._interned: dict[tuple, Formula] = {}

    @property
    def ref_derived(self) -> InterpretedSystem:
        if self._ref_derived is None:
            _, derive = _flavor_functions(self.flavor)
            self._ref_derived = derive(self.ref_base, self.schema)
        return self._ref_derived

    def context(self, system: InterpretedSystem) -> RunMasks:
        """The checkers' context on ``system``, derived on first use."""
        if system is self.ref_base:
            return RunMasks(system, lambda: self.ref_derived)
        _, derive = _flavor_functions(self.flavor)
        return RunMasks(system, lambda: derive(system, self.schema))

    def checker(self, name: str):
        c = self._checkers.get(name)
        if c is None:
            c = self._build(name)
            self._checkers[name] = c
        return c

    # -- builders ---------------------------------------------------------

    def _intern(self, f: Formula) -> Formula:
        """The suite's one object structurally equal to ``f``.

        Children are interned first and swapped into ``f`` in place; the
        swap keeps ``f`` structurally the same, so this is safe even for
        formulas shared with other owners.
        """
        t = type(f)
        if t is Atom:
            key = (f.agent, f.action.family, f.action.param)
        elif t is Not or t is Knows or t is Poss:
            child = self._intern(f.child)
            if child is not f.child:
                object.__setattr__(f, "child", child)
            key = (t, getattr(f, "observer", None), id(child))
        elif t is Const:
            key = (t, f.value)
        else:
            left, right = self._intern(f.left), self._intern(f.right)
            if left is not f.left:
                object.__setattr__(f, "left", left)
            if right is not f.right:
                object.__setattr__(f, "right", right)
            key = (t, id(left), id(right))
        return self._interned.setdefault(key, f)

    def _obligation(self, label: str, f: Formula) -> _Obligation:
        return _Obligation(label, self._intern(f))

    def _props(self, name: str, target: str, specs):
        ref = self.ref_base if target == "base" else self.ref_derived
        obligations = []
        for spec in specs:
            label = f"{spec.kind.value}({spec.subject}, {spec.action})"
            obligations.append(self._obligation(label, compile_property(ref, spec)))
        return _AllValid(name, obligations)

    def _independence_obligations(self, kind: IndependenceKind):
        return [self._obligation(label, f) for label, f in independence_obligations(
            self.ref_base, self.schema, self.observer, kind, self.bound)]

    def _structural(self, name: str, conds):
        return _AllValid(name, [
            self._obligation(cond.label, structural_formula(self.ref_base, self.schema, cond))
            for cond in conds])

    def _stages(self) -> dict[str, _Stage]:
        return _STAGES[self.flavor](self.schema, self.ref_base, self.observer)

    def _build(self, name: str):
        kind = _INDEPENDENCE_KINDS[self.flavor].get(name)
        if kind is not None:
            return _AllValid(name, self._independence_obligations(kind))
        if name in _PROPERTY_CHECKERS[self.flavor]:
            stage_name, _, prop = name.partition("-")
            stage, make_spec = self._stages()[stage_name], _PROPERTY_SPECS[prop]
            return self._props(name, stage.target, [
                make_spec(i, a, stage, self.observer)
                for i in stage.subjects for a in stage.actions])
        if self.flavor == "sequential" and name in _STRUCTURAL_CONDITIONS:
            return self._structural(name, _STRUCTURAL_CONDITIONS[name](self.schema))
        method = self._METHODS[self.flavor].get(name)
        if method is not None:
            return method(self, name)
        raise ValidationError(f"unknown checker {name!r}")

    def _reformulation_equivalence(self, name: str):
        sch, j = self.schema, self.observer
        use, post = sch.first_family, sch.second_family
        left = self._independence_obligations(IndependenceKind.BASIC)
        right = []
        for i2 in sch.first_agents:
            for k2 in sch.first_params:
                for c in sch.second_params:
                    guard = And(Atom(i2, Action(use, k2)), Atom(k2, Action(post, c)))
                    body = conj(
                        Implies(Poss(j, Atom(i, Action(use, k))),
                                Poss(j, And(Atom(i, Action(use, k)),
                                            Atom(k2, Action(post, c)))))
                        for i in sch.first_agents for k in sch.first_params)
                    right.append(self._obligation(f"{i2},{k2},{c}",
                                                  Implies(guard, body)))
        return _EquivalenceValid(name, left, right, "independence", "reformulation")

    def _min_privacy_either(self, name: str):
        stages = self._stages()
        a, b = stages["a"], stages["b"]
        items = []
        for i in a.subjects:
            for pair in zip(a.actions, b.actions):
                alts = tuple(self._intern(compile_property(
                    self.ref_base, minimally_private(i, act, self.observer)))
                    for act in pair)
                items.append((f"{i},{pair[0].param}", alts))
        return _AnyOfEachValid(name, items)

    def _ab_identity(self, name: str):
        stages = self._stages()
        a, b = stages["a"], stages["b"]
        return self._props(name, "base", [
            maximally_identified(i, act, self.observer)
            for i in a.subjects for pair in zip(a.actions, b.actions)
            for act in pair])

    #: Checkers written out as methods, per flavor.
    _METHODS = {
        "sequential": {"independence-reformulation-equivalence": _reformulation_equivalence},
        "parallel": {"min-privacy-either": _min_privacy_either,
                     "ab-identity": _ab_identity},
    }


# ---------------------------------------------------------------------------
# Claim registry


@dataclass(frozen=True)
class ClaimDef:
    claim_id: ClaimId
    flavor: str  # "sequential" | "parallel"
    summary: str
    hypotheses: tuple[str, ...]
    conclusion: str
    witness_only: bool = False  # existence claims checked against one system


CLAIMS: dict[ClaimId, ClaimDef] = {}


def _register(*args, **kwargs):
    cdef = ClaimDef(*args, **kwargs)
    CLAIMS[cdef.claim_id] = cdef


_register("C3.1", "sequential",
          "witness: stage properties hold while chained facts lose both "
          "anonymity and privacy",
          ("use-anonymity", "post-privacy"), "submit-exposure", witness_only=True)
_register("L3.1", "sequential",
          "first-stage facts all maximally onymous give stage independence",
          ("use-onymity",), "independence")
_register("L3.2", "sequential",
          "second-stage facts all maximally identified give stage independence",
          ("post-identity",), "independence")
_register("C3.2", "sequential",
          "independence and second-stage privacy lift to chained privacy",
          ("independence", "post-privacy"), "submit-privacy")
_register("C3.3", "sequential",
          "independence and first-stage anonymity lift to chained anonymity",
          ("independence", "use-anonymity"), "submit-anonymity")
_register("C3.4", "sequential",
          "onymous first stage and private second stage give chained privacy",
          ("use-onymity", "post-privacy"), "submit-privacy")
_register("C3.5", "sequential",
          "anonymous first stage and identified second stage give chained anonymity",
          ("use-anonymity", "post-identity"), "submit-anonymity")
_register("C4.1", "parallel",
          "independent components each private give joint privacy",
          ("independence", "a-privacy", "b-privacy"), "joint-privacy")
_register("C4.2", "parallel",
          "independent components each anonymous give joint anonymity",
          ("independence", "a-anonymity", "b-anonymity"), "joint-anonymity")
_register("CA.1", "sequential",
          "pairwise independence and second-stage role interchangeability "
          "lift to chained role interchangeability",
          ("pairwise-independence", "post-role-interchangeability"),
          "submit-role-interchangeability")
_register("CA.2", "sequential",
          "pairwise independence and first-stage role interchangeability "
          "lift to chained role interchangeability",
          ("pairwise-independence", "use-role-interchangeability"),
          "submit-role-interchangeability")
_register("CA.3", "sequential",
          "independence, exhaustive exclusive posting, exclusive agents and "
          "minimally private second stage give minimally private chains",
          ("independence", "exhaustive-posting", "exclusive-posts",
           "exclusive-agents", "post-min-privacy"), "submit-min-privacy")
_register("CA.4", "sequential",
          "independence, exhaustive registration, exclusivity and minimally "
          "anonymous first stage give minimally anonymous chains",
          ("independence", "exhaustive-registration", "exclusive-agents",
           "exclusive-posts", "use-min-anonymity"), "submit-min-anonymity")
_register("CA.5", "sequential",
          "onymous first stage instead of assumed independence still gives "
          "minimally private chains",
          ("exhaustive-posting", "exclusive-posts", "exclusive-agents",
           "use-onymity", "post-min-privacy"), "submit-min-privacy")
_register("CA.6", "sequential",
          "identified second stage instead of assumed independence still "
          "gives minimally anonymous chains",
          ("exhaustive-registration", "exclusive-posts", "exclusive-agents",
           "use-min-anonymity", "post-identity"), "submit-min-anonymity")
_register("CA.7", "sequential",
          "onymous first stage and identified second stage give maximally "
          "onymous chains",
          ("use-onymity", "post-identity"), "submit-onymity")
_register("CB.1", "parallel",
          "either component minimally private gives minimally private joints",
          ("min-privacy-either",), "joint-min-privacy")
_register("CB.2", "parallel",
          "both components maximally identified give maximally identified joints",
          ("ab-identity",), "joint-identity")
_register("LA.1", "sequential",
          "independence extends to bounded disjunctions of stage facts",
          ("independence",), "disjunctive-independence")
_register("LA.2", "sequential",
          "independence with exhaustive exclusive posting extends to negated "
          "second-stage facts",
          ("independence", "exhaustive-posting", "exclusive-posts"),
          "posneg-independence")
_register("LA.3", "sequential",
          "independence with exhaustive registration and exclusive agents "
          "extends to negated first-stage facts",
          ("independence", "exhaustive-registration", "exclusive-agents"),
          "negpos-independence")
_register("APPC-EQ", "sequential",
          "under backward causality, independence coincides with its "
          "guarded reformulation",
          ("backward-causality",), "independence-reformulation-equivalence")


#: Hypothesis-strengthening relations: every system satisfying the left
#: claim's hypotheses must satisfy the right claim's.
HYPOTHESIS_IMPLICATIONS: tuple[tuple[ClaimId, ClaimId], ...] = (
    ("C3.4", "C3.2"), ("C3.5", "C3.3"), ("CA.5", "CA.3"), ("CA.6", "CA.4"),
)


class ClaimVerdict(Enum):
    CONFIRMED = "confirmed"
    VACUOUS = "vacuous"
    REFUTED = "REFUTED"


@dataclass(frozen=True)
class HypothesisOutcome:
    name: str
    holds: bool
    detail: str | None = None


@dataclass(frozen=True)
class ClaimReport:
    claim_id: ClaimId
    system_name: str
    hypotheses: tuple[HypothesisOutcome, ...]
    hypotheses_hold: bool
    conclusion: HypothesisOutcome
    conclusion_holds: bool
    verdict: ClaimVerdict
    dropped: tuple[str, ...] = ()
    #: C3.1 only: per-item breakdown (index, description, holds, detail).
    items: tuple[tuple[int, str, bool, str | None], ...] = ()


def _suite_for_system(cdef: ClaimDef, system: InterpretedSystem,
                      observer: str | None, schema, bound: int) -> tuple[CheckSuite, str]:
    if observer is None:
        if not system.observers:
            raise ValidationError("system declares no observer")
        observer = next(iter(system.observers))
    if schema is None:
        infer_schema, _ = _flavor_functions(cdef.flavor)
        schema = infer_schema(system)
    return CheckSuite(cdef.flavor, schema, observer, system, bound), observer


def _check_witness_claim(suite: CheckSuite, ctx: RunMasks,
                         system: InterpretedSystem) -> ClaimReport:
    """C3.1: the given system should witness all four items."""
    anon = suite.checker("use-anonymity")
    priv = suite.checker("post-privacy")
    sub_anon = suite.checker("submit-anonymity")
    sub_priv = suite.checker("submit-privacy")
    i1 = anon.holds(ctx)
    i2 = priv.holds(ctx)
    f3 = sub_anon.first_failure(ctx)
    f4 = sub_priv.first_failure(ctx)
    items = (
        (1, "every first-stage fact anonymous up to the first-stage population",
         i1, None if i1 else anon.first_failure(ctx)),
        (2, "every second-stage fact private up to the second-stage actions",
         i2, None if i2 else priv.first_failure(ctx)),
        (3, "some chained fact not anonymous", f3 is not None, f3),
        (4, "some chained fact not private", f4 is not None, f4),
    )
    all_hold = all(h for _, _, h, _ in items)
    verdict = ClaimVerdict.CONFIRMED if all_hold else ClaimVerdict.VACUOUS
    return ClaimReport(
        claim_id="C3.1", system_name=system.name,
        hypotheses=(HypothesisOutcome("use-anonymity", i1, items[0][3]),
                    HypothesisOutcome("post-privacy", i2, items[1][3])),
        hypotheses_hold=i1 and i2,
        conclusion=HypothesisOutcome("submit-exposure", f3 is not None and f4 is not None),
        conclusion_holds=f3 is not None and f4 is not None,
        verdict=verdict, items=items)


def check_claim(claim_id: ClaimId, system: InterpretedSystem, *,
                observer: str | None = None, schema=None,
                drop=(), bound: int = 2) -> ClaimReport:
    """Evaluate one registered claim on one system.

    ``drop`` removes hypotheses by name before the verdict is computed,
    which is how hypothesis necessity is probed.  Witness-only claims
    (C3.1) report CONFIRMED when the system exhibits all items and VACUOUS
    otherwise; existence statements cannot be refuted by a single system.
    """
    try:
        cdef = CLAIMS[claim_id]
    except KeyError:
        raise ValidationError(f"unknown claim {claim_id!r}") from None
    dropped = tuple(drop)
    for name in dropped:
        if name not in cdef.hypotheses:
            raise ValidationError(f"claim {claim_id} has no hypothesis {name!r}")
    suite, observer = _suite_for_system(cdef, system, observer, schema, bound)
    ctx = suite.context(system)
    if cdef.witness_only:
        return _check_witness_claim(suite, ctx, system)

    outcomes = []
    hyps_hold = True
    for name in cdef.hypotheses:
        if name in dropped:
            continue
        checker = suite.checker(name)
        ok = checker.holds(ctx)
        outcomes.append(HypothesisOutcome(name, ok, None if ok else checker.first_failure(ctx)))
        hyps_hold = hyps_hold and ok
    conc = suite.checker(cdef.conclusion)
    conc_ok = conc.holds(ctx)
    conclusion = HypothesisOutcome(cdef.conclusion, conc_ok,
                                   None if conc_ok else conc.first_failure(ctx))
    if not hyps_hold:
        verdict = ClaimVerdict.VACUOUS
    elif conc_ok:
        verdict = ClaimVerdict.CONFIRMED
    else:
        verdict = ClaimVerdict.REFUTED
    return ClaimReport(claim_id, system.name, tuple(outcomes), hyps_hold,
                       conclusion, conc_ok, verdict, dropped)


# ---------------------------------------------------------------------------
# Bundled systems


#: Where the bundled systems live, one ``<name>.sys`` file each.
DATA_DIR = Path(__file__).parent / "data"

PAPER_SYSTEM_NAMES = ("s12", "s1234", "s56", "s125678", "s129-12")

FIXTURE_NAMES = PAPER_SYSTEM_NAMES + ("onymic_reg", "identified_post", "linked",
                                      "par_swap", "par_single")


@lru_cache(maxsize=None)
def fixture_system(name: str) -> InterpretedSystem:
    """A bundled system, loaded from ``data/<name>.sys``."""
    if name not in FIXTURE_NAMES:
        raise ValidationError(f"unknown fixture system {name!r}")
    return load_system(DATA_DIR / f"{name}.sys")


def paper_system(name: str) -> InterpretedSystem:
    """The bundled systems of the paper's examples.

    ``s12``, ``s1234`` and ``s56`` consist of quoted runs (r1 to r6).
    ``s125678`` completes r1, r2, r5, r6 with two runs (r7, r8), and
    ``s129-12`` completes r1, r2 with four runs (r9 to r12).  The added
    runs come from an exhaustive search over the 256 possible runs of the
    2x2 use/post fact grid: the lexicographically first completion, by run
    encoding, under which every (use, post) fact pair occurs in some run,
    both stages are role interchangeable, pairwise independence fails,
    and chained role interchangeability fails.  The data files hold the
    result; the tests freeze those runs and re-check these properties
    through the public checkers.
    """
    if name not in PAPER_SYSTEM_NAMES:
        raise ValidationError(f"unknown example system {name!r}")
    return fixture_system(name)


#: Default demo system per claim (hypotheses hold on it).
DEFAULT_SYSTEMS: dict[ClaimId, str] = {
    "C3.1": "s12", "L3.1": "onymic_reg", "L3.2": "identified_post",
    "C3.2": "s1234", "C3.3": "s1234", "C3.4": "onymic_reg",
    "C3.5": "identified_post", "C4.1": "par_swap", "C4.2": "par_swap",
    "CA.1": "s1234", "CA.2": "s1234", "CA.3": "s1234", "CA.4": "s1234",
    "CA.5": "onymic_reg", "CA.6": "identified_post", "CA.7": "linked",
    "CB.1": "par_swap", "CB.2": "par_single", "LA.1": "s1234",
    "LA.2": "s1234", "LA.3": "s1234", "APPC-EQ": "s1234",
}


# ---------------------------------------------------------------------------
# Random generation


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generator configuration.

    Two fact styles: ``uniform`` draws each stage fact independently with
    probability one half (no structure imposed, degenerate systems on
    purpose); ``matching`` makes every first-stage agent perform exactly one
    first-stage action and every intermediary exactly one second-stage
    action (injectively when sizes allow), with per-system coin flips
    deciding whether each stage is constant across runs.  The matching style
    reaches the structured hypotheses (exhaustivity, exclusivity, constant
    stages) that uniform sampling almost never hits.
    """

    n_real: int = 2
    n_pseudo: int = 2
    n_articles: int = 2
    max_runs: int = 4
    partition: str = "single"  # or "random"
    seed: int = 0
    budget: int = 10_000
    flavor: str = "sequential"  # or "parallel"
    style: str = "uniform"  # or "matching"

    def __post_init__(self):
        if min(self.n_real, self.n_pseudo, self.n_articles, self.max_runs) < 1:
            raise ValidationError("generator counts must be at least 1")
        if self.partition not in ("single", "random"):
            raise ValidationError(f"unknown partition policy {self.partition!r}")
        if self.flavor not in ("sequential", "parallel"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if self.style not in ("uniform", "matching"):
            raise ValidationError(f"unknown generator style {self.style!r}")
        if self.budget < 0:
            raise ValidationError("budget must be non-negative")


def _declaration(cfg: GenConfig):
    """Agents, actions and facts of a generated declaration; a drawn fact
    set is a bit mask over ``facts``."""
    reals = [f"i{n}" for n in range(1, cfg.n_real + 1)]
    params = [f"c{n}" for n in range(1, cfg.n_articles + 1)]
    if cfg.flavor == "sequential":
        pseudos = [f"k{n}" for n in range(1, cfg.n_pseudo + 1)]
        agents = ([(i, "real") for i in reals] + [(k, "pseudo") for k in pseudos]
                  + [("j", "observer")])
        uses = [Action("use", k) for k in pseudos]
        posts = [Action("post", c) for c in params]
        facts = ([(i, u) for i in reals for u in uses]
                 + [(k, p) for k in pseudos for p in posts])
        return agents, uses + posts, facts
    stages = ([Action("act_a", c) for c in params], [Action("act_b", c) for c in params])
    facts = [(i, a) for i in reals for stage in stages for a in stage]
    return [(i, "real") for i in reals] + [("j", "observer")], stages[0] + stages[1], facts


def _row_bounds(facts) -> list[int]:
    """Where each row of ``facts`` starts, then where the last ends: a row
    is the consecutive facts of one agent and one action family."""
    rows = groupby(facts, key=lambda fact: (fact[0], fact[1].family))
    return list(accumulate((len(list(row)) for _, row in rows), initial=0))


def _matching_choices(cfg: GenConfig, rng: random.Random, n_runs: int) -> list[list[int]]:
    """Per run, the one fact (counted from 1) of each fact row that holds,
    for the matching style (see GenConfig)."""
    def first_map():
        return [rng.randrange(1, cfg.n_pseudo + 1) for _ in range(cfg.n_real)]

    def second_map():
        if cfg.n_pseudo <= cfg.n_articles:
            return rng.sample(range(1, cfg.n_articles + 1), cfg.n_pseudo)
        return [rng.randrange(1, cfg.n_articles + 1) for _ in range(cfg.n_pseudo)]

    def pair_map():
        return [rng.randrange(1, cfg.n_articles + 1) for _ in range(2 * cfg.n_real)]

    first_const = rng.random() < 0.5
    second_const = rng.random() < 0.5
    if cfg.flavor == "sequential":
        fixed_first, fixed_second = first_map(), second_map()
        return [(fixed_first if first_const else first_map())
                + (fixed_second if second_const else second_map())
                for _ in range(n_runs)]
    fixed_pairs = pair_map()
    return [fixed_pairs if first_const else pair_map() for _ in range(n_runs)]


def _draw(cfg: GenConfig, rng: random.Random, bounds) -> tuple[list[int], list[int]]:
    """The draws of one random system: per run, its fact set and its block
    label of ``j``; ``bounds`` are the :func:`_row_bounds` of its facts."""
    n_runs = rng.randint(1, cfg.max_runs)
    if cfg.style == "matching":
        runs = [sum(1 << start + c - 1 for start, c in zip(bounds, choices))
                for choices in _matching_choices(cfg, rng, n_runs)]
    else:
        runs = [sum(1 << b for b in range(bounds[-1]) if rng.random() < 0.5)
                for _ in range(n_runs)]
    if cfg.partition == "single" or n_runs == 1:
        return runs, [0] * n_runs
    n_blocks = rng.randint(1, n_runs)
    return runs, [rng.randrange(n_blocks) for _ in range(n_runs)]


def random_system(cfg: GenConfig) -> InterpretedSystem:
    """One random system, a pure function of ``cfg`` (in particular its seed)."""
    agents, actions, facts = _declaration(cfg)
    runs, labels = _draw(cfg, random.Random(cfg.seed), _row_bounds(facts))
    blocks: dict[int, list[str]] = {}
    for n, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(f"r{n}")
    return build_system(
        name=f"rnd-{cfg.flavor}-{cfg.seed}", agents=agents, actions=actions,
        runs=[(f"r{n}", [f for b, f in enumerate(facts) if m >> b & 1])
              for n, m in enumerate(runs, start=1)],
        observers={"j": list(blocks.values())})


# ---------------------------------------------------------------------------
# Batches: generated systems decided together


#: Systems decided together, as one bit vector.
_CHUNK = 2048


@lru_cache(maxsize=None)
def _bit_digits(k: int) -> bytes:
    """Maps a byte to ``b"1"`` if its bit ``k`` is set, else to ``b"0"``."""
    return bytes(b"01"[x >> k & 1] for x in range(256))


def _transpose(values, width: int) -> list[int]:
    """Bit ``s`` of the ``b``-th result is bit ``b`` of ``values[s]``, for
    the ``width`` low bits; ``values`` is a non-empty sequence."""
    size = (width + 7) // 8
    raw = b"".join(map(int.to_bytes, reversed(values), repeat(size), repeat("little")))
    return [int(raw[b // 8::size].translate(_bit_digits(b % 8)), 2) for b in range(width)]


class _Shape:
    """One generated declaration shape: its facts, its suite, and every
    atom's truth as a function of the facts that hold.

    A derived fact is a disjunction of two-fact conjunctions.  So the
    library's own derivation of a catalog with one run per set of at most
    two facts gives each atom its *terms*: the minimal such sets on which
    it holds (a base fact is its own term).  ``ref`` is the declaration,
    with every fact in its one run, and ``bounds`` are its facts'
    :func:`_row_bounds`.
    """

    def __init__(self, flavor: str, n_real: int, n_pseudo: int, n_articles: int):
        self.flavor = flavor
        self._suites: dict[int, CheckSuite] = {}
        agents, actions, self.facts = _declaration(GenConfig(
            n_real=n_real, n_pseudo=n_pseudo, n_articles=n_articles, flavor=flavor))
        self.bounds = _row_bounds(self.facts)
        self.ref = build_system(name="ref", agents=agents, actions=actions,
                                runs=[("r1", self.facts)], observers={"j": [["r1"]]})
        pairs = list(combinations_with_replacement(range(len(self.facts)), 2))
        catalog = build_system(
            name="catalog", agents=agents, actions=actions,
            runs=[(f"p{n}", [self.facts[a], self.facts[b]]) for n, (a, b) in enumerate(pairs)],
            observers={"j": [[f"p{n}" for n in range(len(pairs))]]})
        infer_schema, derive = _flavor_functions(flavor)
        holding: dict[Atom, set[tuple[int, int]]] = {}
        for pair, run in zip(pairs, derive(catalog, infer_schema(catalog)).runs):
            for fact in run.facts:
                holding.setdefault(Atom(*fact), set()).add(pair)
        self._terms = {atom: tuple((a, b) for a, b in sorted(sets)
                                   if a == b or not {(a, a), (b, b)} & sets)
                       for atom, sets in holding.items()}

    def suite(self, bound: int) -> CheckSuite:
        """The shape's checkers, compiled once per bound."""
        suite = self._suites.get(bound)
        if suite is None:
            infer_schema, _ = _flavor_functions(self.flavor)
            suite = self._suites[bound] = CheckSuite(
                self.flavor, infer_schema(self.ref), "j", self.ref, bound)
        return suite

    def column(self, columns, atom: Atom) -> int:
        """The atom's truth, given every fact's: bit ``s`` of ``columns[b]``
        is fact ``b`` in fact set ``s``."""
        out = 0
        for a, b in self._terms.get(atom, ()):
            out |= columns[a] & columns[b]
        return out

    def batch(self, columns, width: int, blocks=None) -> SlotPlanes:
        """``width`` systems: bit ``s`` of ``columns[i][b]`` is fact ``b`` at
        slot ``i`` of system ``s``; ``blocks`` are as in :class:`SlotPlanes`."""
        return SlotPlanes(lambda atom: tuple(self.column(c, atom) for c in columns),
                          width, len(columns), blocks)

    def drawn_batch(self, draws) -> SlotPlanes:
        """The drawn systems (see :func:`_draw`) as one batch, with a slot per
        run of the longest; a shorter system repeats its first run."""
        slots = max(len(runs) for runs, _ in draws)
        n_blocks = 1 + max(max(labels) for _, labels in draws)
        slot_sets = [[] for _ in range(slots)]
        in_block = []  # per system: bit label * slots + i set iff slot i is in block label
        for runs, labels in draws:
            pad = slots - len(runs)
            for sets, m in zip(slot_sets, runs + runs[:1] * pad):
                sets.append(m)
            in_block.append(sum(1 << label * slots + i
                                for i, label in enumerate(labels + labels[:1] * pad)))
        planes = _transpose(in_block, n_blocks * slots)
        return self.batch([_transpose(sets, self.bounds[-1]) for sets in slot_sets],
                          len(draws), [planes[v * slots:(v + 1) * slots] for v in range(n_blocks)])


@lru_cache(maxsize=64)
def _shape(flavor: str, n_real: int, n_pseudo: int, n_articles: int) -> _Shape:
    return _Shape(flavor, n_real, n_pseudo, n_articles)


def _shape_of(cfg: GenConfig) -> _Shape:
    """The shape of ``cfg``'s systems; parallel declarations have no pseudonyms."""
    n_pseudo = cfg.n_pseudo if cfg.flavor == "sequential" else 1
    return _shape(cfg.flavor, cfg.n_real, n_pseudo, cfg.n_articles)


# ---------------------------------------------------------------------------
# The exhaustive universe


class _Universe:
    """One flavor's exhaustive universe: the 256 one-run systems ``x{m}``,
    one per fact set ``m`` of the 2/2/2 shape, then ``x{a}-{b}`` for every
    ``a < b``.  ``runs[m]`` are the shared ``r1``/``r2`` runs with fact set
    ``m``.  Its chunks are batches of 2 slots and one block each, whose fact
    columns are built once."""

    def __init__(self, flavor: str):
        self.shape = _shape(flavor, 2, 2, 2)
        facts = self.shape.facts
        n_sets = 1 << len(facts)
        self.runs = tuple((Run("r1", fs), Run("r2", fs)) for fs in (
            frozenset(f for b, f in enumerate(facts) if m >> b & 1) for m in range(n_sets)))
        #: Index of the first system ``x{a}-...``, per ``a``, then the size.
        self.starts = list(accumulate(range(n_sets - 1, 0, -1), initial=n_sets))
        self.size = self.starts[-1]
        pairs = chain(((m, m) for m in range(n_sets)), combinations(range(n_sets), 2))
        self._columns = [[_transpose(sets, len(facts)) for sets in zip(*islice(pairs, _CHUNK))]
                         for _ in range(0, self.size, _CHUNK)]

    def chunks(self):
        """(first index, context) per chunk of :data:`_CHUNK` systems."""
        for lo, columns in zip(range(0, self.size, _CHUNK), self._columns):
            yield lo, self.shape.batch(columns, min(_CHUNK, self.size - lo))


@lru_cache(maxsize=None)
def _universe(flavor: str) -> _Universe:
    return _Universe(flavor)


def _exhaustive_system(flavor: str, index: int) -> InterpretedSystem:
    """System ``index`` of the exhaustive universe of ``flavor``.

    Skipping :func:`build_system` is safe: the shape's ``ref`` passed it
    with every fact in its run, so agents, roles, actions and every run's
    facts are validated; the runs are ``r1`` and ``r2`` (or ``r1`` alone),
    with distinct fact sets, and the one block of ``j`` is exactly their
    ids.
    """
    universe = _universe(flavor)
    if index < len(universe.runs):
        name, runs = f"x{index}", (universe.runs[index][0],)
    else:
        a = bisect_right(universe.starts, index) - 1
        b = a + 1 + index - universe.starts[a]
        name, runs = f"x{a}-{b}", (universe.runs[a][0], universe.runs[b][1])
    ref = universe.shape.ref
    block = frozenset(run.run_id for run in runs)
    return InterpretedSystem(name, ref.agents, ref.roles, ref.actions,
                             runs, {"j": ObserverPartition("j", (block,))})


def exhaustive_systems(flavor: str = "sequential"):
    """Every system over the 2/2/2 fact universe with at most two distinct
    runs and a single observer block, in canonical order."""
    for index in range(_universe(flavor).size):
        yield _exhaustive_system(flavor, index)


# ---------------------------------------------------------------------------
# Sweeps and falsification


@dataclass
class ClaimStats:
    checked: int = 0
    confirmed: int = 0
    vacuous: int = 0
    refuted: int = 0

    @property
    def vacuity_rate(self) -> float:
        return self.vacuous / self.checked if self.checked else 0.0


#: The most refutations and implication violations a sweep lists.
_MAX_REPORTED = 16


@dataclass
class SweepReport:
    stats: dict[ClaimId, ClaimStats]
    #: The first :data:`_MAX_REPORTED` refutations, in sweep order.
    refutations: list[tuple[ClaimId, InterpretedSystem]]
    #: The first :data:`_MAX_REPORTED` implication violations, in sweep order.
    implication_violations: list[tuple[ClaimId, ClaimId, str]]
    systems_checked: dict[str, int]
    elapsed: float
    #: Every implication violation, listed or not.
    implication_violations_total: int = 0


def _random_pool(flavor: str, n_random: int, seed: int):
    """Seeded stream of random system configurations with varied sizes,
    cycling through both partition policies and both generator styles
    deterministically."""
    master = random.Random((seed, flavor).__repr__())
    for idx in range(n_random):
        nr = master.randint(1, 3)
        np_ = master.randint(1, 3)
        nc = master.randint(1, 3)
        child = master.getrandbits(48)
        policy = "single" if idx % 2 == 0 else "random"
        style = "uniform" if (idx // 2) % 2 == 0 else "matching"
        yield GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4,
                        partition=policy, seed=child, flavor=flavor, style=style)


#: The most pooled configurations held back, waiting for their batch.
_MAX_PENDING = 8 * _CHUNK


def _pool_batches(pool):
    """(shape, members) per batch of the configurations of ``pool``: the
    members are (pool index, configuration) pairs of one shape and partition
    policy, at most :data:`_CHUNK` of them, in pool order.  Once
    :data:`_MAX_PENDING` configurations wait, every partial batch is cut."""
    groups: dict[tuple[_Shape, str], list[tuple[int, GenConfig]]] = {}
    pending = 0
    for idx, cfg in enumerate(pool):
        key = (_shape_of(cfg), cfg.partition)
        group = groups.setdefault(key, [])
        group.append((idx, cfg))
        pending += 1
        if len(group) == _CHUNK:
            pending -= _CHUNK
            yield key[0], groups.pop(key)
        elif pending == _MAX_PENDING:
            for (shape, _), group in groups.items():
                yield shape, group
            groups, pending = {}, 0
    for (shape, _), group in groups.items():
        yield shape, group


def _held(holds, names, held):
    """``held`` narrowed to the systems on which every checker of ``names``
    holds, stopping once none is left."""
    for name in names:
        if not held:
            break
        held &= holds(name)
    return held


def _in_order(vectors):
    """(bit, rank, key) for every set bit of the ``(key, vector)`` pairs: by
    bit, then rank, the position of the pair."""
    pending = 0
    for _, v in vectors:
        pending |= v
    while pending:
        low = pending & -pending
        for rank, (key, v) in enumerate(vectors):
            if v & low:
                yield low.bit_length() - 1, rank, key
        pending ^= low


def _sweep_batch(suite: CheckSuite, ctx, flavor: str, claim_ids, stats):
    """Decide ``claim_ids`` on the systems of ``ctx`` and add them to
    ``stats``.  Returns the vectors of refuted claims and of violated
    implication hypotheses, as ``(key, vector)`` pairs for :func:`_in_order`."""
    cache = {}

    def holds(name: str):
        v = cache.get(name)
        if v is None:
            v = cache[name] = suite.checker(name).holds(ctx)
        return v

    size = ctx.all.bit_count()
    refuted = []
    for cid in claim_ids:
        cdef = CLAIMS[cid]
        held = _held(holds, cdef.hypotheses, ctx.all)
        bad = held & ~holds(cdef.conclusion) if held else 0
        n_held, n_bad = held.bit_count(), bad.bit_count()
        st = stats[cid]
        st.checked += size
        st.vacuous += size - n_held
        st.confirmed += n_held - n_bad
        st.refuted += n_bad
        refuted.append((cid, bad))
    violated = []
    for stronger, weaker in HYPOTHESIS_IMPLICATIONS:
        if CLAIMS[stronger].flavor != flavor:
            continue
        held = _held(holds, CLAIMS[stronger].hypotheses, ctx.all)
        if held:
            violated += [((stronger, weaker, n), held & ~holds(n))
                         for n in CLAIMS[weaker].hypotheses]
    return refuted, violated


def sweep(*, claims=None, n_random: int = 100_000, seed: int = 2026,
          exhaustive: bool = True, bound: int = 2) -> SweepReport:
    """Check registered claims over the exhaustive small universe plus a
    seeded random pool (per flavor).  REFUTED entries in the result indicate
    a genuine bug somewhere: the claims are theorems.

    Both are decided a batch of systems at a time: the exhaustive universe
    in chunks, the random pool by shape and partition policy.  Refutations
    and implication violations are listed by system, in universe then pool
    order, and then by claim, implication and hypothesis.
    """
    if claims is None:
        claims = [cid for cid, cdef in CLAIMS.items() if not cdef.witness_only]
    started = time.monotonic()
    stats = {cid: ClaimStats() for cid in claims}
    # The first entries in sweep order, as (position, rank in the system, entry).
    refutations: list = []
    violations: list = []
    n_violations = 0
    systems_checked = {"sequential": 0, "parallel": 0}

    def record(batch, positions, system_at):
        nonlocal refutations, violations, n_violations
        refuted, violated = batch
        n_violations += sum(v.bit_count() for _, v in violated)
        refutations = sorted(refutations + [
            (positions[bit], rank, (cid, system_at(bit)))
            for bit, rank, cid in islice(_in_order(refuted), _MAX_REPORTED)])[:_MAX_REPORTED]
        violations = sorted(violations + [
            (positions[bit], rank, (stronger, weaker, f"{system_at(bit).name}: {name} fails"))
            for bit, rank, (stronger, weaker, name)
            in islice(_in_order(violated), _MAX_REPORTED)])[:_MAX_REPORTED]

    for flavor in ("sequential", "parallel"):
        flavor_claims = [cid for cid in claims if CLAIMS[cid].flavor == flavor]
        if not flavor_claims:
            continue
        offset = sum(systems_checked.values())
        if exhaustive:
            universe = _universe(flavor)
            suite = universe.shape.suite(bound)
            for lo, ctx in universe.chunks():
                record(_sweep_batch(suite, ctx, flavor, flavor_claims, stats),
                       range(offset + lo, offset + universe.size),
                       lambda bit: _exhaustive_system(flavor, lo + bit))
            systems_checked[flavor] += universe.size
            offset += universe.size
        for shape, members in _pool_batches(_random_pool(flavor, n_random, seed)):
            cfgs = [cfg for _, cfg in members]
            ctx = shape.drawn_batch([_draw(cfg, random.Random(cfg.seed), shape.bounds)
                                     for cfg in cfgs])
            record(_sweep_batch(shape.suite(bound), ctx, flavor, flavor_claims, stats),
                   [offset + idx for idx, _ in members],
                   lambda bit: random_system(cfgs[bit]))
        systems_checked[flavor] += n_random
    return SweepReport(stats, [entry for *_, entry in refutations],
                       [entry for *_, entry in violations], systems_checked,
                       time.monotonic() - started, n_violations)


@dataclass
class FalsifyResult:
    claim_id: ClaimId
    dropped: tuple[str, ...]
    found: InterpretedSystem | None
    report: ClaimReport | None
    examined: int
    hypotheses_held: int
    phase: str | None  # "exhaustive" or "random" when found

    @property
    def vacuous(self) -> int:
        return self.examined - self.hypotheses_held


def falsify(claim_id: ClaimId, cfg: GenConfig | None = None, *,
            drop=(), bound: int = 2) -> FalsifyResult:
    """Search for a system whose (remaining) hypotheses hold while the
    conclusion fails.

    Phase one exhausts the tiny 2/2/2 universe (at most two distinct runs,
    single observer block); phase two samples ``cfg.budget`` random systems
    from ``cfg``.  Both are decided a batch at a time, and the first system
    in search order that refutes the claim is reported.  With no dropped
    hypothesis this searches for refutations of a theorem and is expected
    to come back empty.
    """
    try:
        cdef = CLAIMS[claim_id]
    except KeyError:
        raise ValidationError(f"unknown claim {claim_id!r}") from None
    if cdef.witness_only:
        raise ValidationError(f"claim {claim_id} is witness-only; nothing to falsify")
    dropped = tuple(drop)
    for name in dropped:
        if name not in cdef.hypotheses:
            raise ValidationError(f"claim {claim_id} has no hypothesis {name!r}")
    cfg = replace(cfg or GenConfig(), flavor=cdef.flavor)
    hyp_names = [n for n in cdef.hypotheses if n not in dropped]

    examined = 0
    held = 0

    def first_counterexample(suite: CheckSuite, ctx) -> int | None:
        """Index in ``ctx`` of the first system on which the hypotheses hold
        and the conclusion fails, counting the systems examined up to it."""
        nonlocal examined, held
        h = _held(lambda name: suite.checker(name).holds(ctx), hyp_names, ctx.all)
        bad = h & ~suite.checker(cdef.conclusion).holds(ctx) if h else 0
        if not bad:
            examined += ctx.all.bit_count()
            held += h.bit_count()
            return None
        first = (bad & -bad).bit_length() - 1
        examined += first + 1
        held += (h & ((2 << first) - 1)).bit_count()
        return first

    def found(system: InterpretedSystem, phase: str) -> FalsifyResult:
        report = check_claim(claim_id, system, drop=dropped, bound=bound)
        return FalsifyResult(claim_id, dropped, system, report, examined, held, phase)

    universe = _universe(cdef.flavor)
    suite = universe.shape.suite(bound)
    for lo, ctx in universe.chunks():
        first = first_counterexample(suite, ctx)
        if first is not None:
            return found(_exhaustive_system(cdef.flavor, lo + first), "exhaustive")
    rng = random.Random(cfg.seed)
    shape = _shape_of(cfg)
    suite = shape.suite(bound)
    for lo in range(0, cfg.budget, _CHUNK):
        seeds = [rng.getrandbits(48) for _ in range(min(_CHUNK, cfg.budget - lo))]
        ctx = shape.drawn_batch([_draw(cfg, random.Random(s), shape.bounds) for s in seeds])
        first = first_counterexample(suite, ctx)
        if first is not None:
            return found(random_system(replace(cfg, seed=seeds[first])), "random")
    return FalsifyResult(claim_id, dropped, None, None, examined, held, None)


# ---------------------------------------------------------------------------
# Mixer chains


def _as_permutation(mapping, messages) -> dict[str, str]:
    if set(mapping.keys()) != set(messages) or set(mapping.values()) != set(messages):
        raise ValidationError("permutation domain does not match the message set")
    return {m: mapping[m] for m in messages}


def mixer_chain(perm1, perm2, observed_indistinguishability: str = "single",
                messages=None) -> InterpretedSystem:
    """A two-mixer relay modeled as a two-stage system.

    Stage one maps each incoming message to an intermediate slot
    (theta(in_m, use(mid_x))); stage two maps slots to outgoing messages
    (theta(mid_x, post(out_m))).  Each run fixes one concrete pair of
    mappings; ``perm1``/``perm2`` select the run families:

    - a dict: that fixed mapping in every run;
    - ``"all"``: all permutations of the message set;
    - ``"inverse"`` (perm2 only): the run's second mapping is the inverse
      of its first, making the end-to-end relation the identity.

    ``messages`` supplies the domain when neither argument is a dict.
    ``observed_indistinguishability`` is ``"single"`` (one block: the
    observer sees nothing) or ``"discrete"`` (all runs distinguishable).
    """
    domains = [sorted(p.keys()) for p in (perm1, perm2) if isinstance(p, dict)]
    if messages is not None:
        msgs = list(messages)
    elif domains:
        msgs = domains[0]
    else:
        raise ValidationError("mixer_chain needs messages when both stages are symbolic")
    if not msgs or len(set(msgs)) != len(msgs):
        raise ValidationError("messages must be a non-empty set of distinct names")
    for p in (perm1, perm2):
        if isinstance(p, dict) and set(p.keys()) != set(msgs):
            raise ValidationError("permutation domain does not match the message set")
    if perm1 == "inverse":
        raise ValidationError("'inverse' only makes sense for the second stage")
    if observed_indistinguishability not in ("single", "discrete"):
        raise ValidationError(
            f"unknown indistinguishability policy {observed_indistinguishability!r}")

    def family(p):
        if isinstance(p, dict):
            return [_as_permutation(p, msgs)]
        if p == "all":
            return [dict(zip(msgs, image)) for image in permutations(msgs)]
        raise ValidationError(f"cannot interpret {p!r} as a permutation family")

    runs = []
    count = 0
    for p1 in family(perm1):
        if perm2 == "inverse":
            p2s = [{v: k for k, v in p1.items()}]
        else:
            p2s = family(perm2)
        for p2 in p2s:
            count += 1
            facts = ([(f"in_{m}", f"use(mid_{p1[m]})") for m in msgs]
                     + [(f"mid_{x}", f"post(out_{p2[x]})") for x in msgs])
            runs.append((f"r{count}", facts))

    agents = ([(f"in_{m}", "real") for m in msgs]
              + [(f"mid_{m}", "pseudo") for m in msgs]
              + [("j", "observer")])
    actions = ([f"use(mid_{m})" for m in msgs] + [f"post(out_{m})" for m in msgs])
    run_ids = [rid for rid, _ in runs]
    if observed_indistinguishability == "single":
        blocks = [run_ids]
    else:
        blocks = [[rid] for rid in run_ids]
    return build_system(name="mixer_chain", agents=agents, actions=actions,
                        runs=runs, observers={"j": blocks})
