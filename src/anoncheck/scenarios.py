"""Executable claim registry, bundled systems, and falsification search.

Every registered claim has machine-checkable hypotheses and conclusion; a
claim on a system is *confirmed* (hypotheses and conclusion hold), *vacuous*
(some hypothesis fails), or *REFUTED* (hypotheses hold, conclusion fails).
The registered claims are theorems of the underlying semantics, so REFUTED
must never occur with full hypotheses; the sweep and falsify entry points
exist to hammer on exactly that, and to demonstrate hypothesis necessity by
re-running searches with a hypothesis dropped.  Both walk one batch stream
of generated systems, the exhaustive universe and then a random pool, and
every generated system is assembled by one builder, :meth:`_Shape.system`.

Hypotheses and conclusions are named checkers, looked up in one table per
flavor (:data:`_FLAVORS`) that also gives its schema inference: a
``<stage>-<property>`` checker asks one property of every (subject, action)
of a stage (``composition._stages``), and independence and structural
checkers name their kind.  A suite compiles them once per declaration
shape: property and independence checkers keep only tables of fact and
stage terms, and only a failure's report builds their formulas.  A checker that asks every
obligation to be valid is one :class:`_AllValid`: a context call that
decides it and a report builder that lists its labelled obligations; a
structural condition is decided as one conjunction of its obligations.
A checker is decided on a context, which is an evaluator: one system's
run bitmasks (:class:`~anoncheck.formula.Evaluator`), or a batch of
generated systems as slot planes (:class:`~anoncheck.formula.SlotPlanes`).
Both share one walk over the connectives, and both compute each derived
fact from its conjunct pairs (``composition._conjuncts``) when a formula
reads it; all semantics lives in the formula/property/composition
modules.  The bundled systems are the ``data/*.sys`` files.
"""
from __future__ import annotations

import random
import time
from collections import defaultdict, namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial
from itertools import accumulate, combinations, groupby, islice, permutations
from operator import itemgetter, methodcaller
from pathlib import Path

from .composition import (IndependenceKind, ParallelSchema, SequentialSchema,
                          StructuralCondition, StructuralKind, _conjuncts, _first_failure,
                          _independence_pairs, _stages, derive_sequential,
                          independence_obligations, structural_formula)
from .formula import Evaluator, SlotPlanes, _guarded_formula, _shared, conj
from .properties import _FORMS, PropertyKind, PropertySpec, _expand, minimally_private
from .sysfile import load_system
from .system import (Action, InterpretedSystem, ObserverPartition,
                     ValidationError, _grid_columns, _mask, _transpose,
                     build_system)

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
    first_agents = system.agents_with_role("real") or tuple(
        a for a in system.agents
        if any(system.holding((a, Action(first_family, k))) for k in first_params))
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


# ---------------------------------------------------------------------------
# Checkers: named obligation bundles shared by claims


# A checker's context is an evaluator: an :class:`Evaluator` for one system
# (see :meth:`CheckSuite.context`), a :class:`SlotPlanes` for a batch.  Its
# ``holds(ctx)`` is the vector of the context's systems on which it holds:
# a bool on one system, an int bitmask on a batch.  Both support ``&``,
# ``|`` and ``^`` with ``ctx.holds`` and ``ctx.all``; ``first_failure``
# needs an :class:`Evaluator`, whose ``valid`` names the first failing run.


class _AllValid:
    """Holds iff every (label, formula) of ``obligations()`` is valid.

    ``holds(ctx)`` decides that on the context in one call: guarded fact
    terms (:meth:`~anoncheck.formula._Vectors.guarded`), distributing stage
    terms (:meth:`~anoncheck.formula._Vectors.distributes`) or the
    conjunction of the obligations (``ctx.holds``), which holds on a system
    iff every conjunct is valid there.  ``obligations()`` builds the
    labelled formulas, for a report only."""

    __slots__ = ("holds", "obligations")

    def __init__(self, holds, obligations):
        self.holds = holds
        self.obligations = obligations

    def first_failure(self, ctx: Evaluator) -> str | None:
        failure = _first_failure(ctx, self.obligations())
        return failure and "{1} @ {0}".format(*failure)


def _guarded_obligations(observer: str, rows, label: str):
    """(``label.format(*guard)``, :func:`_guarded_formula`) of every
    ``(guard, terms)`` row (a format string takes less memory than a
    function per checker)."""
    for guard, terms in rows:
        yield label.format(*guard), _guarded_formula(observer, guard, terms)


def _guarded(observer: str, rows, label: str) -> _AllValid:
    """Holds iff :func:`_guarded_formula` of every ``(guard, terms)`` row is valid."""
    rows = tuple(rows)
    return _AllValid(methodcaller("guarded", observer, rows),
                     partial(_guarded_obligations, observer, rows, label))


class _AnyOfEachValid:
    """For each item, at least one alternative checker must hold (CB-style
    either/or hypotheses).  Symmetric in the alternatives."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)  # (label, (checker, ...))

    def holds(self, ctx):
        held = ctx.all
        for _, alternatives in self.items:
            some = False
            for c in alternatives:
                some |= c.holds(ctx)
                if not held & ~some:
                    break
            held &= some
            if not held:
                break
        return held

    def first_failure(self, ctx: Evaluator) -> str | None:
        for label, alternatives in self.items:
            if not any(c.holds(ctx) for c in alternatives):
                return f"{label} (no alternative holds)"
        return None


class _EquivalenceValid:
    """Two checkers must agree: both hold or neither.  A report names each
    side by its label in ``labels``."""

    __slots__ = ("labels", "left", "right")

    def __init__(self, labels: tuple[str, str], left, right):
        self.labels = labels
        self.left = left
        self.right = right

    def holds(self, ctx):
        return ctx.all ^ self.left.holds(ctx) ^ self.right.holds(ctx)

    def first_failure(self, ctx: Evaluator) -> str | None:
        lv, rv = self.left.holds(ctx), self.right.holds(ctx)
        if lv == rv:
            return None
        left, right = self.labels
        return (f"{left}={'holds' if lv else 'fails'} but "
                f"{right}={'holds' if rv else 'fails'}")


# ---------------------------------------------------------------------------
# Checker tables


class CheckSuite:
    """Compiles the named checkers for one declaration shape.

    A suite is reusable across every system sharing the declaration (the
    sweep generates thousands of such systems).  Its property and
    independence checkers are term tables, so compiling them builds no
    formula, and an evaluator decides each term or subformula once,
    whichever checker reaches it first.
    """

    def __init__(self, flavor: str, schema, observer: str, ref_base: InterpretedSystem):
        self.flavor = flavor
        self.schema = schema
        self.observer = observer
        self.ref_base = ref_base
        self._ref_derived: InterpretedSystem | None = None
        self._checkers: dict[str, object] = {}

    @property
    def ref_derived(self) -> InterpretedSystem:
        """``ref_base`` derived, made when a derived-stage checker is built
        (through this module's name, so that a rebinding of it is seen)."""
        if self._ref_derived is None:
            self._ref_derived = derive_sequential(self.ref_base, self.schema)
        return self._ref_derived

    def context(self, system: InterpretedSystem) -> Evaluator:
        """The checkers' context on ``system``, any system of the suite's
        declaration: an evaluator that computes each derived fact from its
        conjunct pairs when a formula reads it."""
        return Evaluator(system, _conjuncts(system, self.schema))

    def checker(self, name: str):
        """The flavor's checker ``name`` (see :data:`_FLAVORS`), built once."""
        c = self._checkers.get(name)
        if c is None:
            if name not in _FLAVORS[self.flavor].checkers:
                raise ValidationError(f"unknown checker {name!r}")
            build, *args = _FLAVORS[self.flavor].checkers[name]
            c = self._checkers[name] = build(self, *args)
        return c

    # -- builders ---------------------------------------------------------

    def _stages(self):
        return _stages(self.schema, self.ref_base, self.observer)

    def _props(self, target: str, kind: PropertyKind, specs) -> _AllValid:
        ref = self.ref_base if target == "base" else self.ref_derived
        rows = (((guard,), terms) for guard, terms in (_expand(ref, s) for s in specs))
        return _guarded(self.observer, rows, kind.value + "({0[0]}, {0[1]})")

    def _stage_property(self, stage_name: str, kind: PropertyKind) -> _AllValid:
        """``kind`` of every (subject, action) of a stage, up to its agents or actions."""
        stage = self._stages()[stage_name]
        field = _FORMS[kind].field
        sets = {} if field is None else {
            field: stage.subjects if field == "anonymity_set" else stage.actions}
        return self._props(stage.target, kind, [
            PropertySpec(kind, i, a, self.observer, **sets)
            for i in stage.subjects for a in stage.actions])

    def _independence(self, kind: IndependenceKind) -> _AllValid:
        args = (self.ref_base, self.schema, self.observer, kind)
        terms = tuple(_shared((u, p)) for (_, u), (_, p) in _independence_pairs(*args)[1])
        return _AllValid(methodcaller("distributes", self.observer, terms),
                         partial(independence_obligations, *args))

    def _structural(self, kind: StructuralKind) -> _AllValid:
        """Condition ``kind``: of each second-stage action if it is
        exclusive-action, of each first-stage agent if exclusive-agent."""
        stages = self._stages()
        conds = ([StructuralCondition(kind, action=a) for a in stages["post"].actions]
                 if kind is StructuralKind.EXCLUSIVE_ACTION else
                 [StructuralCondition(kind, agent=i) for i in stages["use"].subjects]
                 if kind is StructuralKind.EXCLUSIVE_AGENT else [StructuralCondition(kind)])
        obligations = tuple((cond.label, structural_formula(self.ref_base, self.schema, cond))
                            for cond in conds)
        return _AllValid(methodcaller("holds", conj(f for _, f in obligations)),
                         partial(iter, obligations))

    def _reformulation_equivalence(self):
        """Independence against its guarded reformulation: per (i2, k2, c),
        ``theta(i2, use(k2)) & theta(k2, post(c))`` implies, for every
        first-stage fact x, ``P[j] x -> P[j] (x & theta(k2, post(c)))``."""
        stages = self._stages()
        use, post = stages["use"], stages["post"]
        uses = [(i, a) for i in use.subjects for a in use.actions]
        rows = ((((i2, u), (k2, p)), tuple(_shared(("P->P&", x, (k2, p))) for x in uses))
                for i2 in use.subjects for k2, u in zip(post.subjects, use.actions)
                for p in post.actions)
        return _EquivalenceValid(("independence", "reformulation"), self.checker("independence"),
                                 _guarded(self.observer, rows, "{0[0]},{1[0]},{1[1].param}"))

    def _min_privacy_either(self):
        stages = self._stages()
        a, b = stages["a"], stages["b"]
        return _AnyOfEachValid([
            (f"{i},{pair[0].param}",
             tuple(self._props("base", PropertyKind.MINIMALLY_PRIVATE,
                               [minimally_private(i, act, self.observer)]) for act in pair))
            for i in a.subjects for pair in zip(a.actions, b.actions)])


def _properties(stage: str, *kinds: PropertyKind) -> dict[str, tuple]:
    """The ``<stage>-<property>`` checker of each of ``kinds``."""
    return {f"{stage}-{_FORMS[kind].suffix}": (CheckSuite._stage_property, stage, kind)
            for kind in kinds}


_Flavor = namedtuple("_Flavor", "infer_schema checkers")

#: Each claim flavor, described once: how a system's schema is inferred and
#: every checker it offers, by name, as a :class:`CheckSuite` builder and
#: the builder's arguments.
_FLAVORS = {
    "sequential": _Flavor(
        standard_sequential_schema, {
            "independence": (CheckSuite._independence, IndependenceKind.BASIC),
            "pairwise-independence": (CheckSuite._independence, IndependenceKind.PAIRWISE),
            "disjunctive-independence": (CheckSuite._independence, IndependenceKind.DISJUNCTIVE),
            "posneg-independence": (CheckSuite._independence, IndependenceKind.POS_NEG),
            "negpos-independence": (CheckSuite._independence, IndependenceKind.NEG_POS),
            **_properties("use", PropertyKind.ANONYMOUS_UP_TO, PropertyKind.MAXIMALLY_ONYMOUS,
                          PropertyKind.MINIMALLY_ANONYMOUS, PropertyKind.ROLE_INTERCHANGEABLE),
            **_properties("post", PropertyKind.PRIVATE_UP_TO, PropertyKind.MAXIMALLY_IDENTIFIED,
                          PropertyKind.MINIMALLY_PRIVATE, PropertyKind.ROLE_INTERCHANGEABLE),
            **_properties("submit", PropertyKind.PRIVATE_UP_TO, PropertyKind.ANONYMOUS_UP_TO,
                          PropertyKind.MINIMALLY_PRIVATE, PropertyKind.MINIMALLY_ANONYMOUS,
                          PropertyKind.MAXIMALLY_ONYMOUS, PropertyKind.ROLE_INTERCHANGEABLE),
            "exhaustive-posting": (CheckSuite._structural, StructuralKind.EXHAUSTIVE_POSTING),
            "exhaustive-registration":
                (CheckSuite._structural, StructuralKind.EXHAUSTIVE_REGISTRATION),
            "backward-causality": (CheckSuite._structural, StructuralKind.BACKWARD_CAUSALITY),
            "exclusive-posts": (CheckSuite._structural, StructuralKind.EXCLUSIVE_ACTION),
            "exclusive-agents": (CheckSuite._structural, StructuralKind.EXCLUSIVE_AGENT),
            "independence-reformulation-equivalence": (CheckSuite._reformulation_equivalence,),
        }),
    "parallel": _Flavor(
        standard_parallel_schema, {
            "independence": (CheckSuite._independence, IndependenceKind.PARALLEL),
            **_properties("a", PropertyKind.PRIVATE_UP_TO, PropertyKind.ANONYMOUS_UP_TO),
            **_properties("b", PropertyKind.PRIVATE_UP_TO, PropertyKind.ANONYMOUS_UP_TO),
            **_properties("joint", PropertyKind.PRIVATE_UP_TO, PropertyKind.ANONYMOUS_UP_TO,
                          PropertyKind.MINIMALLY_PRIVATE, PropertyKind.MAXIMALLY_IDENTIFIED),
            "min-privacy-either": (CheckSuite._min_privacy_either,),
            **_properties("ab", PropertyKind.MAXIMALLY_IDENTIFIED),
        }),
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


#: The description of each item of C3.1's report: its hypotheses left
#: after a drop, then its two exposures, each the first failure of a
#: chained property.
_WITNESS_ITEMS = {
    "use-anonymity": "every first-stage fact anonymous up to the first-stage population",
    "post-privacy": "every second-stage fact private up to the second-stage actions",
    "submit-anonymity": "some chained fact not anonymous",
    "submit-privacy": "some chained fact not private",
}


def _claim(claim_id: ClaimId, dropped=(), search: str | None = None) -> ClaimDef:
    """Claim ``claim_id``, checked to have ``dropped`` and, to be searched, refutable."""
    cdef = CLAIMS.get(claim_id)
    if cdef is None:
        raise ValidationError(f"unknown claim {claim_id!r}")
    if search and cdef.witness_only:
        raise ValidationError(f"claim {claim_id} is witness-only; nothing to {search}")
    for name in dropped:
        if name not in cdef.hypotheses:
            raise ValidationError(f"claim {claim_id} has no hypothesis {name!r}")
    return cdef


def check_claim(claim_id: ClaimId, system: InterpretedSystem, *, drop=()) -> ClaimReport:
    """Evaluate one registered claim on one system, for its first observer
    and the schema inferred from its declaration.

    ``drop`` removes hypotheses by name before the verdict is computed,
    which is how hypothesis necessity is probed; a name given twice is
    dropped, and reported, once.  Witness-only claims (C3.1) report
    CONFIRMED when the hypotheses left hold and both exposures occur, and
    VACUOUS otherwise; existence statements cannot be refuted by a single
    system.
    """
    dropped = tuple(dict.fromkeys(drop))
    cdef = _claim(claim_id, dropped)
    if not system.observers:
        raise ValidationError("system declares no observer")
    schema = _FLAVORS[cdef.flavor].infer_schema(system)
    suite = CheckSuite(cdef.flavor, schema, next(iter(system.observers)), system)
    ctx = suite.context(system)
    outcomes = []
    hyps_hold = True
    for name in cdef.hypotheses:
        if name in dropped:
            continue
        checker = suite.checker(name)
        ok = checker.holds(ctx)
        outcomes.append(HypothesisOutcome(name, ok, None if ok else checker.first_failure(ctx)))
        hyps_hold = hyps_hold and ok
    items = ()
    if cdef.witness_only:
        failures = {name: suite.checker(name).first_failure(ctx)
                    for name in ("submit-anonymity", "submit-privacy")}
        exposures = [HypothesisOutcome(name, f is not None, f) for name, f in failures.items()]
        items = tuple((n, _WITNESS_ITEMS[o.name], o.holds, o.detail)
                      for n, o in enumerate(outcomes + exposures, 1))
        conclusion = HypothesisOutcome(cdef.conclusion, all(o.holds for o in exposures))
    else:
        conc = suite.checker(cdef.conclusion)
        conc_ok = conc.holds(ctx)
        conclusion = HypothesisOutcome(cdef.conclusion, conc_ok,
                                       None if conc_ok else conc.first_failure(ctx))
    if not hyps_hold:
        verdict = ClaimVerdict.VACUOUS
    elif conclusion.holds:
        verdict = ClaimVerdict.CONFIRMED
    else:
        verdict = ClaimVerdict.VACUOUS if cdef.witness_only else ClaimVerdict.REFUTED
    return ClaimReport(claim_id, system.name, tuple(outcomes), hyps_hold,
                       conclusion, conclusion.holds, verdict, dropped, items)


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
        if self.flavor not in _FLAVORS:
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
    shape = _shape_of(cfg)
    return shape.system(f"rnd-{cfg.flavor}-{cfg.seed}",
                        *_draw(cfg, random.Random(cfg.seed), shape.bounds))


# ---------------------------------------------------------------------------
# Batches: generated systems decided together


#: Systems decided together, as one bit vector.
_CHUNK = 2048


class _Shape:
    """One generated declaration shape: its facts, its derived facts'
    conjunct pairs (``composition._conjuncts``), which its batches compute
    derived facts from, and its suite.  ``ref`` is the declaration, with
    every fact in its one run, and ``bounds`` are its facts' :func:`_row_bounds`.
    """

    def __init__(self, flavor: str, n_real: int, n_pseudo: int, n_articles: int):
        self.flavor = flavor
        agents, actions, self.facts = _declaration(GenConfig(
            n_real=n_real, n_pseudo=n_pseudo, n_articles=n_articles, flavor=flavor))
        self.bounds = _row_bounds(self.facts)
        self.ref = build_system(name="ref", agents=agents, actions=actions,
                                runs=[("r1", self.facts)], observers={"j": [["r1"]]})
        schema = _FLAVORS[flavor].infer_schema(self.ref)
        self._derived = _conjuncts(self.ref, schema)
        self._suite = CheckSuite(flavor, schema, "j", self.ref)

    def suite(self) -> CheckSuite:
        """The shape's checkers, whose formulas every shape shares."""
        return self._suite

    def system(self, name: str, runs, labels) -> InterpretedSystem:
        """The system ``name`` of one draw (see :func:`_draw`): run ``r{n}``
        holds the facts of mask ``runs[n - 1]`` and lies in block
        ``labels[n - 1]`` of ``j``.

        Skipping :func:`build_system` is safe: ``ref`` passed it with every
        fact in its one run, so agents, roles, actions and every run's facts
        are validated; the run ids are distinct, and the blocks, listed by
        first member, partition them.
        """
        blocks: dict[int, list[str]] = {}
        for n, label in enumerate(labels, start=1):
            blocks.setdefault(label, []).append(f"r{n}")
        columns = _transpose([*runs], len(self.facts))  # a copy: draws are kept
        return InterpretedSystem(
            name, self.ref.agents, self.ref.roles, self.ref.actions,
            tuple(f"r{n}" for n in range(1, len(runs) + 1)),
            {fact: mask for fact, mask in zip(self.facts, columns) if mask},
            {"j": ObserverPartition("j", tuple(map(frozenset, blocks.values())))})

    def batch(self, planes, width: int, slots: int, blocks=None) -> SlotPlanes:
        """``width`` systems of ``slots`` slots: bit ``i * width + s`` of
        ``planes[b]`` is fact ``b`` at slot ``i`` of system ``s``, and
        ``blocks`` are as in :class:`SlotPlanes`.  A fact the declaration
        does not list holds nowhere."""
        return SlotPlanes(dict(zip(self.facts, planes)), width, slots, blocks, self._derived)

    def drawn_batch(self, draws) -> SlotPlanes:
        """The drawn systems (see :func:`_draw`) as one batch, transposed
        slot-major (slot 0 of every system, then slot 1, ...; a shorter system
        repeats its first run): their runs' fact sets give every fact's
        planes, and the masks ``1 << v`` of runs in block ``v`` of ``j`` every block's."""
        slots = max(len(runs) for runs, _ in draws)
        rows = [(runs[i], 1 << labels[i]) if i < len(runs) else (runs[0], 1 << labels[0])
                for i in range(slots) for runs, labels in draws]
        facts, blocks = map(list, zip(*rows))
        return self.batch(_transpose(facts, len(self.facts)), len(draws), slots,
                          _transpose(blocks, max(blocks).bit_length()))


@lru_cache(maxsize=64)
def _shape(flavor: str, n_real: int, n_pseudo: int, n_articles: int) -> _Shape:
    return _Shape(flavor, n_real, n_pseudo, n_articles)


def _shape_of(cfg: GenConfig) -> _Shape:
    """The shape of ``cfg``'s systems; parallel declarations have no pseudonyms."""
    n_pseudo = cfg.n_pseudo if cfg.flavor == "sequential" else 1
    return _shape(cfg.flavor, cfg.n_real, n_pseudo, cfg.n_articles)


# ---------------------------------------------------------------------------
# The exhaustive universe


@lru_cache(maxsize=None)
def _universe_chunks(width: int):
    """(system count, planes) per chunk of :data:`_CHUNK` systems of the
    universe over ``width`` facts: a one-run system per fact set, then a
    two-run system per pair of them, in lexicographic order.  A chunk's
    planes are laid out as :meth:`_Shape.batch` takes them, over two slots
    (a one-run system repeats its run), and come from one grid: the bytes of
    every system's fact set at slot 0, then at slot 1.  So ``width`` is at
    most 8: above, ``bytes`` raises ``ValueError``."""
    sets = range(1 << width)
    slots = [b"".join(bytes(map(itemgetter(min(i, n - 1)), combinations(sets, n))) for n in (1, 2))
             for i in (0, 1)]
    total = len(slots[0])
    return [(min(_CHUNK, total - start),
             _grid_columns(b"".join(slot[start:start + _CHUNK] for slot in slots)[::-1], width))
            for start in range(0, total, _CHUNK)]


@lru_cache(maxsize=None)
def _universe(flavor: str):
    """One flavor's exhaustive universe: the 2/2/2 shape, and its
    :func:`_universe_chunks`, built once per process for both flavors (each
    has 8 facts).  Its systems are the one-run systems ``x{m}``, then
    ``x{a}-{b}`` for every ``a < b``, in one block."""
    shape = _shape(flavor, 2, 2, 2)
    return shape, _universe_chunks(len(shape.facts))


def _universe_system(shape: _Shape, count: int, planes, bit: int) -> InterpretedSystem:
    """System ``bit`` of a universe chunk of ``count`` systems, read back
    from its planes: its runs are the distinct fact sets of its two slots."""
    sets = list(dict.fromkeys(sum((p >> i * count + bit & 1) << b for b, p in enumerate(planes))
                              for i in (0, 1)))
    return shape.system("x" + "-".join(map(str, sets)), sets, [0] * len(sets))


def exhaustive_systems(flavor: str = "sequential"):
    """Every system over the 2/2/2 fact universe with at most two distinct
    runs and a single observer block, in canonical order, each read back
    from the chunk planes :func:`_universe` shares between the flavors."""
    shape, chunks = _universe(flavor)
    for count, planes in chunks:
        yield from map(partial(_universe_system, shape, count, planes), range(count))


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
    """(shape, members) per batch of the (configuration, seed) items of
    ``pool``: the members are (pool index, item) pairs of one shape, of
    either partition policy, at most :data:`_CHUNK` of them, in pool order.
    Once :data:`_MAX_PENDING` items wait, every partial batch is cut."""
    groups: dict[_Shape, list[tuple[int, tuple[GenConfig, int]]]] = {}
    pending = 0
    for idx, item in enumerate(pool):
        shape = _shape_of(item[0])
        group = groups.setdefault(shape, [])
        group.append((idx, item))
        pending += 1
        if len(group) == _CHUNK:
            pending -= _CHUNK
            yield shape, groups.pop(shape)
        elif pending == _MAX_PENDING:
            yield from groups.items()
            groups, pending = {}, 0
    yield from groups.items()


def _batches(flavor: str, pool, exhaustive: bool = True):
    """The systems of one flavor, a batch at a time: the exhaustive
    universe's chunks, unless ``exhaustive`` is false, then the random
    systems of the (configuration, seed) items of ``pool``, batched by shape
    (see :func:`_pool_batches`).  Yields (phase, suite, context, positions,
    system_at) per batch, the phase being ``"exhaustive"`` or ``"random"``:
    bit ``s`` of the context is the system at ``positions[s]`` of this
    stream, and until the next batch is drawn, ``system_at(s)`` builds it."""
    base = 0
    if exhaustive:
        shape, chunks = _universe(flavor)
        for count, planes in chunks:
            yield ("exhaustive", shape.suite(), shape.batch(planes, count, 2),
                   range(base, base + count), partial(_universe_system, shape, count, planes))
            base += count
    for shape, members in _pool_batches(pool):
        draws = [_draw(cfg, random.Random(seed), shape.bounds) for _, (cfg, seed) in members]
        yield ("random", shape.suite(), shape.drawn_batch(draws),
               [base + idx for idx, _ in members],
               lambda bit: shape.system(f"rnd-{flavor}-{members[bit][1][1]}", *draws[bit]))


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
          exhaustive: bool = True) -> SweepReport:
    """Check registered claims over the exhaustive small universe plus a
    seeded random pool (per flavor).  REFUTED entries in the result indicate
    a genuine bug somewhere: the claims are theorems.

    Each flavor's systems come from one batch stream (:func:`_batches`):
    the universe in chunks, then the pool by declaration shape.  Refutations
    and implication violations are listed by system, in universe then pool
    order, and then by claim, implication and hypothesis.
    """
    if n_random < 0:
        raise ValidationError("n_random must be non-negative")
    if claims is None:
        claims = [cid for cid, cdef in CLAIMS.items() if not cdef.witness_only]
    claims = list(dict.fromkeys(claims))  # a repeated id is checked once
    for cid in claims:
        _claim(cid, search="sweep")
    started = time.monotonic()
    stats = {cid: ClaimStats() for cid in claims}
    # The first entries in sweep order, as (position, rank in the system, entry).
    refutations: list = []
    violations: list = []
    n_violations = 0
    systems_checked = dict.fromkeys(_FLAVORS, 0)
    for flavor in _FLAVORS:
        flavor_claims = [cid for cid in claims if CLAIMS[cid].flavor == flavor]
        if not flavor_claims:
            continue
        offset = sum(systems_checked.values())
        pool = ((cfg, cfg.seed) for cfg in _random_pool(flavor, n_random, seed))
        for _, suite, ctx, positions, system_at in _batches(flavor, pool, exhaustive):
            systems_checked[flavor] += ctx.all.bit_count()
            refuted, violated = _sweep_batch(suite, ctx, flavor, flavor_claims, stats)
            n_violations += sum(v.bit_count() for _, v in violated)
            refutations = sorted(refutations + [
                (offset + positions[bit], rank, (cid, system_at(bit)))
                for bit, rank, cid in islice(_in_order(refuted), _MAX_REPORTED)])[:_MAX_REPORTED]
            violations = sorted(violations + [
                (offset + positions[bit], rank,
                 (stronger, weaker, f"{system_at(bit).name}: {name} fails"))
                for bit, rank, (stronger, weaker, name)
                in islice(_in_order(violated), _MAX_REPORTED)])[:_MAX_REPORTED]
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
            drop=()) -> FalsifyResult:
    """Search for a system whose (remaining) hypotheses hold while the
    conclusion fails, along one batch stream (:func:`_batches`): the tiny
    2/2/2 universe (at most two distinct runs, single observer block), then
    ``cfg.budget`` random systems of ``cfg``, seeded from ``cfg.seed``.  The
    first system in search order that refutes the claim is reported, with
    its phase.  With no dropped hypothesis this searches for refutations of
    a theorem and is expected to come back empty.
    """
    dropped = tuple(dict.fromkeys(drop))
    cdef = _claim(claim_id, dropped, "falsify")
    cfg = replace(cfg or GenConfig(), flavor=cdef.flavor)
    hyp_names = [n for n in cdef.hypotheses if n not in dropped]
    rng = random.Random(cfg.seed)
    pool = ((cfg, rng.getrandbits(48)) for _ in range(cfg.budget))
    examined = held = 0
    for phase, suite, ctx, _, system_at in _batches(cdef.flavor, pool):
        h = _held(lambda name: suite.checker(name).holds(ctx), hyp_names, ctx.all)
        bad = h & ~suite.checker(cdef.conclusion).holds(ctx) if h else 0
        if bad:
            first = (bad & -bad).bit_length() - 1
            system = system_at(first)
            report = check_claim(claim_id, system, drop=dropped)
            return FalsifyResult(claim_id, dropped, system, report, examined + first + 1,
                                 held + (h & ((2 << first) - 1)).bit_count(), phase)
        examined += ctx.all.bit_count()
        held += h.bit_count()
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

    # Run r{a * width + b + 1} pairs first mapping a with second mapping b (or
    # its inverse): a use holds on a slice of runs, a post on every width-th.
    firsts = family(perm1)
    seconds = [] if perm2 == "inverse" else family(perm2)
    width = len(seconds) or 1
    ones = b"\1" * width
    columns: dict = defaultdict(partial(bytearray, len(firsts) * width))
    for a, p1 in enumerate(firsts):
        for m, x in p1.items():
            columns[f"in_{m}", Action("use", f"mid_{x}")][a * width:(a + 1) * width] = ones
            if not seconds:
                columns[f"mid_{x}", Action("post", f"out_{m}")][a] = 1
    for b, p2 in enumerate(seconds):
        for x, m in p2.items():
            columns[f"mid_{x}", Action("post", f"out_{m}")][b::width] = b"\1" * len(firsts)

    # Built with every fact in its one run, the declaration is checked.
    ref = build_system(
        name="mixer_chain",
        agents=([(f"in_{m}", "real") for m in msgs] + [(f"mid_{m}", "pseudo") for m in msgs]
                + [("j", "observer")]),
        actions=[f"use(mid_{m})" for m in msgs] + [f"post(out_{m})" for m in msgs],
        runs=[("r1", columns)], observers={"j": [["r1"]]})
    run_ids = tuple(f"r{i}" for i in range(1, len(firsts) * width + 1))
    blocks = [run_ids] if observed_indistinguishability == "single" else zip(run_ids)
    return InterpretedSystem(ref.name, ref.agents, ref.roles, ref.actions, run_ids,
                             {fact: _mask(col) for fact, col in columns.items()},
                             {"j": ObserverPartition("j", tuple(map(frozenset, blocks)))})
