"""Composing action stages and the conditions that make composition safe.

Sequential composition chains a registration-style stage (agents perform
``first_family`` actions whose parameters name intermediary agents) with a
second stage performed by those intermediaries.  The derived fact
theta(x, derived(c)) is defined by

    theta(x, derived(c))  iff  OR over k in first_params of
                               theta(x, first(k)) and theta(k, second(c))

Parallel composition conjoins two families over a shared parameter set:

    theta(x, derived(c))  iff  theta(x, family_a(c)) and theta(x, family_b(c))

Derivation adds facts and actions only; runs keep their identities and all
observer partitions are shared unchanged, so formulas over pre-existing
atoms keep their truth values.  Both definitions are Boolean combinations
of base facts, so a derived fact's runs come from their run masks.

A stage's facts are its subjects performing its actions.  One table,
:func:`_stages`, gives each flavor's stages, and every builder of stage
facts reads it: independence obligations, structural formulas and the
claim checkers of ``scenarios``.

Independence checks ask the observer's possibility operator to distribute
over conjunctions of stage facts: every variant instantiates the one schema
P[j] u & P[j] p -> P[j] (u & p), with u and p single, negated, paired or
disjoined facts of the two stages, and checks it on every run.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, combinations_with_replacement, product

from .formula import (And, Atom, Evaluator, Formula, Implies, Not, Poss,
                      _derived_mask, conj, disj, render)
from .properties import PropertyReport
from .system import Action, Fact, InterpretedSystem, ValidationError


@dataclass(frozen=True)
class SequentialSchema:
    """Declares a two-stage chain inside one system.

    ``first_agents``: the population performing first-stage actions (I_R).
    ``first_params``: intermediary agents; each must be a declared agent and
    names both the parameter of a first-stage action and the performer of
    second-stage actions (I_P).
    ``second_params``: parameters of the second stage (C).
    ``derived_family`` must not collide with any declared action family.
    """

    first_family: str
    first_agents: tuple[str, ...]
    first_params: tuple[str, ...]
    second_family: str
    second_params: tuple[str, ...]
    derived_family: str

    @property
    def first_actions(self) -> tuple[Action, ...]:
        return tuple(Action(self.first_family, k) for k in self.first_params)

    @property
    def second_actions(self) -> tuple[Action, ...]:
        return tuple(Action(self.second_family, c) for c in self.second_params)

    @property
    def derived_actions(self) -> tuple[Action, ...]:
        return tuple(Action(self.derived_family, c) for c in self.second_params)


@dataclass(frozen=True)
class ParallelSchema:
    """Declares two action families performed jointly over shared parameters."""

    family_a: str
    family_b: str
    derived_family: str
    params: tuple[str, ...]

    @property
    def actions_a(self) -> tuple[Action, ...]:
        return tuple(Action(self.family_a, c) for c in self.params)

    @property
    def actions_b(self) -> tuple[Action, ...]:
        return tuple(Action(self.family_b, c) for c in self.params)

    @property
    def derived_actions(self) -> tuple[Action, ...]:
        return tuple(Action(self.derived_family, c) for c in self.params)


class IndependenceKind(Enum):
    BASIC = "basic"
    PAIRWISE = "pairwise"
    DISJUNCTIVE = "disjunctive"
    POS_NEG = "posneg"
    NEG_POS = "negpos"
    PARALLEL = "parallel"


class StructuralKind(Enum):
    EXCLUSIVE_ACTION = "exclusive-action"
    EXCLUSIVE_AGENT = "exclusive-agent"
    EXHAUSTIVE_POSTING = "exhaustive-posting"
    EXHAUSTIVE_REGISTRATION = "exhaustive-registration"
    BACKWARD_CAUSALITY = "backward-causality"
    FORWARD_CAUSALITY = "forward-causality"


@dataclass(frozen=True)
class StructuralCondition:
    """A fact-level (modality-free) side condition of a schema.

    ``action`` is required for EXCLUSIVE_ACTION (the action performed by at
    most one candidate performer per run); ``agent`` for EXCLUSIVE_AGENT
    (the agent performing at most one action of ``family`` per run, where
    ``family`` defaults to the schema's first stage).
    """

    kind: StructuralKind
    action: Action | None = None
    agent: str | None = None
    family: str | None = None

    @property
    def label(self) -> str:
        """The kind with each given argument in brackets, e.g.
        ``exclusive-agent[i1]``."""
        return self.kind.value + "".join(
            f"[{arg}]" for arg in (self.action, self.agent, self.family) if arg is not None)


# ---------------------------------------------------------------------------
# Schema validation and derivation


def _validate(system: InterpretedSystem, schema: SequentialSchema | ParallelSchema) -> None:
    """Every agent and action that ``schema`` names is declared."""
    if isinstance(schema, ParallelSchema):
        for c in schema.params:
            for fam in (schema.family_a, schema.family_b):
                if not system.has_action(Action(fam, c)):
                    raise ValidationError(f"undeclared action {Action(fam, c)}")
        return
    for i in schema.first_agents:
        if not system.has_agent(i):
            raise ValidationError(f"schema first-stage agent {i!r} is not declared")
    for k in schema.first_params:
        if not system.has_agent(k):
            raise ValidationError(
                f"schema intermediary {k!r} must be a declared agent "
                f"(it performs {schema.second_family} actions)")
        if not system.has_action(Action(schema.first_family, k)):
            raise ValidationError(f"undeclared action {Action(schema.first_family, k)}")
    for c in schema.second_params:
        if not system.has_action(Action(schema.second_family, c)):
            raise ValidationError(f"undeclared action {Action(schema.second_family, c)}")


def _require_fresh(system: InterpretedSystem, schema) -> None:
    """The derived actions must be undeclared and pairwise distinct."""
    if any(a.family == schema.derived_family for a in system.actions):
        raise ValidationError(f"derived family {schema.derived_family!r} already declared")
    actions = schema.derived_actions
    for n, action in enumerate(actions):
        if action in actions[:n]:
            raise ValidationError(f"duplicate action {action}")


def _conjuncts(system: InterpretedSystem, schema) -> dict[Fact, tuple]:
    """Each derived fact, any declared agent performing it, and its conjunct
    pairs (see the module docstring): it holds where some pair both hold."""
    if isinstance(schema, SequentialSchema):
        firsts = tuple(zip(schema.first_params, schema.first_actions))
        return {(x, d): tuple(((x, u), (k, p)) for k, u in firsts)
                for x in system.agents
                for p, d in zip(schema.second_actions, schema.derived_actions)}
    return {(x, d): (((x, a), (x, b)),)
            for x in system.agents
            for a, b, d in zip(schema.actions_a, schema.actions_b, schema.derived_actions)}


def derive_sequential(system: InterpretedSystem,
                      schema: SequentialSchema | ParallelSchema) -> InterpretedSystem:
    """``system`` plus the schema's derived actions and facts, of either
    flavor: a derived fact's column is :func:`~anoncheck.formula._derived_mask`
    of its :func:`_conjuncts` pairs.  ``derive_parallel`` is this same
    function.  The sequential disjunction ranges over the declared
    intermediaries, and both apply to every declared agent in performer
    position.

    Skipping :func:`build_system` is safe: ``system`` passed it, run ids and
    partitions are kept, every new fact's performer is declared, and
    :func:`_require_fresh` makes the appended actions new and distinct."""
    _validate(system, schema)
    _require_fresh(system, schema)
    columns = {}
    for fact, pairs in _conjuncts(system, schema).items():
        mask = _derived_mask(system.holding, pairs)
        if mask:
            columns[fact] = mask
    return system._extended(schema.derived_actions, columns)


derive_parallel = derive_sequential


# ---------------------------------------------------------------------------
# Stages


def parallel_subjects(system: InterpretedSystem, observer: str) -> tuple[str, ...]:
    """The agent population parallel-composition statements quantify over:
    agents tagged ``real`` when any are, else every non-observer agent."""
    return system.agents_with_role("real") or tuple(
        a for a in system.agents if a != observer and system.roles.get(a) != "observer")


#: One stage: the reference system its facts are read on (``base`` or
#: ``derived``), the agents its facts are stated of (anonymity is up to
#: them), and its actions (privacy and role interchangeability are up to them).
_Stage = namedtuple("_Stage", "target subjects actions")


def _stages(schema: SequentialSchema | ParallelSchema, system: InterpretedSystem,
            observer: str | None) -> dict[str, _Stage]:
    """The stages of ``schema``, by name: ``use``, ``post`` and ``submit``
    of a sequential one; ``a``, ``b``, ``ab`` (each a action, then its b
    action) and ``joint`` of a parallel one, whose subjects are
    :func:`parallel_subjects` (the only use of ``system`` and ``observer``)."""
    if isinstance(schema, SequentialSchema):
        return {"use": _Stage("base", schema.first_agents, schema.first_actions),
                "post": _Stage("base", schema.first_params, schema.second_actions),
                "submit": _Stage("derived", schema.first_agents, schema.derived_actions)}
    subjects = parallel_subjects(system, observer)
    pairs = chain.from_iterable(zip(schema.actions_a, schema.actions_b))
    return {"a": _Stage("base", subjects, schema.actions_a),
            "b": _Stage("base", subjects, schema.actions_b),
            "ab": _Stage("base", subjects, tuple(pairs)),
            "joint": _Stage("derived", subjects, schema.derived_actions)}


# ---------------------------------------------------------------------------
# Independence


def _distributes(j: str, u: Formula, p: Formula) -> Formula:
    """``P[j] u & P[j] p -> P[j] (u & p)``: what the observer considers
    possible of each stage alone, it considers possible together."""
    return Implies(And(Poss(j, u), Poss(j, p)), Poss(j, And(u, p)))


#: Single-fact sequential variants: whether the first and the second stage's
#: fact is negated.
_NEGATED = {
    IndependenceKind.BASIC: (False, False),
    IndependenceKind.POS_NEG: (False, True),
    IndependenceKind.NEG_POS: (True, False),
}


def _sequential_terms(kind: IndependenceKind, stages, bound: int):
    """The label separator and, per stage, the (label, term) list a
    sequential variant ranges over; ``stages`` holds each stage's
    (label, atom) facts."""
    if kind in _NEGATED:
        return ",", [[("!" + label, Not(atom)) if negate else (label, atom)
                      for label, atom in facts]
                     for facts, negate in zip(stages, _NEGATED[kind])]
    if kind is IndependenceKind.PAIRWISE:
        return ";", [[(f"{l1}+{l2}", And(a1, a2))
                      for (l1, a1), (l2, a2) in combinations_with_replacement(facts, 2)]
                     for facts in stages]
    if bound < 1:  # DISJUNCTIVE: _independence_pairs passes no other kind
        raise ValidationError("disjunct bound must be at least 1")
    return ";", [[("|".join(label for label, _ in group), disj(a for _, a in group))
                  for n in range(1, min(bound, len(facts)) + 1)
                  for group in combinations(facts, n)]
                 for facts in stages]


def _independence_pairs(system: InterpretedSystem,
                        schema: SequentialSchema | ParallelSchema,
                        observer: str, kind: IndependenceKind, bound: int = 2):
    """The label separator and, per instantiation of
    :func:`independence_obligations` in its order, the ((label, u),
    (label, p)) stage terms, whose labels the separator joins."""
    if not isinstance(kind, IndependenceKind):
        raise ValidationError(f"unknown independence kind {kind!r}")
    if kind is IndependenceKind.PARALLEL:
        if not isinstance(schema, ParallelSchema):
            raise ValidationError("parallel independence needs a ParallelSchema")
        stages = _stages(schema, system, observer)
        a, b = stages["a"], stages["b"]
        return ",", [((i, Atom(i, u)), (v.param, Atom(i, v)))
                     for i in a.subjects for u, v in zip(a.actions, b.actions)]

    if not isinstance(schema, SequentialSchema):
        raise ValidationError(f"{kind.value} independence needs a SequentialSchema")
    stages = _stages(schema, system, observer)
    facts = [[(f"{i},{act.param}", Atom(i, act)) for i in stage.subjects for act in stage.actions]
             for stage in (stages["use"], stages["post"])]
    sep, (firsts, seconds) = _sequential_terms(kind, facts, bound)
    return sep, product(firsts, seconds)


def independence_obligations(system: InterpretedSystem,
                             schema: SequentialSchema | ParallelSchema,
                             observer: str, kind: IndependenceKind, bound: int = 2):
    """Yield (label, formula) per instantiation, in canonical order.

    Canonical order enumerates agents and parameters in schema declaration
    order; paired variants enumerate unordered fact pairs (combinations with
    replacement) because conjunction order is immaterial.
    """
    sep, pairs = _independence_pairs(system, schema, observer, kind, bound)
    for (first_label, u), (second_label, p) in pairs:
        yield f"{first_label}{sep}{second_label}", _distributes(observer, u, p)


def _first_failure(ev: Evaluator, obligations) -> tuple[str, str] | None:
    """(first failing run, label) of the first (label, formula) obligation
    that is not valid on ``ev``'s system, or None if all are."""
    for label, f in obligations:
        run_id = ev.valid(f).counterexample
        if run_id is not None:
            return run_id, label
    return None


def _report(system: InterpretedSystem, name: str, witness: Formula,
            obligations) -> PropertyReport:
    """Report ``name`` as failing at the first (label, formula) obligation
    that is not valid, with its first failing run; else as holding."""
    failure = _first_failure(Evaluator(system), obligations)
    return PropertyReport(name, failure is None, witness, failure)


def check_independence(system: InterpretedSystem,
                       observer: str,
                       schema: SequentialSchema | ParallelSchema,
                       kind: IndependenceKind = IndependenceKind.BASIC,
                       bound: int = 2) -> PropertyReport:
    """Check one independence variant; the counterexample names the first
    failing instantiation (canonical order) and the first failing run."""
    _validate(system, schema)
    if observer not in system.observers:
        raise ValidationError(f"{observer!r} has no declared partition")
    parts = list(independence_obligations(system, schema, observer, kind, bound))
    return _report(system, f"independence[{kind.value}] for {observer}",
                   conj(f for _, f in parts), parts)


# ---------------------------------------------------------------------------
# Structural conditions


def structural_formula(system: InterpretedSystem,
                       schema: SequentialSchema,
                       cond: StructuralCondition) -> Formula:
    """Compile a structural condition to a modality-free formula over the
    facts of the schema's stages (:func:`_stages`)."""
    if not isinstance(cond, StructuralCondition):
        raise ValidationError(f"unknown structural condition {cond!r}")
    kind = cond.kind
    if not isinstance(kind, StructuralKind):
        raise ValidationError(f"unknown structural kind {kind!r}")
    if not isinstance(schema, SequentialSchema):
        raise ValidationError(f"{kind.value} needs a SequentialSchema")
    stages = _stages(schema, system, None)
    use, post = stages["use"], stages["post"]
    if kind is StructuralKind.EXCLUSIVE_ACTION:
        if cond.action is None:
            raise ValidationError("exclusive-action needs an action")
        if not system.has_action(cond.action):
            raise ValidationError(f"undeclared action {cond.action}")
        family = cond.action.family
        performers = (post.subjects if family == schema.second_family else
                      use.subjects if family == schema.first_family else system.agents)
        return conj(Not(And(Atom(x, cond.action), Atom(y, cond.action)))
                    for x, y in combinations(performers, 2))
    if kind is StructuralKind.EXCLUSIVE_AGENT:
        if cond.agent is None:
            raise ValidationError("exclusive-agent needs an agent")
        if not system.has_agent(cond.agent):
            raise ValidationError(f"undeclared agent {cond.agent!r}")
        family = cond.family or schema.first_family
        if family == schema.first_family:
            acts = use.actions
        elif family == schema.second_family:
            acts = post.actions
        else:
            acts = tuple(a for a in system.actions if a.family == family)
            if not acts:
                raise ValidationError(f"no declared actions in family {family!r}")
        return conj(Not(And(Atom(cond.agent, a), Atom(cond.agent, b)))
                    for a, b in combinations(acts, 2))
    links = tuple(zip(post.subjects, use.actions))  # each intermediary k and use(k)
    if kind is StructuralKind.EXHAUSTIVE_POSTING:
        return conj(disj(Atom(k, p) for k in post.subjects) for p in post.actions)
    if kind is StructuralKind.EXHAUSTIVE_REGISTRATION:
        return conj(disj(Atom(i, u) for u in use.actions) for i in use.subjects)
    if kind is StructuralKind.BACKWARD_CAUSALITY:
        return conj(Implies(Atom(k, p), disj(Atom(i, u) for i in use.subjects))
                    for k, u in links for p in post.actions)
    return conj(Implies(Atom(i, u), disj(Atom(k, p) for p in post.actions))
                for i in use.subjects for k, u in links)


def check_structural(system: InterpretedSystem,
                     schema: SequentialSchema,
                     cond: StructuralCondition) -> PropertyReport:
    _validate(system, schema)
    f = structural_formula(system, schema, cond)
    return _report(system, cond.label, f, [(render(f), f)])
