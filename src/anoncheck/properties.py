"""Anonymity-family properties compiled to epistemic formulas.

Every property is an implication guarded by the fact under scrutiny: a
property of (subject, action) holds vacuously in systems where the subject
never performs the action.  A kind's forms live in one table,
:data:`_FORMS`: its ``check`` word, its claim checkers' suffix and the set
it takes.  A property's one source of truth is its expansion
(:func:`_expand`): its guard fact and its conjuncts as fact terms
(:data:`~anoncheck.formula._TERMS`), ``P f``, ``P !f``, ``K f`` or
``g -> P(x & y)``.  :func:`compile_property` builds the formula from it,
and the claim checkers decide it with no formula built
(:meth:`~anoncheck.formula._Vectors.guarded`).  :func:`check_property`
finds the first run where the whole formula fails, then the first conjunct
that fails there.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .formula import (Atom, Evaluator, Formula, Implies, _guarded_formula,
                      _shared, _term_formula, conj, render)
from .system import Action, Fact, InterpretedSystem, ValidationError, _coerce_action


class PropertyKind(Enum):
    ANONYMOUS_UP_TO = "anonymous-up-to"
    MINIMALLY_ANONYMOUS = "minimally-anonymous"
    PRIVATE_UP_TO = "private-up-to"
    MINIMALLY_PRIVATE = "minimally-private"
    ROLE_INTERCHANGEABLE = "role-interchangeable"
    MAXIMALLY_ONYMOUS = "maximally-onymous"
    MAXIMALLY_IDENTIFIED = "maximally-identified"


class _Form(NamedTuple):
    word: str  # the ``check`` surface word, ``word(subject, action, [set,] observer)``
    suffix: str  # of the claim checkers ``<stage>-<suffix>``
    field: str | None  # the set field the kind takes
    required: bool  # whether that field must be given


#: Every form of each kind, written once: the ``check`` parser, the
#: ``<stage>-<property>`` claim checkers and :class:`PropertySpec` read it.
_FORMS = {
    PropertyKind.ANONYMOUS_UP_TO: _Form("anon-upto", "anonymity", "anonymity_set", True),
    PropertyKind.MINIMALLY_ANONYMOUS: _Form("min-anon", "min-anonymity", None, False),
    PropertyKind.PRIVATE_UP_TO: _Form("priv-upto", "privacy", "privacy_set", True),
    PropertyKind.MINIMALLY_PRIVATE: _Form("min-priv", "min-privacy", None, False),
    PropertyKind.ROLE_INTERCHANGEABLE: _Form("role-int", "role-interchangeability",
                                             "action_universe", False),
    PropertyKind.MAXIMALLY_ONYMOUS: _Form("max-onym", "onymity", None, False),
    PropertyKind.MAXIMALLY_IDENTIFIED: _Form("max-ident", "identity", None, False),
}
_SET_FIELDS = ("anonymity_set", "privacy_set", "action_universe")


@dataclass(frozen=True)
class PropertySpec:
    """What to check: a kind, the scrutinized (subject, action), the observer,
    and the set the kind takes (:data:`_FORMS`): ``anonymity_set``, the
    candidate performers, ``privacy_set``, the candidate actions, or
    ``action_universe``, which defaults to all declared actions.  A set
    field that the kind does not take must be left unset.  Actions may be
    given as :class:`Action`, ``(family, param)`` or text such as
    ``"use(k1)"``, as :func:`build_system` takes them.
    """

    kind: PropertyKind
    subject: str
    action: Action
    observer: str
    anonymity_set: tuple[str, ...] | None = None
    privacy_set: tuple[Action, ...] | None = None
    action_universe: tuple[Action, ...] | None = None

    def __post_init__(self):
        form = _FORMS.get(self.kind)
        if form is None:
            raise ValidationError(f"unknown property kind {self.kind!r}")
        object.__setattr__(self, "action", _coerce_action(self.action))
        for field in _SET_FIELDS:
            value = getattr(self, field)
            if value is None:
                if field == form.field and form.required:
                    raise ValidationError(f"{self.kind.value} needs {field}")
            elif field != form.field:
                raise ValidationError(f"{self.kind.value} does not take {field}")
            else:
                value = tuple(value if field == "anonymity_set" else map(_coerce_action, value))
                object.__setattr__(self, field, value)


@dataclass(frozen=True)
class PropertyReport:
    #: The checked PropertySpec, or a descriptive label for non-property
    #: checks (independence variants, structural conditions) that reuse
    #: this report shape.
    spec: "PropertySpec | str"
    holds: bool
    witness_formula: Formula
    #: (run id, failing conjunct description) for the first failing run in
    #: declaration order and the first failing conjunct in expansion order.
    counterexample: tuple[str, str] | None


def _ordered(declared: tuple, given, what: str, show=repr) -> tuple:
    """``given`` in declaration order; an undeclared one is an error, the
    first in the order given."""
    for x in given:
        if x not in declared:
            raise ValidationError(f"undeclared {what} {show(x)} in property universe")
    return tuple(filter(set(given).__contains__, declared))


def _expand(system: InterpretedSystem, spec: PropertySpec) -> tuple[Fact, tuple]:
    """The guard fact and the fact terms of ``spec``, in fixed expansion
    order: agents first, then actions, each in system declaration order."""
    kind = spec.kind
    subject, action, j = spec.subject, spec.action, spec.observer
    if not system.has_agent(subject):
        raise ValidationError(f"undeclared agent {subject!r}")
    if not system.has_action(action):
        raise ValidationError(f"undeclared action {action}")
    if j not in system.observers:
        raise ValidationError(f"{j!r} has no declared partition")

    guard = (subject, action)
    if kind is PropertyKind.ANONYMOUS_UP_TO:
        terms = [("P", (i2, action))
                 for i2 in _ordered(system.agents, spec.anonymity_set, "agent")]
    elif kind is PropertyKind.PRIVATE_UP_TO:
        terms = [("P", (subject, a2))
                 for a2 in _ordered(system.actions, spec.privacy_set, "action", str)]
    elif kind in (PropertyKind.MINIMALLY_ANONYMOUS, PropertyKind.MINIMALLY_PRIVATE):
        terms = [("P!", guard)]
    elif kind in (PropertyKind.MAXIMALLY_ONYMOUS, PropertyKind.MAXIMALLY_IDENTIFIED):
        terms = [("K", guard)]
    else:  # role interchangeability
        universe = (system.actions if spec.action_universe is None
                    else _ordered(system.actions, spec.action_universe, "action", str))
        terms = [("->P&", (i2, a2), (i2, action), (subject, a2))
                 for i2 in system.agents if i2 != j for a2 in universe]
    return guard, tuple(map(_shared, terms))


def _conjuncts(system: InterpretedSystem, spec: PropertySpec) -> list[tuple[str, Formula]]:
    """(description, formula) per term of the expansion: the agent or the
    action a candidate names, ``i2:a2`` for role interchangeability, else
    the rendered formula."""
    kind, j = spec.kind, spec.observer
    out = []
    for term in _expand(system, spec)[1]:
        f = _term_formula(j, term)
        if kind is PropertyKind.ANONYMOUS_UP_TO:
            desc = term[1][0]
        elif kind is PropertyKind.PRIVATE_UP_TO:
            desc = str(term[1][1])
        elif kind is PropertyKind.ROLE_INTERCHANGEABLE:
            desc = "{}:{}".format(*term[1])
        else:
            desc = render(f)
        out.append((desc, f))
    return out


def compile_property(system: InterpretedSystem, spec: PropertySpec) -> Formula:
    """The property as one formula: theta(subject, action) -> conjunction."""
    guard, terms = _expand(system, spec)
    return _guarded_formula(spec.observer, (guard,), terms)


def check_property(system: InterpretedSystem, spec: PropertySpec) -> PropertyReport:
    """Check the property at every run.

    The report names the first failing run (declaration order) and, inside
    it, the first failing conjunct (agents before actions, declaration
    order).  ``holds`` always agrees with ``valid(system, witness_formula)``,
    the formula :func:`compile_property` builds.
    """
    parts = _conjuncts(system, spec)
    witness = Implies(Atom(spec.subject, spec.action), conj(f for _, f in parts))
    ev = Evaluator(system)
    verdict = ev.valid(witness)
    if verdict.holds:
        return PropertyReport(spec, True, witness, None)
    run_id = verdict.counterexample
    desc = next(desc for desc, f in parts if not ev.evaluate(f, run_id))
    return PropertyReport(spec, False, witness, (run_id, desc))


# -- convenience constructors ------------------------------------------------


def anonymous_up_to(subject: str, action: Action, candidates, observer: str) -> PropertySpec:
    return PropertySpec(PropertyKind.ANONYMOUS_UP_TO, subject, action, observer,
                        anonymity_set=tuple(candidates))


def minimally_anonymous(subject: str, action: Action, observer: str) -> PropertySpec:
    return PropertySpec(PropertyKind.MINIMALLY_ANONYMOUS, subject, action, observer)


def private_up_to(subject: str, action: Action, candidates, observer: str) -> PropertySpec:
    return PropertySpec(PropertyKind.PRIVATE_UP_TO, subject, action, observer,
                        privacy_set=tuple(candidates))


def minimally_private(subject: str, action: Action, observer: str) -> PropertySpec:
    return PropertySpec(PropertyKind.MINIMALLY_PRIVATE, subject, action, observer)


def role_interchangeable(subject: str, action: Action, observer: str,
                         action_universe=None) -> PropertySpec:
    universe = None if action_universe is None else tuple(action_universe)
    return PropertySpec(PropertyKind.ROLE_INTERCHANGEABLE, subject, action, observer,
                        action_universe=universe)


def maximally_onymous(subject: str, action: Action, observer: str) -> PropertySpec:
    return PropertySpec(PropertyKind.MAXIMALLY_ONYMOUS, subject, action, observer)


def maximally_identified(subject: str, action: Action, observer: str) -> PropertySpec:
    return PropertySpec(PropertyKind.MAXIMALLY_IDENTIFIED, subject, action, observer)
