"""Finite interpreted systems.

A system is a finite set of runs, each carrying ground facts of the form
"agent performed action", together with one indistinguishability partition
of the runs per observer.  Everything downstream (formula evaluation,
property checking, composition) is defined over this structure.

Facts are run-level: whether agent i performed action a does not change
within a run, so no point-in-time index is kept.
"""
from __future__ import annotations

import copy
import gc
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when a system declaration is inconsistent."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, and restore the caller's state on
    exit.  Bulk builders and loaders run in a pause, as the collector would
    walk their growing data again and again; it is safe, as they make only
    acyclic data (strings, tuples, lists, dicts, frozensets, ``Run``s)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_BITS, _DIGITS = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"\0\1", b"01")


def _bits(mask: int, n: int) -> bytes:
    """One byte per run of ``n``, in run order: 1 where ``mask`` holds."""
    return format(mask, f"0{n}b").encode()[::-1].translate(_BITS)


def _mask(bits) -> int:
    """The run mask of one byte per run, 1 where it holds."""
    return int(bits[::-1].translate(_DIGITS), 2)


#: Roles an agent may be tagged with.  Tags are metadata used by schema
#: inference and the file format; the semantics never depend on them.
ROLES = ("real", "pseudo", "observer")


class Action(NamedTuple):
    """An action family plus one parameter, e.g. use(k1).

    ``param`` is the empty string for parameterless actions, and the empty
    string is reserved: it cannot be used as an explicit parameter name.
    An immutable named tuple, hashed and compared in C, so it equals the
    plain tuple ``(family, param)``; every stored fact holds an ``Action``.
    """

    family: str
    param: str = ""

    def __str__(self) -> str:
        return f"{self.family}({self.param})" if self.param else self.family

    @classmethod
    def parse(cls, text: str) -> "Action":
        text = text.strip()
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_-]*)(?:\(([A-Za-z_][A-Za-z0-9_-]*)\))?", text)
        if not m:
            raise ValidationError(f"malformed action {text!r}")
        return cls(m.group(1), m.group(2) or "")


#: A ground fact: (performing agent, action).
Fact = tuple[str, Action]


@dataclass(frozen=True, slots=True)
class Run:
    """One run: an identifier and the set of facts true in it."""

    run_id: str
    facts: frozenset[Fact]


@dataclass(frozen=True)
class ObserverPartition:
    """An observer's indistinguishability partition over run ids."""

    observer: str
    blocks: tuple[frozenset[str], ...]


def _coerce_action(value) -> Action:
    if isinstance(value, Action):
        return value
    if isinstance(value, str):
        return Action.parse(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Action(str(value[0]), str(value[1]))
    raise ValidationError(f"cannot interpret {value!r} as an action")


class InterpretedSystem:
    """An immutable interpreted system with a partition index per observer.

    Outside input goes through :func:`build_system`, which validates the
    declaration and normalizes input forms.  Derivation (``composition``)
    extends an already validated system with :meth:`_extended`.

    Run masks (see :class:`~anoncheck.formula.Evaluator`) are ints in which
    bit ``i`` stands for ``runs[i]``; the fact index holds each fact's.
    """

    __slots__ = (
        "name", "agents", "roles", "actions", "runs", "observers",
        "_action_set", "_run_index", "_blocks", "_holding",
    )

    def __init__(self, name: str, agents: tuple[str, ...], roles: dict[str, str | None],
                 actions: tuple[Action, ...], runs: tuple[Run, ...],
                 observers: dict[str, ObserverPartition]):
        self.name = name
        self.agents = agents
        self.roles = roles
        self.actions = actions
        self._action_set = frozenset(actions)
        self.runs = runs
        self.observers = observers
        self._run_index = {r.run_id: i for i, r in enumerate(runs)}
        # Per observer: each run's block position, in run order.
        self._blocks: dict[str, tuple[int, ...]] = {}
        for obs, part in observers.items():
            block_of = {rid: bi for bi, block in enumerate(part.blocks) for rid in block}
            self._blocks[obs] = tuple(block_of[r.run_id] for r in runs)
        self._holding: dict[Fact, int] | None = None

    # -- lookups ---------------------------------------------------------

    def position(self, run_id: str) -> int:
        """Where the run stands in ``runs``."""
        try:
            return self._run_index[run_id]
        except KeyError:
            raise ValidationError(f"unknown run {run_id!r} in system {self.name!r}") from None

    def run(self, run_id: str) -> Run:
        return self.runs[self.position(run_id)]

    def has_agent(self, name: str) -> bool:
        return name in self.roles

    def has_action(self, action: Action) -> bool:
        return action in self._action_set

    def agents_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(a for a in self.agents if self.roles.get(a) == role)

    def block_numbers(self, observer: str) -> tuple[int, ...]:
        """Each run's block position in the observer's partition, in run
        order."""
        try:
            return self._blocks[observer]
        except KeyError:
            raise ValidationError(f"{observer!r} is not a declared observer") from None

    def block_index(self, observer: str, run_id: str) -> int:
        try:
            return self._blocks[observer][self._run_index[run_id]]
        except KeyError:
            if observer not in self.observers:
                raise ValidationError(f"{observer!r} is not a declared observer") from None
            raise ValidationError(f"unknown run {run_id!r}") from None

    def kernel(self, observer: str, run: Run | str) -> tuple[Run, ...]:
        """All runs the observer cannot distinguish from ``run`` (inclusive),
        in run order."""
        rid = run if isinstance(run, str) else run.run_id
        block = self.block_index(observer, rid)
        return tuple(r for r, b in zip(self.runs, self._blocks[observer]) if b == block)

    def holding(self, fact: Fact) -> int:
        """The runs holding ``fact``, as a run mask.  The first call indexes
        every fact in one pass over the runs."""
        return self._columns().get(fact, 0)

    def _columns(self) -> dict[Fact, int]:
        """The fact index: each fact that holds somewhere, and its runs."""
        if self._holding is None:
            rows: dict[Fact, bytearray] = defaultdict(partial(bytearray, len(self.runs)))
            for i, run in enumerate(self.runs):
                for fact in run.facts:
                    rows[fact][i] = 1
            self._holding = {fact: _mask(row) for fact, row in rows.items()}
        return self._holding

    def _extended(self, actions, runs, columns: dict[Fact, int]) -> InterpretedSystem:
        """This system with ``actions`` and ``runs``, which keep every run id
        in order and add only facts of ``actions``, with columns ``columns``:
        it shares the run-id and partition indexes, and adds ``columns`` to
        the fact index."""
        extended = copy.copy(self)
        extended.actions = self.actions + actions
        extended._action_set = frozenset(extended.actions)
        extended.runs = runs
        extended._holding = {**self._columns(), **columns}
        return extended

    def holds(self, run: Run | str, agent: str, action: Action | str) -> bool:
        r = self.run(run) if isinstance(run, str) else run
        return (agent, _coerce_action(action)) in r.facts

    # -- equality: structural, ignoring declaration-order differences in the
    # agent/action lists and block ordering, but keeping run order (run order
    # is semantically relevant for counterexample determinism, and two
    # systems that disagree on it are reported unequal).

    def _key(self):
        return (
            frozenset(self.agents),
            frozenset((a, self.roles.get(a)) for a in self.agents),
            frozenset(self.actions),
            tuple((r.run_id, r.facts) for r in self.runs),
            frozenset((obs, frozenset(part.blocks))
                      for obs, part in self.observers.items()),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, InterpretedSystem):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"InterpretedSystem({self.name!r}, {len(self.agents)} agents, "
                f"{len(self.actions)} actions, {len(self.runs)} runs)")


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(f"bad {what} name {name!r}")
    return name


@_gc_paused()
def build_system(*, agents, actions, runs, observers, name: str = "system") -> InterpretedSystem:
    """Validated constructor.

    ``agents``: iterable of names or (name, role) pairs; role in
    :data:`ROLES` or None.
    ``actions``: iterable of :class:`Action`, "family(param)" strings, or
    (family, param) pairs.
    ``runs``: ordered iterable of (run_id, facts) where each fact is
    (agent, action-like).
    ``observers``: mapping observer name -> iterable of blocks, each block an
    iterable of run ids.  Every observer's blocks must partition the full
    run set exactly.
    """
    agent_list: list[str] = []
    roles: dict[str, str | None] = {}
    for entry in agents:
        if isinstance(entry, str):
            agent, role = entry, None
        else:
            agent, role = entry
        _check_name(agent, "agent")
        if role is not None and role not in ROLES:
            raise ValidationError(f"unknown role {role!r} for agent {agent!r}")
        if agent in roles:
            raise ValidationError(f"duplicate agent {agent!r}")
        agent_list.append(agent)
        roles[agent] = role
    if not agent_list:
        raise ValidationError("a system needs at least one agent")

    action_list: list[Action] = []
    action_set: set[Action] = set()
    for entry in actions:
        act = _coerce_action(entry)
        if act in action_set:
            raise ValidationError(f"duplicate action {act}")
        action_list.append(act)
        action_set.add(act)

    def check(fact, run_id: str) -> Fact:
        agent = fact[0]
        act = _coerce_action(fact[1] if len(fact) == 2 else fact[1:])
        if agent not in roles:
            raise ValidationError(f"undeclared agent {agent!r} in run {run_id!r}")
        if act not in action_set:
            raise ValidationError(f"undeclared action {act} in run {run_id!r}")
        return (agent, act)

    # Raw fact -> its validated (agent, Action): each distinct fact is
    # checked once, and every run holding it shares the one tuple.
    table: dict = {}
    run_list: list[Run] = []
    run_ids: set[str] = set()
    for run_id, facts in runs:
        _check_name(run_id, "run")
        if run_id in run_ids:
            raise ValidationError(f"duplicate run id {run_id!r}")
        run_ids.add(run_id)
        facts = tuple(facts)
        try:
            norm = frozenset(map(table.__getitem__, facts))
        except (KeyError, TypeError):  # a new fact, or an unhashable one (a list)
            norm = set()
            for fact in facts:
                try:
                    norm.add(table[fact])
                except KeyError:
                    norm.add(table.setdefault(fact, check(fact, run_id)))
                except TypeError:
                    norm.add(check(fact, run_id))
        run_list.append(Run(run_id, frozenset(norm)))
    if not run_list:
        raise ValidationError("a system needs at least one run")

    partitions: dict[str, ObserverPartition] = {}
    order = {rid: i for i, rid in enumerate(r.run_id for r in run_list)}
    for obs, blocks in observers.items():
        if obs not in roles:
            raise ValidationError(f"observer {obs!r} is not a declared agent")
        if obs in partitions:
            raise ValidationError(f"duplicate partition for observer {obs!r}")
        seen: set[str] = set()
        norm_blocks: list[frozenset[str]] = []
        for block in blocks:
            block = tuple(block)
            ids = frozenset(block)
            if not ids:
                raise ValidationError(f"empty indistinguishability block for {obs!r}")
            for rid in block:  # in the order given, so errors name the first
                if rid not in run_ids:
                    raise ValidationError(f"unknown run {rid!r} in partition of {obs!r}")
                if rid in seen:
                    raise ValidationError(f"run {rid!r} appears in two blocks of {obs!r}")
            if len(ids) < len(block):
                rid = Counter(block).most_common(1)[0][0]
                raise ValidationError(f"run {rid!r} appears twice in a block of {obs!r}")
            seen |= ids
            norm_blocks.append(ids)
        missing = run_ids - seen
        if missing:
            names = ", ".join(sorted(missing))
            raise ValidationError(f"partition of {obs!r} does not cover runs: {names}")
        # Canonical block order: by first member in run declaration order.
        norm_blocks.sort(key=lambda b: min(order[rid] for rid in b))
        partitions[obs] = ObserverPartition(obs, tuple(norm_blocks))
    if not partitions:
        raise ValidationError("a system needs at least one observer partition")

    return InterpretedSystem(name, tuple(agent_list), roles, tuple(action_list),
                             tuple(run_list), partitions)

