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
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when a system declaration is inconsistent."""


_NAME = r"[A-Za-z_][A-Za-z0-9_-]*"
_NAME_RE = re.compile(_NAME + r"\Z")


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, and restore the caller's state on
    exit.  Builders and loaders run in a pause, as the collector would walk
    their growing per-run lists and blocks again and again; it is safe, as
    they make only acyclic data (strings, tuples, lists, dicts, frozensets,
    int rows)."""
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


#: Per bit position, the table that maps a byte to b"1" where the bit is set, else b"0".
_BIT_DIGITS = [bytes(b"01"[value >> k & 1] for value in range(256)) for k in range(8)]


def _grid_columns(grid, width: int) -> list[int]:
    """The ``width`` columns of ``grid``, rows of ``(width + 7) // 8``
    little-endian bytes, last row first: column ``b`` is bit ``b % 8`` of
    every row's byte ``b // 8``, the last row its most significant bit."""
    size = (width + 7) // 8
    return [int(grid[b // 8::size].translate(_BIT_DIGITS[b % 8]), 2) for b in range(width)]


def _transpose(rows: list[int], width: int) -> list[int]:
    """The ``width`` columns of the int ``rows`` (bit ``s`` of column ``b`` is
    bit ``b`` of ``rows[s]``), emptying ``rows`` 1,024 rows at a time into
    the :func:`_grid_columns` grid."""
    size = (width + 7) // 8
    grid = bytearray()
    while rows:
        grid += b"".join(map(int.to_bytes, reversed(rows[-1024:]), repeat(size), repeat("little")))
        del rows[-1024:]
    return _grid_columns(grid, width)


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
        m = re.fullmatch(rf"({_NAME})(?:\(({_NAME})\))?", text)
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


class _Runs(Sequence):
    """``system.runs``: its length is the number of run ids, and its rows are
    built from the fact columns, all at once, when one is first read."""

    __slots__ = ("_system",)

    def __init__(self, system: InterpretedSystem):
        self._system = system

    def __len__(self) -> int:
        return len(self._system.run_ids)

    def __getitem__(self, index):
        return self._system._rows()[index]


class InterpretedSystem:
    """An immutable interpreted system: run ids, fact columns, partitions.

    Outside input goes through :func:`build_system`, which validates the
    declaration and normalizes input forms.  Derivation (``composition``)
    extends an already validated system with :meth:`_extended`.

    Run masks (see :class:`~anoncheck.formula.Evaluator`) are ints in which
    bit ``i`` stands for ``run_ids[i]``; a fact's column is the mask of the
    runs holding it.  Rows (:class:`Run`) are built from the columns on demand.
    """

    __slots__ = (
        "name", "agents", "roles", "actions", "run_ids", "observers",
        "_action_set", "_run_index", "_blocks", "_holding", "_built",
    )

    def __init__(self, name: str, agents: tuple[str, ...], roles: dict[str, str | None],
                 actions: tuple[Action, ...], run_ids: tuple[str, ...],
                 holding: dict[Fact, int], observers: dict[str, ObserverPartition]):
        self.name = name
        self.agents = agents
        self.roles = roles
        self.actions = actions
        self._action_set = frozenset(actions)
        self.run_ids = run_ids
        self._holding = holding
        self.observers = observers
        self._run_index = {rid: i for i, rid in enumerate(run_ids)}
        # Per observer: each run's block position, in run order.
        self._blocks: dict[str, tuple[int, ...]] = {}
        for obs, part in observers.items():
            numbers = [0] * len(run_ids)
            for bi, block in enumerate(part.blocks):
                for i in map(self._run_index.__getitem__, block):
                    numbers[i] = bi
            self._blocks[obs] = tuple(numbers)
        self._built: tuple[Run, ...] | None = None

    # -- lookups ---------------------------------------------------------

    @property
    def runs(self) -> Sequence[Run]:
        """Every run, in order (see :class:`_Runs`)."""
        return _Runs(self)

    def _rows(self) -> tuple[Run, ...]:
        if self._built is None:
            facts = tuple(self._holding)
            self._built = tuple(map(Run, self.run_ids, map(frozenset, self._spread(facts, facts))))
        return self._built

    def _spread(self, facts, values):
        """Per run, in run order, the ``values`` of the ``facts`` it holds, in
        the order given: run ``i``'s bytes in a grid of the facts' columns
        are every ``n``-th from ``i``."""
        n = len(self.run_ids)
        grid = b"".join(_bits(self._holding.get(fact, 0), n) for fact in facts)
        return map(compress, repeat(values),
                   map(grid.__getitem__, map(slice, range(n), repeat(None), repeat(n))))

    def position(self, run_id: str) -> int:
        """Where the run stands in ``run_ids``."""
        try:
            return self._run_index[run_id]
        except KeyError:
            raise ValidationError(f"unknown run {run_id!r} in system {self.name!r}") from None

    def run(self, run_id: str) -> Run:
        """The run ``run_id``, built from the fact columns."""
        i = self.position(run_id)
        return Run(run_id, frozenset(f for f, mask in self._holding.items() if mask >> i & 1))

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
            raise ValidationError(f"{observer!r} has no declared partition") from None

    def block_index(self, observer: str, run_id: str) -> int:
        try:
            return self._blocks[observer][self._run_index[run_id]]
        except KeyError:
            if observer not in self.observers:
                raise ValidationError(f"{observer!r} has no declared partition") from None
            raise ValidationError(f"unknown run {run_id!r}") from None

    def kernel(self, observer: str, run: Run | str) -> tuple[Run, ...]:
        """All runs the observer cannot distinguish from ``run`` (inclusive),
        in run order."""
        rid = run if isinstance(run, str) else run.run_id
        block = self.block_index(observer, rid)
        return tuple(r for r, b in zip(self.runs, self._blocks[observer]) if b == block)

    def holding(self, fact: Fact) -> int:
        """The runs holding ``fact``, as a run mask: its column."""
        return self._holding.get(fact, 0)

    def _extended(self, actions, columns: dict[Fact, int]) -> InterpretedSystem:
        """This system with ``actions`` appended and the nonzero ``columns``
        of their facts added: it shares the run ids and the partition
        indexes."""
        extended = copy.copy(self)
        extended.actions = self.actions + actions
        extended._action_set = frozenset(extended.actions)
        extended._holding = {**self._holding, **columns}
        extended._built = None
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
            self.run_ids,
            frozenset(self._holding.items()),
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
                f"{len(self.actions)} actions, {len(self.run_ids)} runs)")


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(f"bad {what} name {name!r}")
    return name


def _one_word(name) -> bool:
    """Whether ``name`` is a system name a ``.sys`` ``system NAME`` line holds."""
    return isinstance(name, str) and name.split() == [name] and "#" not in name


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
    # A run is one int row, a bit per fact in the order first met; an
    # unhashable fact (a list) gets a new bit each time.
    run_ids: list[str] = []
    rows: list[int] = []
    bit: dict = {}
    facts: list = []  # by bit
    for run_id, run_facts in runs:
        run_ids.append(run_id)
        row = 0
        for fact in run_facts:
            try:
                row |= bit[fact]
            except (KeyError, TypeError):
                row |= 1 << len(facts)
                with suppress(TypeError):
                    bit[fact] = 1 << len(facts)
                facts.append(fact)
        rows.append(row)
    return _from_rows(name, agents, actions, run_ids, facts, rows, observers)


def _from_rows(name: str, agents, actions, run_ids, facts, rows, observers) -> InterpretedSystem:
    """The validated system of ``run_ids`` whose runs hold the ``facts``
    (raw, in the order first met in the runs) of their int ``rows``: bit
    ``b`` of ``rows[s]`` is ``facts[b]`` in run ``s``.  ``rows`` is emptied
    (see :func:`_transpose`); :func:`build_system` and the text loader both
    come here.  Errors come as a run-by-run walk would meet them: the name,
    agents, actions, then per run its name, a duplicate id and its first bad
    fact, then the partitions.  Raw facts of one checked fact are merged."""
    if not _one_word(name):
        raise ValidationError(f"bad system name {name!r}")
    roles: dict[str, str | None] = {}  # in declaration order
    for entry in agents:
        agent, role = (entry, None) if isinstance(entry, str) else entry
        _check_name(agent, "agent")
        if role is not None and role not in ROLES:
            raise ValidationError(f"unknown role {role!r} for agent {agent!r}")
        if agent in roles:
            raise ValidationError(f"duplicate agent {agent!r}")
        roles[agent] = role
    if not roles:
        raise ValidationError("a system needs at least one agent")

    declared: dict[Action, None] = {}  # in declaration order
    for act in map(_coerce_action, actions):
        if act in declared:
            raise ValidationError(f"duplicate action {act}")
        declared[act] = None

    # Each fact is checked once; the first bad one (whatever it raises) is
    # raised when the walk of run ids below reaches the run it was met in.
    holding: dict[Fact, int] = {}
    error, bad_run = None, -1
    for fact, mask in zip(facts, _transpose(rows, len(facts))):
        first = (mask & -mask).bit_length() - 1
        try:
            agent, act = fact[0], _coerce_action(fact[1] if len(fact) == 2 else fact[1:])
            if agent not in roles:
                raise ValidationError(f"undeclared agent {agent!r} in run {run_ids[first]!r}")
            if act not in declared:
                raise ValidationError(f"undeclared action {act} in run {run_ids[first]!r}")
        except Exception as exc:
            error, bad_run = exc, first
            break
        holding[agent, act] = holding.get((agent, act), 0) | mask
    index: dict[str, int] = {}
    for i, run_id in enumerate(run_ids):
        _check_name(run_id, "run")
        if run_id in index:
            raise ValidationError(f"duplicate run id {run_id!r}")
        index[run_id] = i
        if i == bad_run:
            raise error
    if not index:
        raise ValidationError("a system needs at least one run")

    # A run's byte in `taken` is set once a block of the partition holds it.
    partitions: dict[str, ObserverPartition] = {}
    for obs, blocks in observers.items():
        if obs not in roles:
            raise ValidationError(f"observer {obs!r} is not a declared agent")
        if obs in partitions:
            raise ValidationError(f"duplicate partition for observer {obs!r}")
        taken = bytearray(len(index))
        norm_blocks: list[frozenset[str]] = []
        for block in blocks:
            block = tuple(block)
            if not block:
                raise ValidationError(f"empty indistinguishability block for {obs!r}")
            for rid in block:  # in the order given, so errors name the first
                i = index.get(rid)
                if i is None:
                    raise ValidationError(f"unknown run {rid!r} in partition of {obs!r}")
                if taken[i]:
                    raise ValidationError(f"run {rid!r} appears in two blocks of {obs!r}")
            ids = frozenset(block)
            if len(ids) < len(block):
                rid = Counter(block).most_common(1)[0][0]
                raise ValidationError(f"run {rid!r} appears twice in a block of {obs!r}")
            for i in map(index.__getitem__, block):
                taken[i] = 1
            norm_blocks.append(ids)
        if 0 in taken:
            names = ", ".join(sorted(compress(index, map((0).__eq__, taken))))
            raise ValidationError(f"partition of {obs!r} does not cover runs: {names}")
        # Canonical block order: by first member in run declaration order.
        norm_blocks.sort(key=lambda b: min(map(index.__getitem__, b)))
        partitions[obs] = ObserverPartition(obs, tuple(norm_blocks))
    if not partitions:
        raise ValidationError("a system needs at least one observer partition")

    del index  # the system indexes its run ids itself
    return InterpretedSystem(name, tuple(roles), roles, tuple(declared), tuple(run_ids),
                             holding, partitions)
