"""Epistemic formulas over interpreted systems.

Grammar (ASCII concrete syntax, whitespace-insensitive)::

    atom ::= "theta(" name "," name "(" name ")" ")"
           | "theta(" name "," name ")"
    f    ::= atom | "true" | "false" | "!" f | f "&" f | f "|" f
           | f "->" f | f "<->" f | "K[" name "]" f | "P[" name "]" f
           | "(" f ")"

Precedence, tightest first: ! (and the modalities K[..] / P[..]), &, |,
->, <->.  & and | associate to the left, -> and <-> to the right.  One
table, ``_PREC``, holds this order for both :func:`parse` and
:func:`render`, and neither recurses, so formulas of any depth round-trip.

K[j] f holds at a run iff f holds at every run j cannot distinguish from
it; P[j] f iff f holds at some such run.  Facts are run-level, so no time
index appears in the semantics.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress

from .system import Action, InterpretedSystem, Run, ValidationError, _bits, _mask


# ---------------------------------------------------------------------------
# AST


#: Every formula node built in this process, by ``(type, *fields)``.
_NODES: dict[tuple, Formula] = {}

_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Formula:
    """Base class; all nodes are immutable and hash-consed.

    Constructing a node equal to one already built returns that one, so
    structurally equal formulas are one object, and ``==`` and ``hash``
    are identity.  The node table lives as long as the process.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named):
        names = cls.__slots__
        if named:  # a field left out, given twice or unknown fails the check below
            fields += tuple(named.pop(name) for name in names[len(fields):] if name in named)
        if named or len(fields) != len(names):
            raise TypeError(f"{cls.__name__} takes the fields ({', '.join(names)})")
        key = (cls, *fields)  # children are canonical, so they hash by identity
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(names, fields):
                object.__setattr__(node, name, value)
            node = _NODES.setdefault(key, node)
        return node

    def __reduce__(self):
        # Every distinct node once, in post-order, a child as its row number
        # (an int; no other field is one): pickling does not recurse.
        rows: dict[Formula, int] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            todo = [v for v in map(node.__getattribute__, node.__slots__)
                    if isinstance(v, Formula) and v not in rows]
            if todo:
                stack += [node, *todo]
            else:
                rows.setdefault(node, len(rows))
        table = tuple((type(n), *(rows.get(v, v) for v in map(n.__getattribute__, n.__slots__)))
                      for n in rows)
        return _rebuild, (table,)

    def __copy__(self):  # a node is immutable and canonical: its own copy
        return self

    def __deepcopy__(self, memo):
        return self


def _rebuild(table) -> Formula:
    """The last node of a :meth:`Formula.__reduce__` table."""
    nodes: list[Formula] = []
    for cls, *fields in table:
        nodes.append(cls(*(nodes[v] if type(v) is int else v for v in fields)))
    return nodes[-1]


@_node
class Atom(Formula):
    __slots__ = ("agent", "action")
    agent: str
    action: Action

    def __new__(cls, agent, action):
        if not isinstance(action, Action):  # a tuple would become every equal atom's node
            raise TypeError(f"an atom's action must be an Action, not {action!r}")
        return super().__new__(cls, agent, action)


@_node
class Const(Formula):
    __slots__ = ("value",)
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@_node
class Not(Formula):
    __slots__ = ("child",)
    child: Formula


@_node
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@_node
class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@_node
class Knows(Formula):
    __slots__ = ("observer", "child")
    observer: str
    child: Formula


@_node
class Poss(Formula):
    __slots__ = ("observer", "child")
    observer: str
    child: Formula


def _balanced(node, parts, empty: Formula) -> Formula:
    """``parts`` joined by ``node`` as a balanced tree, pairing neighbours
    level by level; up to three parts this is the left fold."""
    parts = list(parts)
    if not parts:
        return empty
    while len(parts) > 1:
        paired = [node(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = paired + parts[len(paired) * 2:]
    return parts[0]


def conj(parts) -> Formula:
    """Balanced conjunction; TRUE when empty."""
    return _balanced(And, parts, TRUE)


def disj(parts) -> Formula:
    """Balanced disjunction; FALSE when empty."""
    return _balanced(Or, parts, FALSE)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class Verdict:
    """Result of a validity check: holds everywhere, or a first failing run."""

    holds: bool
    counterexample: str | None = None


#: Fact terms, the conjuncts that property checkers are decided from: a
#: term ``(op, *facts)``, each fact an (agent, action) pair, stands for the
#: formula that ``_TERMS[op]`` builds from the observer and the facts'
#: atoms; :meth:`_Vectors.guarded` decides it with no formula built.
_TERMS = {
    "P": lambda j, f: Poss(j, f),
    "P!": lambda j, f: Poss(j, Not(f)),
    "K": lambda j, f: Knows(j, f),
    "->P&": lambda j, g, x, y: Implies(g, Poss(j, And(x, y))),
    "P->P&": lambda j, x, y: Implies(Poss(j, x), Poss(j, And(x, y))),
}


#: Every term tuple a checker keeps, by value: equal ones are one tuple,
#: however many suites build them, as equal formulas are one node.
_SHARED: dict[tuple, tuple] = {}


def _shared(value: tuple) -> tuple:
    """The one kept tuple equal to ``value``: a fact term (see
    :data:`_TERMS`) or a pair of stage terms."""
    return _SHARED.setdefault(value, value)


def _term_formula(observer: str, term) -> Formula:
    """The formula of a fact term (see :data:`_TERMS`)."""
    op, *facts = term
    return _TERMS[op](observer, *(Atom(*fact) for fact in facts))


def _guarded_formula(observer: str, guard, terms) -> Formula:
    """``g -> t1 & t2 & ...``: the conjunction of the ``guard`` facts implies
    every fact term of ``terms``."""
    return Implies(conj(Atom(*fact) for fact in guard),
                   conj(_term_formula(observer, t) for t in terms))


def _derived_mask(fact, pairs) -> int:
    """Where a derived fact holds, given where each base fact does
    (``fact``): where both facts of one of its conjunct ``pairs`` hold."""
    mask = 0
    for a, b in pairs:
        mask |= fact(a) & fact(b)
    return mask


class _Vectors:
    """The memoized walk over the connectives that :class:`Evaluator` and
    :class:`SlotPlanes` share; each supplies its carrier.

    A formula's value is an int holding its truth at every point of the
    carrier, ``_full`` being true everywhere.  ``columns`` maps each stored
    (agent, action) pair to the points where it holds; a pair it does not
    list holds nowhere.  A carrier supplies ``all``, ``_possible(observer,
    x)`` (``P[observer]`` of ``x``) and ``_some(x)``, the systems with a
    point in ``x``; ``K[j]`` is ``!P[j]!``.  ``&``, ``|`` and ``->`` skip
    their right operand when the left one already decides every point.
    Every node's value is memoized; formulas are hash-consed, so equal
    subformulas are one object and are evaluated once.  Facts and fact
    terms are memoized too.  Names are not validated (see
    :func:`check_names`).

    ``derived`` maps each derived fact to its conjunct pairs, as
    ``composition._conjuncts`` gives them; such a fact is computed from
    them by :func:`_derived_mask` when a formula reads it, whatever
    ``columns`` holds for it.
    """

    __slots__ = ("_full", "_columns", "_derived", "_memo", "_facts", "_term_masks")

    def __init__(self, full: int, columns, derived=None):
        self._full = full
        self._columns = columns
        self._derived = derived or {}
        self._memo: dict[Formula, int] = {}
        self._facts: dict[tuple, int] = {}
        self._term_masks: dict[str, dict[tuple, int]] = {}  # per observer

    def fact(self, fact) -> int:
        """The points where ``fact``, an (agent, action) pair, holds."""
        x = self._facts.get(fact)
        if x is None:
            pairs = self._derived.get(fact)
            x = self._facts[fact] = (
                self._columns.get(fact, 0) if pairs is None else _derived_mask(self.fact, pairs))
        return x

    def mask(self, f: Formula) -> int:
        """The points where ``f`` holds, as an int."""
        x = self._memo.get(f)
        if x is not None:
            return x
        t = type(f)
        full = self._full
        if t is Atom:
            x = self.fact((f.agent, f.action))
        elif t is And:
            x = self.mask(f.left)
            if x:
                x &= self.mask(f.right)
        elif t is Poss:
            x = self._possible(f.observer, self.mask(f.child))
        elif t is Knows:
            x = full ^ self._possible(f.observer, full ^ self.mask(f.child))
        elif t is Not:
            x = full ^ self.mask(f.child)
        elif t is Implies:
            x = full ^ self.mask(f.left)
            if x != full:
                x |= self.mask(f.right)
        elif t is Or:
            x = self.mask(f.left)
            if x != full:
                x |= self.mask(f.right)
        elif t is Iff:
            x = full ^ self.mask(f.left) ^ self.mask(f.right)
        elif t is Const:
            x = full if f.value else 0
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[f] = x
        return x

    def holds(self, f: Formula):
        """The systems on which ``f`` holds at every point, as a vector."""
        return self.all ^ self._some(self._full ^ self.mask(f))

    def _term(self, observer: str, term) -> int:
        """The points where a fact term holds: :data:`_TERMS` on masks."""
        op, full, possible, fact = term[0], self._full, self._possible, self.fact
        if op == "P":
            return possible(observer, fact(term[1]))
        if op == "P!":
            return possible(observer, full ^ fact(term[1]))
        if op == "K":
            return full ^ possible(observer, full ^ fact(term[1]))
        if op == "->P&":  # as in mask(), no P when the guard holds nowhere
            _, g, x, y = term
            off = full ^ fact(g)
            return off if off == full else off | possible(observer, fact(x) & fact(y))
        x, y = fact(term[1]), fact(term[2])  # "P->P&"
        px = possible(observer, x)
        return full if not px else full ^ px | possible(observer, x & y)

    def guarded(self, observer: str, rows):
        """The systems on which :func:`_guarded_formula` of every ``(guard,
        terms)`` row of ``rows`` is valid, ``j`` being ``observer``, with no
        formula built.  Each term is decided once per observer; a row stops
        once no point of its guard is left where every term so far holds,
        and the walk once every system fails."""
        memo = self._term_masks.setdefault(observer, {})
        fact = self.fact
        bad = 0
        for guard, terms in rows:
            g = self._full
            for f in guard:
                g &= fact(f)
            for t in terms:
                if not g:
                    break
                x = memo.get(t)
                if x is None:
                    x = memo[t] = self._term(observer, t)
                bad |= g & ~x
                g &= x
            if bad and self._some(bad) == self.all:
                break
        return self.all ^ self._some(bad)

    def distributes(self, observer: str, terms):
        """The systems on which ``P[j] u & P[j] p -> P[j] (u & p)``, ``j``
        being ``observer``, is valid for every ``(u, p)`` of ``terms``, with
        no formula built.  Equal ``u`` come in runs; after each, the walk
        stops if every system fails."""
        possible = self._possible
        seen: dict[Formula, tuple[int, int]] = {}  # p -> (its mask, P of it)
        bad, last = 0, None
        for u, p in terms:
            if u is not last:
                if bad and self._some(bad) == self.all:
                    break
                mu, last = self.mask(u), u
                pu = possible(observer, mu)
            values = seen.get(p)
            if values is None:
                mp = self.mask(p)
                values = seen[p] = mp, possible(observer, mp)
            mp, pp = values
            if pu & pp:
                bad |= pu & pp & ~possible(observer, mu & mp)
        return self.all ^ self._some(bad)


class Evaluator(_Vectors):
    """Evaluates formulas over one system, as run bitmasks.

    Bit ``i`` of a mask is the formula's truth at ``system.run_ids[i]``, so a
    formula is evaluated once per system, not once per run: an atom is the
    mask of the runs holding its fact, read off the system's fact columns,
    and ``P[j]`` is the union of the observer's blocks that the child's
    mask meets, read off the partition index in one pass over the runs
    (every run, if the mask is not empty and the partition one block).

    ``derived``, if given, is a table of derived facts (see
    :class:`_Vectors`): the evaluator computes each from its conjunct pairs
    when a formula reads it, so base and derived formulas share one
    evaluator and no derived system is built.
    """

    __slots__ = ("system", "_values")

    #: The one system evaluated, as a batch vector (see :class:`SlotPlanes`).
    all = True

    def __init__(self, system: InterpretedSystem, derived=None):
        super().__init__((1 << len(system.run_ids)) - 1, system._holding, derived)
        self.system = system
        self._values: dict[Formula, bytes] = {}

    def evaluate(self, f: Formula, run: Run | str) -> bool:
        """Truth of ``f`` at ``run`` (a run or its id), read off one byte
        per run, which the first call for ``f`` spreads its mask into."""
        values = self._values.get(f)
        if values is None:
            values = self._values[f] = _bits(self.mask(f), len(self.system.run_ids))
        return values[self.system.position(run if isinstance(run, str) else run.run_id)] == 1

    def valid(self, f: Formula) -> Verdict:
        """Truth of ``f`` at every run; the counterexample is the first
        failing run in declaration order."""
        missing = self._full ^ self.mask(f)
        if not missing:
            return Verdict(True, None)
        return Verdict(False, self.system.run_ids[(missing & -missing).bit_length() - 1])

    def _some(self, x: int) -> bool:
        return x != 0

    def _possible(self, observer: str, x: int) -> int:
        if x == 0 or x == self._full:
            return x
        index = self.system.block_numbers(observer)
        if len(self.system.observers[observer].blocks) == 1:
            return self._full
        met = set(compress(index, _bits(x, len(index))))
        return _mask(bytes(map(met.__contains__, index)))


class SlotPlanes(_Vectors):
    """Evaluates formulas over a batch of systems at once, as slot planes.

    A system's runs fill slots ``0`` to ``slots - 1``, and a system with
    fewer runs repeats its first run, in that run's block, which changes no
    ``P``/``K`` value and no validity.  Bit ``i * width + s`` of a value is
    its truth at slot ``i`` of system ``s``: the planes of the slots lie
    side by side in one int, so every connective is one int operation.
    Validity is the intersection of the planes.

    ``facts`` maps each declared (agent, action) pair to its planes, in that
    layout; ``blocks`` gives every block's planes the same way (slot ``i``
    of system ``s`` lies in the block), and by default one block holds
    every slot.  ``P[j]`` at slot ``i`` is ``OR_k same[i][k] & c_k``, where
    ``same[i][k]`` holds the systems whose slots ``i`` and ``k`` share a
    block.  Every modality reads this one partition, whatever observer it
    names.  ``derived`` is a table of derived facts, each computed from its
    conjunct pairs when a formula reads it (see :class:`_Vectors`).
    """

    __slots__ = ("all", "_shifts", "_end", "_mates")

    def __init__(self, facts, width: int, slots: int, blocks=None, derived=None):
        super().__init__((1 << width * slots) - 1, facts, derived)
        #: Every system of the batch, as a vector.
        self.all = (1 << width) - 1
        self._shifts = range(width, width * slots, width)  # where planes 1.. start
        self._end = width * slots
        # Per shift by d planes: plane i holds same[i][i + d (mod slots)].
        self._mates = []
        for shift in self._shifts:
            mates = 0
            for block in blocks or (self._full,):
                mates |= block & self._rotate(block, shift)
            self._mates.append(mates)

    def _rotate(self, x: int, shift: int) -> int:
        """Plane ``i + d (mod slots)`` at plane ``i``, for ``shift = d *
        width``, with bits above the planes left for a mask to clear."""
        return x >> shift | x << self._end - shift

    def _some(self, x: int) -> int:
        some = x
        for shift in self._shifts:
            some |= x >> shift
        return some & self.all

    def _possible(self, observer: str, x: int) -> int:
        if not x:
            return x
        out = x
        for shift, mates in zip(self._shifts, self._mates):
            out |= mates & self._rotate(x, shift)
        return out


def check_names(system: InterpretedSystem, f: Formula) -> None:
    """Reject formulas mentioning undeclared agents, actions, or observers.

    A pre-order walk that checks each distinct node once: a shared subformula
    was checked whole at its first visit, so the first error is the tree's.
    """
    stack, seen = [f], set()
    while stack:
        node = stack.pop()
        t = type(node)
        if t not in _PREC:
            raise TypeError(f"not a formula: {node!r}")
        if node in seen:
            continue
        seen.add(node)
        if t is Atom:
            if not system.has_agent(node.agent):
                raise ValidationError(f"formula mentions undeclared agent {node.agent!r}")
            if not system.has_action(node.action):
                raise ValidationError(f"formula mentions undeclared action {node.action}")
        elif t in (Knows, Poss) and node.observer not in system.observers:
            raise ValidationError(f"{node.observer!r} has no declared partition")
        stack += [v for v in map(node.__getattribute__, node.__slots__) if isinstance(v, Formula)]


def evaluate(system: InterpretedSystem, run: Run | str, f: Formula) -> bool:
    """Truth of ``f`` at one run (validates names against the declaration)."""
    check_names(system, f)
    return Evaluator(system).evaluate(f, run)


def valid(system: InterpretedSystem, f: Formula) -> Verdict:
    """Truth of ``f`` at every run; counterexample is the first failing run
    in declaration order."""
    check_names(system, f)
    return Evaluator(system).valid(f)


# ---------------------------------------------------------------------------
# Concrete syntax


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


#: Binding strength of each node type, which both :func:`parse` and
#: :func:`render` read; each binary connective as rendered, and as a token.
_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Knows: 5, Poss: 5,
         Atom: 6, Const: 6}
_BINARY = {Iff: " <-> ", Implies: " -> ", Or: " | ", And: " & "}
_INFIX = {text.strip(): t for t, text in _BINARY.items()}
#: One token after any blanks: punctuation, a run of name characters (which
#: must start with a letter or ``_``, and whose ``-`` never takes the ``->``
#: that follows it), or any other character, which is an error.
_TOKEN = re.compile(r"\s*(?:(<->|->|[(),!&|\[\]])|((?:\w|-(?!>))+)|(\S))")


class _Tokenizer:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, pos)
        for m in _TOKEN.finditer(text):
            punct, name, other = m.groups()
            pos = m.start(m.lastindex)
            if not (punct or name and (name[0].isalpha() or name[0] == "_")):
                raise ParseError(f"unexpected character {(name or other)[0]!r}", pos)
            self.tokens.append(("punct", punct, pos) if punct else ("name", name, pos))
        self.tokens.append(("end", "", len(text)))
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect(self, value: str) -> tuple[str, str, int]:
        kind, got, pos = self.peek()
        if got != value or kind == "end":
            shown = got if kind != "end" else "end of input"
            raise ParseError(f"expected {value!r}, found {shown!r}", pos)
        return self.next()

    def expect_name(self, what: str = "name") -> tuple[str, int]:
        kind, got, pos = self.peek()
        if kind != "name":
            shown = got if kind != "end" else "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", pos)
        self.next()
        return got, pos


def _operand(toks: _Tokenizer) -> Formula:
    """A constant or an atom."""
    kind, value, pos = toks.peek()
    if kind == "name":
        if value in ("true", "false"):
            toks.next()
            return TRUE if value == "true" else FALSE
        if value == "theta":
            toks.next()
            toks.expect("(")
            agent, _ = toks.expect_name("agent name")
            toks.expect(",")
            family, _ = toks.expect_name("action name")
            param = ""
            if toks.peek()[1] == "(":
                toks.next()
                param, _ = toks.expect_name("action parameter")
                toks.expect(")")
            toks.expect(")")
            return Atom(agent, Action(family, param))
        raise ParseError(f"unexpected name {value!r} (expected theta, true, false)", pos)
    shown = value if kind != "end" else "end of input"
    raise ParseError(f"expected a formula, found {shown!r}", pos)


def parse(text: str) -> Formula:
    """Parse the ASCII concrete syntax; raises :class:`ParseError` with a
    character position on malformed input.

    Operator precedence from :data:`_PREC`, with one explicit stack, so any
    depth parses: each pending connective waits there as ``(precedence, node
    type, the fields before its last operand)``, and an open bracket as
    precedence 0, which only its ``)`` takes off.
    """
    toks = _Tokenizer(text)
    pending: list = []
    while True:
        kind, value, pos = toks.peek()
        if value in ("!", "("):
            toks.next()
            pending.append((_PREC[Not], Not, ()) if value == "!" else (0, None, ()))
            continue
        # Modal only when immediately followed by '['; a bare K or P is a
        # malformed atom start and falls through to _operand's error.
        if kind == "name" and value in ("K", "P") and toks.tokens[toks.index + 1][1] == "[":
            toks.next()
            toks.expect("[")
            observer, _ = toks.expect_name("observer name")
            toks.expect("]")
            pending.append((_PREC[Knows], Knows if value == "K" else Poss, (observer,)))
            continue
        f = _operand(toks)
        while True:  # f is complete: close it under what binds tighter than the next token
            kind, value, pos = toks.peek()
            t = _INFIX.get(value)
            prec = _PREC[t] if t else 0
            # & and | group to the left, as in render: they close an equal one too
            left = prec > _PREC[Implies]
            while pending and pending[-1][0] > prec - left:
                _, node, fields = pending.pop()
                f = node(*fields, f)
            if t:
                toks.next()
                pending.append((prec, t, (f,)))
                break
            if not pending:
                if kind != "end":
                    raise ParseError(f"unexpected trailing input {value!r}", pos)
                return f
            toks.expect(")")
            pending.pop()


def render(f: Formula) -> str:
    """Canonical text form; ``parse(render(f))`` reproduces ``f`` exactly.

    Parentheses appear only where precedence or associativity requires them.
    """
    out: list[str] = []
    stack: list = [(f, 0)]  # text, or (formula, the precedence it sits under)
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, parent = item
        t = type(f)
        prec = _PREC[t]
        if t is Atom:
            parts = [f"theta({f.agent}, {f.action})"]
        elif t is Const:
            parts = ["true" if f.value else "false"]
        elif t is Not:
            parts = ["!", (f.child, prec)]
        elif t in (Knows, Poss):
            parts = [f"{'K' if t is Knows else 'P'}[{f.observer}] ", (f.child, prec)]
        else:
            # & and | group to the left, -> and <-> to the right: the other side
            # needs brackets at equal precedence.
            left = prec > _PREC[Implies]
            parts = [(f.left, prec + (not left)), _BINARY[t], (f.right, prec + left)]
        if prec < parent:
            parts = ["(", *parts, ")"]
        stack += reversed(parts)
    return "".join(out)
