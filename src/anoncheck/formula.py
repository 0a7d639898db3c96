"""Epistemic formulas over interpreted systems.

Grammar (ASCII concrete syntax, whitespace-insensitive)::

    atom ::= "theta(" name "," name "(" name ")" ")"
           | "theta(" name "," name ")"
    f    ::= atom | "true" | "false" | "!" f | f "&" f | f "|" f
           | f "->" f | f "<->" f | "K[" name "]" f | "P[" name "]" f
           | "(" f ")"

Precedence, tightest first: ! (and the modalities K[..] / P[..]), &, |,
->, <->.  & and | associate to the left, -> and <-> to the right.

K[j] f holds at a run iff f holds at every run j cannot distinguish from
it; P[j] f iff f holds at some such run.  Facts are run-level, so no time
index appears in the semantics.
"""
from __future__ import annotations

from dataclasses import dataclass

from .system import Action, InterpretedSystem, Run, ValidationError


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Formula:
    """Base class; all nodes are immutable and compare structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    __slots__ = ("agent", "action")
    agent: str
    action: Action


@dataclass(frozen=True)
class Const(Formula):
    __slots__ = ("value",)
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Not(Formula):
    __slots__ = ("child",)
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Knows(Formula):
    __slots__ = ("observer", "child")
    observer: str
    child: Formula


@dataclass(frozen=True)
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


class Evaluator:
    """Evaluates formulas over one system.

    Modal subformulas are memoized per indistinguishability block: their
    value is constant on a block, and property checks evaluate the same
    (shared) formula objects at every run, so the memo turns repeated modal
    work into dictionary hits.  The memo keys on object identity; storing
    the node alongside its value keeps it alive, so an id can never be
    reused by a different formula while the memo holds it.
    """

    __slots__ = ("system", "_memo")

    def __init__(self, system: InterpretedSystem):
        self.system = system
        self._memo: dict[tuple[int, str, int], tuple[Formula, bool]] = {}

    def evaluate(self, f: Formula, run: Run) -> bool:
        t = type(f)
        if t is Atom:
            return (f.agent, f.action) in run.facts
        if t is And:
            return self.evaluate(f.left, run) and self.evaluate(f.right, run)
        if t is Poss:
            key = (id(f), f.observer, self.system.block_index(f.observer, run.run_id))
            entry = self._memo.get(key)
            if entry is None:
                child = f.child
                hit = any(self.evaluate(child, r) for r in self.system.kernel(f.observer, run))
                self._memo[key] = (f, hit)
                return hit
            return entry[1]
        if t is Knows:
            key = (id(f), f.observer, self.system.block_index(f.observer, run.run_id))
            entry = self._memo.get(key)
            if entry is None:
                child = f.child
                hit = all(self.evaluate(child, r) for r in self.system.kernel(f.observer, run))
                self._memo[key] = (f, hit)
                return hit
            return entry[1]
        if t is Not:
            return not self.evaluate(f.child, run)
        if t is Implies:
            return (not self.evaluate(f.left, run)) or self.evaluate(f.right, run)
        if t is Or:
            return self.evaluate(f.left, run) or self.evaluate(f.right, run)
        if t is Iff:
            return self.evaluate(f.left, run) == self.evaluate(f.right, run)
        if t is Const:
            return f.value
        raise TypeError(f"not a formula: {f!r}")

    def valid(self, f: Formula) -> Verdict:
        for run in self.system.runs:
            if not self.evaluate(f, run):
                return Verdict(False, run.run_id)
        return Verdict(True, None)


class _Vectors:
    """The memoized walk over the connectives that :class:`RunMasks` and
    :class:`SlotPlanes` share; each supplies its carrier.

    A formula's value is an int holding its truth at every point of the
    carrier, ``_full`` being true everywhere.  A carrier supplies
    ``_atom(atom)`` and ``_possible(observer, x)``, which is ``P[observer]``
    of ``x``; ``K[j]`` is ``!P[j]!``.  ``&``, ``|`` and ``->`` skip their
    right operand when the left one already decides every point.  Every
    node's value is memoized by object identity, which pays off on
    hash-consed formulas where equal subformulas are one object; each
    formula a carrier is asked about is kept alive for its lifetime, so an
    id in the memo is never reused by another node.  Like
    :class:`Evaluator`, it does not validate names (see :func:`check_names`).
    """

    __slots__ = ("_full", "_memo", "_roots")

    def __init__(self, full: int):
        self._full = full
        self._memo: dict[int, int] = {}
        self._roots: list[Formula] = []

    def _eval(self, f: Formula) -> int:
        x = self._memo.get(id(f))
        if x is not None:
            return x
        t = type(f)
        full = self._full
        if t is Atom:
            x = self._atom(f)
        elif t is And:
            x = self._eval(f.left)
            if x:
                x &= self._eval(f.right)
        elif t is Poss:
            x = self._possible(f.observer, self._eval(f.child))
        elif t is Knows:
            x = full ^ self._possible(f.observer, full ^ self._eval(f.child))
        elif t is Not:
            x = full ^ self._eval(f.child)
        elif t is Implies:
            x = full ^ self._eval(f.left)
            if x != full:
                x |= self._eval(f.right)
        elif t is Or:
            x = self._eval(f.left)
            if x != full:
                x |= self._eval(f.right)
        elif t is Iff:
            x = full ^ self._eval(f.left) ^ self._eval(f.right)
        elif t is Const:
            x = full if f.value else 0
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[id(f)] = x
        return x


class RunMasks(_Vectors):
    """Evaluates formulas over one system as run bitmasks.

    Bit ``i`` of a mask is the formula's truth at ``system.runs[i]``, so a
    whole formula is evaluated once per system instead of once per run: an
    atom is the mask of the runs holding its fact, and ``P[j]`` is the
    union of the observer's blocks that the child's mask meets.

    ``derive()``, if given, returns ``system`` extended by derivation, which
    keeps its runs and partitions and only adds facts of new actions.  An
    atom of an action ``system`` does not declare is read from it, derived
    on first use; so base and derived formulas share one evaluator.
    """

    __slots__ = ("system", "_derive", "_derived", "_blocks")

    #: The one system evaluated, as a batch vector (see :class:`SlotPlanes`).
    all = True

    def __init__(self, system: InterpretedSystem, derive=None):
        super().__init__((1 << len(system.runs)) - 1)
        self.system = system
        self._derive = derive
        self._derived: InterpretedSystem | None = None
        self._blocks: dict[str, tuple[int, ...]] = {}

    def mask(self, f: Formula) -> int:
        """The runs where ``f`` holds, as a bitmask."""
        self._roots.append(f)
        return self._eval(f)

    def valid(self, f: Formula) -> bool:
        """Whether ``f`` holds at every run."""
        return self.mask(f) == self._full

    def first_failure(self, f: Formula) -> str | None:
        """Id of the first run (in declaration order) where ``f`` fails."""
        missing = self._full & ~self.mask(f)
        if not missing:
            return None
        return self.system.runs[(missing & -missing).bit_length() - 1].run_id

    def _atom(self, f: Atom) -> int:
        system = self.system
        if self._derive is not None and not system.has_action(f.action):
            if self._derived is None:
                self._derived = self._derive()
            system = self._derived
        fact = (f.agent, f.action)
        return int("".join("01"[fact in run.facts] for run in reversed(system.runs)), 2)

    def _possible(self, observer: str, x: int) -> int:
        if x == 0 or x == self._full:
            return x
        blocks = self._blocks.get(observer)
        if blocks is None:
            blocks = self._blocks[observer] = self.system.block_masks(observer)
        out = 0
        for b in blocks:
            if b & x:
                out |= b
        return out


class SlotPlanes(_Vectors):
    """Evaluates formulas over a batch of systems at once, as slot planes.

    A system's runs fill slots ``0`` to ``n - 1``, and a system with fewer
    runs repeats its first run, in that run's block, which changes no
    ``P``/``K`` value and no validity.  Bit ``s`` of plane ``i`` is the
    formula's truth at slot ``i`` of system ``s``; the planes lie side by
    side in one int, plane ``i`` at bit ``i * width``, so every connective
    is one int operation.  Validity is the intersection of the planes.

    ``blocks`` gives every block's plane at each slot (bit ``s`` of plane
    ``i``: slot ``i`` of system ``s`` lies in the block); by default one
    block holds every slot.  ``P[j]`` at slot ``i`` is ``OR_k same[i][k] &
    c_k``, where ``same[i][k]`` holds the systems whose slots ``i`` and
    ``k`` share a block.  Every modality reads this one partition, whatever
    observer it names.  ``atoms(atom)`` gives an atom's planes.
    """

    __slots__ = ("all", "_width", "_shifts", "_end", "_atoms", "_mates")

    def __init__(self, atoms, width: int, slots: int, blocks=None):
        super().__init__((1 << width * slots) - 1)
        #: Every system of the batch, as a vector.
        self.all = (1 << width) - 1
        self._width = width
        self._shifts = range(width, width * slots, width)  # where planes 1.. start
        self._end = width * slots
        self._atoms = atoms
        packed = [self._full] if blocks is None else [self._pack(b) for b in blocks]
        # Per shift by d planes: plane i holds same[i][i + d (mod slots)].
        self._mates = []
        for shift in self._shifts:
            mates = 0
            for block in packed:
                mates |= block & self._rotate(block, shift)
            self._mates.append(mates)

    def _pack(self, planes) -> int:
        out = 0
        for i, plane in enumerate(planes):
            out |= plane << i * self._width
        return out

    def _rotate(self, x: int, shift: int) -> int:
        """Plane ``i + d (mod slots)`` at plane ``i``, for ``shift = d *
        width``, with bits above the planes left for a mask to clear."""
        return x >> shift | x << self._end - shift

    def valid(self, f: Formula) -> int:
        """The systems on which ``f`` holds at every run, as a vector."""
        self._roots.append(f)
        x = held = self._eval(f)
        for shift in self._shifts:
            held &= x >> shift
        return held & self.all

    def _atom(self, f: Atom) -> int:
        return self._pack(self._atoms(f))

    def _possible(self, observer: str, x: int) -> int:
        out = x
        for shift, mates in zip(self._shifts, self._mates):
            out |= mates & self._rotate(x, shift)
        return out


def check_names(system: InterpretedSystem, f: Formula) -> None:
    """Reject formulas mentioning undeclared agents, actions, or observers."""
    stack = [f]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Atom:
            if not system.has_agent(node.agent):
                raise ValidationError(f"formula mentions undeclared agent {node.agent!r}")
            if not system.has_action(node.action):
                raise ValidationError(f"formula mentions undeclared action {node.action}")
        elif t in (Knows, Poss):
            if node.observer not in system.observers:
                raise ValidationError(f"{node.observer!r} has no declared partition")
            stack.append(node.child)
        elif t is Not:
            stack.append(node.child)
        elif t in (And, Or, Implies, Iff):
            stack.append(node.left)
            stack.append(node.right)
        elif t is not Const:
            raise TypeError(f"not a formula: {node!r}")


def evaluate(system: InterpretedSystem, run: Run | str, f: Formula) -> bool:
    """Truth of ``f`` at one run (validates names against the declaration)."""
    check_names(system, f)
    r = system.run(run) if isinstance(run, str) else run
    return Evaluator(system).evaluate(f, r)


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


_PUNCT = ("<->", "->", "(", ")", ",", "!", "&", "|", "[", "]")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, pos)
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            matched = False
            for p in _PUNCT:
                if text.startswith(p, i):
                    self.tokens.append(("punct", p, i))
                    i += len(p)
                    matched = True
                    break
            if matched:
                continue
            if ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] in "_-"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

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


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)

    def parse(self) -> Formula:
        f = self._iff()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return f

    def _iff(self) -> Formula:
        left = self._implies()
        if self.toks.peek()[1] == "<->":
            self.toks.next()
            return Iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self.toks.peek()[1] == "->":
            self.toks.next()
            return Implies(left, self._implies())
        return left

    def _or(self) -> Formula:
        f = self._and()
        while self.toks.peek()[1] == "|":
            self.toks.next()
            f = Or(f, self._and())
        return f

    def _and(self) -> Formula:
        f = self._unary()
        while self.toks.peek()[1] == "&":
            self.toks.next()
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        kind, value, pos = self.toks.peek()
        if value == "!":
            self.toks.next()
            return Not(self._unary())
        if kind == "name" and value in ("K", "P"):
            # Modal only when immediately followed by '['; a bare K or P is a
            # malformed atom start and falls through to _primary's error.
            nxt = self.toks.tokens[self.toks.index + 1]
            if nxt[1] == "[":
                self.toks.next()
                self.toks.expect("[")
                obs, _ = self.toks.expect_name("observer name")
                self.toks.expect("]")
                child = self._unary()
                return Knows(obs, child) if value == "K" else Poss(obs, child)
        return self._primary()

    def _primary(self) -> Formula:
        kind, value, pos = self.toks.peek()
        if value == "(":
            self.toks.next()
            f = self._iff()
            self.toks.expect(")")
            return f
        if kind == "name":
            if value == "true":
                self.toks.next()
                return TRUE
            if value == "false":
                self.toks.next()
                return FALSE
            if value == "theta":
                return self._atom()
            raise ParseError(f"unexpected name {value!r} (expected theta, true, false)", pos)
        shown = value if kind != "end" else "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", pos)

    def _atom(self) -> Formula:
        self.toks.next()  # theta
        self.toks.expect("(")
        agent, _ = self.toks.expect_name("agent name")
        self.toks.expect(",")
        family, _ = self.toks.expect_name("action name")
        param = ""
        if self.toks.peek()[1] == "(":
            self.toks.next()
            param, _ = self.toks.expect_name("action parameter")
            self.toks.expect(")")
        self.toks.expect(")")
        return Atom(agent, Action(family, param))


def parse(text: str) -> Formula:
    """Parse the ASCII concrete syntax; raises :class:`ParseError` with a
    character position on malformed input."""
    return _Parser(text).parse()


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Knows: 5, Poss: 5,
         Atom: 6, Const: 6}


def render(f: Formula) -> str:
    """Canonical text form; ``parse(render(f))`` reproduces ``f`` exactly.

    Parentheses appear only where precedence or associativity requires them.
    """
    return _render(f, 0)


def _render(f: Formula, parent: int) -> str:
    t = type(f)
    prec = _PREC[t]
    if t is Atom:
        text = f"theta({f.agent}, {f.action})"
    elif t is Const:
        text = "true" if f.value else "false"
    elif t is Not:
        text = "!" + _render(f.child, prec)
    elif t is Knows:
        text = f"K[{f.observer}] " + _render(f.child, prec)
    elif t is Poss:
        text = f"P[{f.observer}] " + _render(f.child, prec)
    elif t in (And, Or):
        op = "&" if t is And else "|"
        # Left-associative: the right child needs brackets at equal precedence.
        text = f"{_render(f.left, prec)} {op} {_render(f.right, prec + 1)}"
    else:
        op = "->" if t is Implies else "<->"
        # Right-associative: the left child needs brackets at equal precedence.
        text = f"{_render(f.left, prec + 1)} {op} {_render(f.right, prec)}"
    if prec < parent:
        return f"({text})"
    return text
