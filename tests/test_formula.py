"""Formula nodes, semantics, the concrete syntax, and the modal-logic laws."""
import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from anoncheck.formula import (FALSE, TRUE, And, Atom, Const, Evaluator, Iff,
                               Implies, Knows, Not, Or, ParseError, Poss,
                               check_names, conj, disj, evaluate, parse, render,
                               valid)
from anoncheck.system import Action, InterpretedSystem, ValidationError, build_system

AGENTS = ("i1", "i2", "k1", "k2", "j")
ACTIONS = (Action("use", "k1"), Action("use", "k2"),
           Action("post", "c1"), Action("post", "c2"))
OBSERVERS = ("j",)


def atoms():
    return st.builds(Atom, st.sampled_from(AGENTS), st.sampled_from(ACTIONS))


def formulas(max_leaves: int = 12):
    unary = [Not] + [lambda c, o=o: Knows(o, c) for o in OBSERVERS] \
                  + [lambda c, o=o: Poss(o, c) for o in OBSERVERS]
    return st.recursive(
        atoms() | st.sampled_from((TRUE, FALSE)),
        lambda kids: st.one_of(
            st.builds(lambda c, f: f(c), kids, st.sampled_from(unary)),
            st.builds(lambda a, b, op: op(a, b), kids, kids,
                      st.sampled_from((And, Or, Implies, Iff)))),
        max_leaves=max_leaves)


def seeded_formula(rng: random.Random, depth: int):
    """Deterministic random formula; mirrors the hypothesis strategy."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return TRUE if rng.random() < 0.5 else FALSE
        return Atom(rng.choice(AGENTS), rng.choice(ACTIONS))
    shape = rng.randrange(7)
    if shape == 0:
        return Not(seeded_formula(rng, depth - 1))
    if shape == 1:
        return Knows(rng.choice(OBSERVERS), seeded_formula(rng, depth - 1))
    if shape == 2:
        return Poss(rng.choice(OBSERVERS), seeded_formula(rng, depth - 1))
    op = (And, Or, Implies, Iff)[shape - 3]
    return op(seeded_formula(rng, depth - 1), seeded_formula(rng, depth - 1))


def system_of(runs, blocks):
    return build_system(
        name="t", agents=list(AGENTS[:-1]) + [("j", "observer")],
        actions=list(ACTIONS), runs=runs, observers={"j": blocks})


@pytest.fixture(scope="module")
def swap_system():
    """Two swapped runs in one block, plus a distinguishable third."""
    return system_of(
        runs=[("r1", [("i1", "use(k1)"), ("i2", "use(k2)"), ("k1", "post(c1)")]),
              ("r2", [("i1", "use(k2)"), ("i2", "use(k1)"), ("k2", "post(c1)")]),
              ("r3", [("i1", "use(k1)")])],
        blocks=[["r1", "r2"], ["r3"]])


USE_K1 = Atom("i1", Action("use", "k1"))


def _chain(depth: int):
    """``depth`` unary connectives over TRUE, cycling through !, K[j], P[j]."""
    f = TRUE
    for n in range(depth):
        f = (Not(f), Knows("j", f), Poss("j", f))[n % 3]
    return f


class TestNodes:
    @pytest.mark.parametrize("build", [
        lambda: And(USE_K1, Not(TRUE)),
        lambda: And(left=USE_K1, right=Not(child=TRUE)),
        lambda: And(USE_K1, right=Not(TRUE)),
        lambda: And(right=Not(TRUE), left=Atom(agent="i1", action=Action("use", "k1"))),
    ], ids=["positional", "keywords", "mixed", "keywords-reordered"])
    def test_equal_formulas_are_one_object(self, build):
        f = build()
        assert f is And(USE_K1, Not(TRUE)) and f == And(USE_K1, Not(TRUE))
        assert f.left is USE_K1 and f.right.child is TRUE is Const(True)
        assert repr(USE_K1) == "Atom(agent='i1', action=Action(family='use', param='k1'))"
        assert repr(f) == f"And(left={USE_K1!r}, right=Not(child=Const(value=True)))"

    @pytest.mark.parametrize("build", [
        lambda: And(TRUE), lambda: And(TRUE, TRUE, TRUE), lambda: Not(),
        lambda: Not(TRUE, child=TRUE), lambda: And(TRUE, middle=TRUE),
        lambda: And(right=TRUE), lambda: Atom("i1", Action("use", "k1"), observer="j"),
    ], ids=["too-few", "too-many", "none", "given-twice", "unknown", "first-missing",
            "unknown-extra"])
    def test_wrong_fields_are_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("field, value", [("left", TRUE), ("right", FALSE), ("other", 1)])
    def test_fields_cannot_be_assigned(self, field, value):
        f = And(USE_K1, Not(TRUE))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, field, value)
        assert f.left is USE_K1

    @pytest.mark.parametrize("f", [USE_K1, TRUE, And(USE_K1, Not(TRUE)),
                                   Iff(Knows("j", USE_K1), Or(FALSE, Poss("j", USE_K1))),
                                   _chain(30), _chain(10_000)],
                             ids=["atom", "const", "and", "modal", "chain", "deep-chain"])
    def test_pickle_and_copies_return_the_node(self, f):
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f

    def test_atoms_take_only_actions(self):
        with pytest.raises(TypeError):
            Atom("i97", ("use", "k1"))  # would be the node of every equal atom
        assert render(parse("theta(i97, use(k1))")) == "theta(i97, use(k1))"
        with pytest.raises(TypeError):
            Atom("i1", "use(k1)")  # would match no fact

    def test_deep_formulas_compare_and_hash(self):
        f = _chain(10_000)
        assert f is _chain(10_000) and f == _chain(10_000) and f != _chain(9_999)
        assert hash(f) == hash(_chain(10_000)) and {f: 1}[_chain(10_000)] == 1

    def test_round_trip_at_depth_900(self):
        f = _chain(900)
        assert parse(render(f)) == f


class TestEvaluation:
    def test_atoms_and_connectives(self, swap_system):
        s = swap_system
        a = Atom("i1", Action("use", "k1"))
        b = Atom("i2", Action("use", "k2"))
        assert evaluate(s, "r1", And(a, b))
        assert not evaluate(s, "r2", a)
        assert evaluate(s, "r2", Or(a, Not(a)))
        assert evaluate(s, "r2", Implies(a, FALSE))
        assert evaluate(s, "r1", Iff(a, b))
        assert evaluate(s, "r1", TRUE) and not evaluate(s, "r1", FALSE)

    def test_knowledge_is_block_quantification(self, swap_system):
        s = swap_system
        posted = Atom("k1", Action("post", "c1"))
        somewhere = Or(posted, Atom("k2", Action("post", "c1")))
        assert not evaluate(s, "r1", Knows("j", posted))
        assert evaluate(s, "r1", Knows("j", somewhere))
        assert evaluate(s, "r1", Poss("j", posted))
        assert evaluate(s, "r3", Knows("j", Atom("i1", Action("use", "k1"))))
        assert not evaluate(s, "r3", Poss("j", posted))

    def test_valid_reports_first_failing_run(self, swap_system):
        v = valid(swap_system, Atom("i1", Action("use", "k1")))
        assert not v.holds and v.counterexample == "r2"
        assert valid(swap_system, TRUE).holds

    def test_nothing_makes_false_possible(self):
        s = system_of(runs=[("only", [("i1", "use(k1)")])], blocks=[["only"]])
        assert not valid(s, Poss("j", FALSE)).holds

    def test_undeclared_names_rejected(self, swap_system):
        with pytest.raises(ValidationError, match="undeclared agent"):
            evaluate(swap_system, "r1", Atom("zz", Action("use", "k1")))
        with pytest.raises(ValidationError, match="undeclared action"):
            evaluate(swap_system, "r1", Atom("i1", Action("use", "k9")))
        with pytest.raises(ValidationError, match="no declared partition"):
            valid(swap_system, Knows("i1", TRUE))
        check_names(swap_system, Knows("j", Atom("i1", Action("use", "k1"))))

    def test_names_are_checked_once_per_distinct_node(self, swap_system, monkeypatch):
        agents = []
        has_agent = InterpretedSystem.has_agent
        monkeypatch.setattr(InterpretedSystem, "has_agent",
                            lambda system, name: agents.append(name) or has_agent(system, name))
        f = USE_K1
        for _ in range(12):
            f = And(f, f)
        check_names(swap_system, f)
        assert agents == ["i1"]  # a tree walk would check 4,096 leaves

    def test_first_name_error_is_the_pre_order_one(self, swap_system):
        # The modality is checked before the atom below it.
        with pytest.raises(ValidationError, match="^'zz' has no declared partition$"):
            valid(swap_system, parse("K[zz] theta(yy, use(k1))"))
        shared = Atom("yy", Action("use", "k1"))
        with pytest.raises(ValidationError, match="^'zz' has no declared partition$"):
            valid(swap_system, And(shared, Poss("zz", And(shared, shared))))

    def test_conj_disj_folds(self, swap_system):
        assert conj([]) is TRUE and disj([]) is FALSE
        a = Atom("i1", Action("use", "k1"))
        assert conj([a]) is a and disj([a]) is a
        assert evaluate(swap_system, "r1", conj([a, TRUE]))
        assert not evaluate(swap_system, "r1", disj([FALSE, Not(a)]))


class TestModalLaws:
    @given(formulas())
    @settings(max_examples=300, deadline=None)
    def test_duality(self, f):
        s = _LAW_SYSTEM
        ev = Evaluator(s)
        for run in s.runs:
            assert ev.evaluate(Poss("j", f), run) == \
                ev.evaluate(Not(Knows("j", Not(f))), run)

    @given(formulas())
    @settings(max_examples=300, deadline=None)
    def test_veridicality(self, f):
        s = _LAW_SYSTEM
        ev = Evaluator(s)
        for run in s.runs:
            if ev.evaluate(Knows("j", f), run):
                assert ev.evaluate(f, run)
            if ev.evaluate(f, run):
                assert ev.evaluate(Poss("j", f), run)

    @given(formulas())
    @settings(max_examples=300, deadline=None)
    def test_knowledge_constant_on_blocks(self, f):
        s = _LAW_SYSTEM
        ev = Evaluator(s)
        for run in s.runs:
            block = s.kernel("j", run)
            values = {ev.evaluate(Knows("j", f), r) for r in block}
            assert len(values) == 1

    @given(formulas(max_leaves=8))
    @settings(max_examples=300, deadline=None)
    def test_block_merge_metamorphic(self, f):
        """Merging two of j's blocks grows kernels: possibility of a
        modality-free formula is monotone, knowledge antitone."""
        if _mentions_modality(f):
            return
        merged = system_of(
            runs=[(r.run_id, sorted(r.facts)) for r in _LAW_SYSTEM.runs],
            blocks=[["r1", "r2", "r3"], ["r4"]])
        ev0, ev1 = Evaluator(_LAW_SYSTEM), Evaluator(merged)
        for run_id in ("r1", "r2", "r3"):
            r0, r1 = _LAW_SYSTEM.run(run_id), merged.run(run_id)
            if ev0.evaluate(Poss("j", f), r0):
                assert ev1.evaluate(Poss("j", f), r1)
            if ev1.evaluate(Knows("j", f), r1):
                assert ev0.evaluate(Knows("j", f), r0)


def _mentions_modality(f):
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (Knows, Poss)):
            return True
        for attr in ("child", "left", "right"):
            if hasattr(node, attr):
                stack.append(getattr(node, attr))
    return False


_LAW_SYSTEM = system_of(
    runs=[("r1", [("i1", "use(k1)"), ("k1", "post(c1)")]),
          ("r2", [("i2", "use(k1)"), ("k1", "post(c2)")]),
          ("r3", []),
          ("r4", [("i1", "use(k2)"), ("i2", "use(k2)"), ("k2", "post(c1)")])],
    blocks=[["r1", "r2"], ["r3"], ["r4"]])


class TestParsing:
    def test_implication_example(self):
        f = parse("theta(i1, use(k1)) -> P[j] theta(i2, use(k1))")
        assert f == Implies(Atom("i1", Action("use", "k1")),
                            Poss("j", Atom("i2", Action("use", "k1"))))

    def test_knowledge_of_negation(self):
        f = parse("K[j] !theta(k1, post(c1))")
        assert f == Knows("j", Not(Atom("k1", Action("post", "c1"))))

    def test_parameterless_atom(self):
        assert parse("theta(i1, vote)") == Atom("i1", Action("vote", ""))

    def test_constants_and_parens(self):
        assert parse("true & (false | !true)") == And(TRUE, Or(FALSE, Not(TRUE)))

    def test_precedence(self):
        f = parse("!theta(i1, a) & theta(i2, b) | true -> false <-> true")
        assert isinstance(f, Iff)
        assert isinstance(f.left, Implies)
        assert isinstance(f.left.left, Or)
        assert isinstance(f.left.left.left, And)
        assert isinstance(f.left.left.left.left, Not)

    def test_right_associative_implication(self):
        f = parse("true -> false -> true")
        assert f == Implies(TRUE, Implies(FALSE, TRUE))

    def test_modality_binds_like_negation(self):
        f = parse("K[j] theta(i1, a) & theta(i2, b)")
        assert isinstance(f, And) and isinstance(f.left, Knows)

    def test_missing_comma_message(self):
        with pytest.raises(ParseError) as err:
            parse("theta(i1 use(k1))")
        assert "expected ','" in str(err.value)

    @pytest.mark.parametrize("bad", [
        "", "theta(i1,)", "theta(, a)", "K[] true", "K[j true",
        "theta(i1, a) &", "(true", "true)", "theta(i1, a(b)c)", "-> true",
    ])
    def test_malformed_inputs(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("true & ???")
        assert err.value.position == 7

    def test_negations_past_the_recursion_limit(self):
        f = TRUE
        for _ in range(1200):
            f = Not(f)
        assert parse("!" * 1200 + "true") is f


class TestRendering:
    def test_goldens(self):
        assert render(Poss("j", Atom("i1", Action("use", "k1")))) == \
            "P[j] theta(i1, use(k1))"
        assert render(And(Atom("i1", Action("use", "k1")),
                          Atom("k1", Action("post", "c1")))) == \
            "theta(i1, use(k1)) & theta(k1, post(c1))"
        assert render(Implies(Implies(TRUE, FALSE), TRUE)) == \
            "(true -> false) -> true"
        assert render(Not(And(TRUE, FALSE))) == "!(true & false)"

    @pytest.mark.parametrize("build, text", [
        (Not, lambda t, n: "!" * n + t),
        (lambda f: And(f, USE_K1), lambda t, n: " & ".join([t] * (n + 1))),
        (lambda f: And(USE_K1, f),
         lambda t, n: f"{t} & (" * (n - 1) + f"{t} & {t}" + ")" * (n - 1)),
        (lambda f: Implies(USE_K1, f), lambda t, n: f"{t} -> " * n + t),
        (lambda f: Implies(f, USE_K1),
         lambda t, n: "(" * (n - 1) + t + f" -> {t})" * (n - 1) + f" -> {t}"),
    ], ids=["not", "left-and", "right-and", "right-implies", "left-implies"])
    def test_deep_chains(self, build, text):
        """Rendering and parsing keep their own stacks, so 10,000-deep chains
        render, with brackets only where they are needed, parse back to the
        same node, and pickle."""
        f = USE_K1
        for _ in range(10_000):
            f = build(f)
        assert render(f) == text(render(USE_K1), 10_000)
        parsed = parse(render(f))
        assert parsed is f
        assert pickle.loads(pickle.dumps(parsed)) is f

    @given(formulas())
    @settings(max_examples=500, deadline=None)
    def test_round_trip_hypothesis(self, f):
        assert parse(render(f)) == f

    def test_round_trip_seeded_corpus(self):
        rng = random.Random(0x5eed)
        for _ in range(1200):
            f = seeded_formula(rng, depth=5)
            text = render(f)
            assert parse(text) == f
            assert render(parse(text)) == text

    def test_conj_and_disj_are_balanced(self):
        parts = [Atom(AGENTS[n % 5], ACTIONS[n % 4]) for n in range(10_000)]
        for join, node in ((conj, And), (disj, Or)):
            assert join(parts[:3]) == node(node(parts[0], parts[1]), parts[2])
            f, depth = join(parts), 0
            while isinstance(f, node):
                f, depth = f.left, depth + 1
            assert f == parts[0] and depth == 14
            assert parse(render(join(parts))) == join(parts)

    def test_whitespace_insensitive(self):
        dense = parse("theta(i1,use(k1))->P[j]theta(i2,use(k1))")
        spaced = parse("  theta( i1 , use(k1) )  ->  P[ j ]  theta(i2, use(k1)) ")
        assert dense == spaced
