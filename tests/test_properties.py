"""Property compilation and checking: golden formulas, pinned verdicts on the
bundled systems, validation of kind-specific fields, and the semantic laws
(vacuity, subset monotonicity, exclusivity implications) brute-forced over
generated systems."""
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncheck import (Action, And, Atom, GenConfig, Implies, Knows, Not,
                       Poss, PropertyKind, PropertyReport, PropertySpec,
                       ValidationError, anonymous_up_to, build_system,
                       check_property, compile_property, exhaustive_systems,
                       maximally_identified, maximally_onymous,
                       minimally_anonymous, minimally_private, private_up_to,
                       random_system, render, role_interchangeable, valid)
from anoncheck import properties

USE_K1 = Action.parse("use(k1)")
USE_K2 = Action.parse("use(k2)")
POST_C1 = Action.parse("post(c1)")
POST_C2 = Action.parse("post(c2)")
SUB_C1 = Action.parse("submit(c1)")
SUB_C2 = Action.parse("submit(c2)")


def tiny(runs, blocks=None, actions=("a", "b")):
    """Two subjects plus one observer over bare action names."""
    run_ids = [rid for rid, _ in runs]
    return build_system(
        name="t",
        agents=[("i1", "real"), ("i2", "real"), ("j", "observer")],
        actions=actions,
        runs=runs,
        observers={"j": blocks if blocks is not None else [run_ids]},
    )


class TestCompile:
    def test_anonymous_up_to_structure(self, s12):
        spec = anonymous_up_to("i1", USE_K1, ["i1", "i2"], "j")
        expected = Implies(
            Atom("i1", USE_K1),
            And(Poss("j", Atom("i1", USE_K1)), Poss("j", Atom("i2", USE_K1))),
        )
        assert compile_property(s12, spec) == expected

    def test_anonymous_up_to_render(self, s12):
        spec = anonymous_up_to("i1", USE_K1, ["i1", "i2"], "j")
        got = render(compile_property(s12, spec))
        assert got == "theta(i1, use(k1)) -> P[j] theta(i1, use(k1)) & P[j] theta(i2, use(k1))"

    def test_private_up_to_structure(self, s12):
        spec = private_up_to("k1", POST_C1, [POST_C1, POST_C2], "j")
        expected = Implies(
            Atom("k1", POST_C1),
            And(Poss("j", Atom("k1", POST_C1)), Poss("j", Atom("k1", POST_C2))),
        )
        assert compile_property(s12, spec) == expected

    def test_minimally_anonymous_structure(self, s12):
        spec = minimally_anonymous("i1", USE_K1, "j")
        expected = Implies(Atom("i1", USE_K1), Poss("j", Not(Atom("i1", USE_K1))))
        assert compile_property(s12, spec) == expected

    def test_maximally_onymous_structure(self, s12):
        spec = maximally_onymous("i1", USE_K1, "j")
        expected = Implies(Atom("i1", USE_K1), Knows("j", Atom("i1", USE_K1)))
        assert compile_property(s12, spec) == expected

    def test_expansion_follows_declaration_order(self, s12):
        # The candidate order as written is irrelevant: conjuncts come out
        # in system declaration order either way.
        fwd = anonymous_up_to("i1", USE_K1, ["i1", "i2"], "j")
        rev = anonymous_up_to("i1", USE_K1, ["i2", "i1"], "j")
        assert compile_property(s12, fwd) == compile_property(s12, rev)

    def test_role_interchangeable_default_universe(self):
        sys = tiny([("r1", [("i1", "a"), ("i2", "b")])])
        a = Action.parse("a")
        implicit = role_interchangeable("i1", a, "j")
        explicit = role_interchangeable("i1", a, "j", [Action.parse("a"), Action.parse("b")])
        assert compile_property(sys, implicit) == compile_property(sys, explicit)

    def test_role_interchangeable_skips_observer_and_pairs_swaps(self):
        sys = tiny([("r1", [("i1", "a"), ("i2", "b")])])
        a, b = Action.parse("a"), Action.parse("b")
        got = compile_property(sys, role_interchangeable("i1", a, "j"))
        conjuncts = [
            Implies(Atom(i2, a2), Poss("j", And(Atom(i2, a), Atom("i1", a2))))
            for i2 in ("i1", "i2")
            for a2 in (a, b)
        ]
        expected = Implies(
            Atom("i1", a),
            And(And(conjuncts[0], conjuncts[1]), And(conjuncts[2], conjuncts[3])),
        )
        assert got == expected


class TestSpecValidation:
    def test_anonymity_set_required(self):
        with pytest.raises(ValidationError, match="anonymous-up-to needs anonymity_set"):
            PropertySpec(PropertyKind.ANONYMOUS_UP_TO, "i1", USE_K1, "j")

    def test_privacy_set_required(self):
        with pytest.raises(ValidationError, match="private-up-to needs privacy_set"):
            PropertySpec(PropertyKind.PRIVATE_UP_TO, "i1", USE_K1, "j")

    def test_unused_field_rejected(self):
        with pytest.raises(ValidationError, match="minimally-anonymous does not take anonymity_set"):
            PropertySpec(PropertyKind.MINIMALLY_ANONYMOUS, "i1", USE_K1, "j",
                         anonymity_set=("i1",))
        with pytest.raises(ValidationError, match="does not take action_universe"):
            PropertySpec(PropertyKind.MAXIMALLY_ONYMOUS, "i1", USE_K1, "j",
                         action_universe=(USE_K1,))
        with pytest.raises(ValidationError, match="role-interchangeable does not take privacy_set"):
            PropertySpec(PropertyKind.ROLE_INTERCHANGEABLE, "i1", USE_K1, "j",
                         privacy_set=(USE_K1,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="^unknown property kind 'bogus'$"):
            PropertySpec("bogus", "i1", "use(k1)", "j")

    def test_set_fields_coerced_to_tuples(self):
        spec = PropertySpec(PropertyKind.ANONYMOUS_UP_TO, "i1", USE_K1, "j",
                            anonymity_set=["i2", "i1"])
        assert spec.anonymity_set == ("i2", "i1")

    @pytest.mark.parametrize("kind", list(PropertyKind))
    def test_actions_as_text_pairs_or_actions_give_one_report(self, s12, kind):
        """An action given as text, as a (family, param) pair or as an
        Action, in the scrutinized action and in a set of actions, makes the
        same spec and report, as build_system takes all three; malformed
        text is rejected."""
        field = properties._FORMS[kind].field
        sets = {"anonymity_set": ("i1", "i2"), "privacy_set": (USE_K1, USE_K2),
                "action_universe": (USE_K2, USE_K1)}

        def spec(form):
            given = {} if field is None else {
                field: sets[field] if field == "anonymity_set" else map(form, sets[field])}
            return PropertySpec(kind, "i1", form(USE_K1), "j", **given)

        want = spec(lambda a: a)
        for form in (str, tuple):
            got = spec(form)
            assert got == want and type(got.action) is Action
            assert check_property(s12, got) == check_property(s12, want)
        with pytest.raises(ValidationError, match=r"^malformed action 'use\(k1'$"):
            PropertySpec(kind, "i1", "use(k1", "j", **({} if field is None else {
                field: sets[field] if field == "anonymity_set" else ["use(k1"]}))
        if field not in (None, "anonymity_set"):
            with pytest.raises(ValidationError, match=r"^malformed action 'post\(\)'$"):
                PropertySpec(kind, "i1", USE_K1, "j", **{field: [USE_K1, "post()"]})

    def test_undeclared_names_rejected_at_compile(self, s12):
        with pytest.raises(ValidationError, match="undeclared agent 'ghost'"):
            compile_property(s12, anonymous_up_to("i1", USE_K1, ["i1", "ghost"], "j"))
        with pytest.raises(ValidationError, match="undeclared action"):
            compile_property(s12, private_up_to("k1", POST_C1, [Action.parse("post(zz)")], "j"))
        with pytest.raises(ValidationError, match="undeclared agent 'nobody'"):
            check_property(s12, minimally_anonymous("nobody", USE_K1, "j"))
        with pytest.raises(ValidationError, match="undeclared action"):
            check_property(s12, minimally_anonymous("i1", Action.parse("fly"), "j"))
        with pytest.raises(ValidationError, match="'i1' has no declared partition"):
            check_property(s12, minimally_anonymous("i1", USE_K1, "i1"))

    def test_undeclared_universe_names_the_first_given(self):
        # Sets of strings iterate in an order that depends on string hashing.
        code = ("from anoncheck import Action, anonymous_up_to, check_property, paper_system\n"
                "s12 = paper_system('s12')\n"
                "for names in (['x3', 'i1', 'x1', 'x2'], ['x1', 'x2', 'x3']):\n"
                "    try:\n"
                "        check_property(s12, anonymous_up_to('i1', Action('use', 'k1'), names, 'j'))\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        messages = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                                   text=True, check=True, timeout=60,
                                   env={**env, "PYTHONHASHSEED": str(seed)}).stdout
                    for seed in range(1, 6)}
        assert messages == {"undeclared agent 'x3' in property universe\n"
                            "undeclared agent 'x1' in property universe\n"}


class TestPinnedVerdicts:
    """Frozen results on the bundled two-agent mixing systems."""

    def test_base_anonymity_holds(self, s12):
        rep = check_property(s12, anonymous_up_to("i1", USE_K1, ["i1", "i2"], "j"))
        assert rep.holds and rep.counterexample is None

    def test_base_privacy_holds(self, s12):
        rep = check_property(s12, private_up_to("k1", POST_C1, [POST_C1, POST_C2], "j"))
        assert rep.holds and rep.counterexample is None

    def test_base_identification_fails(self, s12):
        rep = check_property(s12, maximally_onymous("i1", USE_K1, "j"))
        assert not rep.holds
        assert rep.counterexample == ("r1", "K[j] theta(i1, use(k1))")

    def test_derived_anonymity_fails(self, s12_seq):
        rep = check_property(s12_seq, anonymous_up_to("i1", SUB_C1, ["i1", "i2"], "j"))
        assert not rep.holds
        assert rep.counterexample == ("r1", "i2")

    def test_derived_privacy_fails(self, s12_seq):
        rep = check_property(s12_seq, private_up_to("i2", SUB_C2, [SUB_C1, SUB_C2], "j"))
        assert not rep.holds
        assert rep.counterexample == ("r1", "submit(c1)")

    def test_derived_minimal_anonymity_fails(self, s12_seq):
        rep = check_property(s12_seq, minimally_anonymous("i1", SUB_C1, "j"))
        assert not rep.holds
        assert rep.counterexample == ("r1", "P[j] !theta(i1, submit(c1))")

    def test_derived_submits_fully_identified(self, s12_seq):
        assert check_property(s12_seq, maximally_onymous("i1", SUB_C1, "j")).holds
        assert check_property(s12_seq, maximally_identified("i1", SUB_C1, "j")).holds

    def test_counterexample_stable_under_set_order(self, s12_seq):
        fwd = check_property(s12_seq, anonymous_up_to("i1", SUB_C1, ["i1", "i2"], "j"))
        rev = check_property(s12_seq, anonymous_up_to("i1", SUB_C1, ["i2", "i1"], "j"))
        assert fwd.counterexample == rev.counterexample == ("r1", "i2")

    def test_componentwise_interchangeability(self, s12):
        uses = [USE_K1, USE_K2]
        for i, k in itertools.product(("i1", "i2"), uses):
            assert check_property(s12, role_interchangeable(i, k, "j", uses)).holds

    def test_shared_pseudonym_privacy_split(self, s56_seq):
        # One subject submits both articles in its runs, the other never
        # performs a submit at all.
        for c in (SUB_C1, SUB_C2):
            bad = check_property(s56_seq, minimally_private("i1", c, "j"))
            assert not bad.holds and bad.counterexample[0] == "r5"
            assert check_property(s56_seq, minimally_private("i2", c, "j")).holds

    def test_interchangeability_counterexample(self):
        sys = tiny([("r1", [("i1", "a"), ("i2", "b")])])
        rep = check_property(sys, role_interchangeable("i1", Action.parse("a"), "j"))
        assert not rep.holds
        assert rep.counterexample == ("r1", "i2:b")


class TestEquivalences:
    """Kinds that differ in name only compile to the identical formula."""

    PAIRS = [
        (PropertyKind.MINIMALLY_PRIVATE, PropertyKind.MINIMALLY_ANONYMOUS),
        (PropertyKind.MAXIMALLY_IDENTIFIED, PropertyKind.MAXIMALLY_ONYMOUS),
    ]

    @pytest.mark.parametrize("left,right", PAIRS, ids=lambda k: k.value)
    def test_compiled_formulas_identical(self, s12, left, right):
        for subject, action in [("i1", USE_K1), ("k1", POST_C1), ("i2", USE_K2)]:
            a = compile_property(s12, PropertySpec(left, subject, action, "j"))
            b = compile_property(s12, PropertySpec(right, subject, action, "j"))
            assert a == b

    @pytest.mark.parametrize("left,right", PAIRS, ids=lambda k: k.value)
    def test_reports_agree(self, s12_seq, left, right):
        for subject, action in [("i1", SUB_C1), ("i2", SUB_C2), ("k1", POST_C1)]:
            a = check_property(s12_seq, PropertySpec(left, subject, action, "j"))
            b = check_property(s12_seq, PropertySpec(right, subject, action, "j"))
            assert (a.holds, a.counterexample) == (b.holds, b.counterexample)


class TestVacuity:
    def test_unperformed_fact_satisfies_everything(self):
        sys = tiny([("r1", [("i1", "a")])])
        a, b = Action.parse("a"), Action.parse("b")
        specs = [
            anonymous_up_to("i2", a, ["i1", "i2"], "j"),
            minimally_anonymous("i2", a, "j"),
            private_up_to("i2", a, [a, b], "j"),
            minimally_private("i2", a, "j"),
            role_interchangeable("i2", a, "j"),
            maximally_onymous("i2", a, "j"),
            maximally_identified("i2", a, "j"),
        ]
        for spec in specs:
            rep = check_property(sys, spec)
            assert rep.holds and rep.counterexample is None, spec.kind

    def test_self_anonymity_is_trivial(self):
        # The singleton candidate set {subject} only asserts that the fact
        # is considered possible, which is immediate wherever it holds.
        for seed in range(60):
            cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform")
            sys = random_system(cfg)
            subject, action = sys.agents[0], sys.actions[0]
            rep = check_property(sys, anonymous_up_to(subject, action, [subject], "j"))
            assert rep.holds


class TestReportConsistency:
    def test_witness_is_the_compiled_formula(self, s12):
        spec = anonymous_up_to("i1", USE_K1, ["i1", "i2"], "j")
        rep = check_property(s12, spec)
        assert rep.spec is spec
        assert rep.witness_formula == compile_property(s12, spec)

    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_holds_agrees_with_validity(self, seed, pick):
        cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform")
        sys = random_system(cfg)
        subject = sys.agents[seed % len(sys.agents)]
        action = sys.actions[seed % len(sys.actions)]
        spec = [
            anonymous_up_to(subject, action, sys.agents[:2], "j"),
            minimally_anonymous(subject, action, "j"),
            private_up_to(subject, action, sys.actions[:2], "j"),
            minimally_private(subject, action, "j"),
            role_interchangeable(subject, action, "j"),
            maximally_onymous(subject, action, "j"),
            maximally_identified(subject, action, "j"),
        ][pick]
        rep = check_property(sys, spec)
        verdict = valid(sys, rep.witness_formula)
        assert rep.holds == verdict.holds
        if not rep.holds:
            assert rep.counterexample[0] == verdict.counterexample


class TestMonotonicity:
    def test_anonymity_shrinks_to_subsets(self):
        # theta(i,a) -> AND over candidates: dropping candidates only weakens
        # the conjunction, so verdicts are monotone under set inclusion.
        hits = 0
        for seed in range(400):
            cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform")
            sys = random_system(cfg)
            subject, action = sys.agents[0], sys.actions[0]
            candidates = [a for a in sys.agents if a != "j"]
            full = check_property(sys, anonymous_up_to(subject, action, candidates, "j"))
            if not full.holds:
                continue
            hits += 1
            for n in range(1, len(candidates)):
                for sub in itertools.combinations(candidates, n):
                    assert check_property(
                        sys, anonymous_up_to(subject, action, sub, "j")).holds
        assert hits > 20

    def test_privacy_shrinks_to_subsets(self):
        hits = 0
        for seed in range(400):
            cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform")
            sys = random_system(cfg)
            subject, action = sys.agents[0], sys.actions[0]
            universe = list(sys.actions)
            full = check_property(sys, private_up_to(subject, action, universe, "j"))
            if not full.holds:
                continue
            hits += 1
            for sub in itertools.combinations(universe, 2):
                assert check_property(
                    sys, private_up_to(subject, action, sub, "j")).holds
        assert hits > 20


def _performers(run, action, agents):
    return [i for i in agents if (i, action) in run.facts]


class TestExclusivityImplications:
    """With at most one performer per run, anonymity up to a second candidate
    forces minimal anonymity, and privacy up to a second action forces
    minimal privacy.  Brute-forced over a slice of the exhaustive 2/2/2
    universe."""

    def test_exclusive_performer_implication(self):
        checked = nonvacuous = 0
        for sys in itertools.islice(exhaustive_systems("sequential"), 0, None, 17):
            if any(len(_performers(r, USE_K1, ("i1", "i2"))) > 1 for r in sys.runs):
                continue
            for subject in ("i1", "i2"):
                anon = check_property(
                    sys, anonymous_up_to(subject, USE_K1, ["i1", "i2"], "j"))
                if not anon.holds:
                    continue
                checked += 1
                if any((subject, USE_K1) in r.facts for r in sys.runs):
                    nonvacuous += 1
                assert check_property(
                    sys, minimally_anonymous(subject, USE_K1, "j")).holds
        assert checked > 500 and nonvacuous > 50

    def test_exclusive_action_implication(self):
        checked = nonvacuous = 0
        posts = [POST_C1, POST_C2]
        for sys in itertools.islice(exhaustive_systems("sequential"), 0, None, 17):
            if any(len([a for a in posts if ("k1", a) in r.facts]) > 1 for r in sys.runs):
                continue
            priv = check_property(sys, private_up_to("k1", POST_C1, posts, "j"))
            if not priv.holds:
                continue
            checked += 1
            if any(("k1", POST_C1) in r.facts for r in sys.runs):
                nonvacuous += 1
            assert check_property(sys, minimally_private("k1", POST_C1, "j")).holds
        assert checked > 500 and nonvacuous > 50
