"""Sequential and parallel derivation, the independence variants, and the
structural side conditions, with verdicts frozen on the bundled systems."""
import dataclasses
import itertools
import random

import pytest

import reference
from anoncheck import (Action, GenConfig, IndependenceKind, ParallelSchema,
                       SequentialSchema, StructuralCondition, StructuralKind,
                       ValidationError, build_system, check_independence,
                       check_structural, derive_parallel, derive_sequential,
                       exhaustive_systems, parallel_subjects, parse_system,
                       random_system, render_system)
from anoncheck.composition import (independence_obligations, standard_parallel_schema,
                                   standard_sequential_schema, structural_formula)
from anoncheck.formula import (And, Atom, Evaluator, Iff, Implies, Not, Poss, conj, disj,
                               parse, render, valid)
from anoncheck.registry import FIXTURE_NAMES, fixture_system, paper_system
from anoncheck.scenarios import _shape

IK = IndependenceKind


def facts_of(system, run_id):
    run = next(r for r in system.runs if r.run_id == run_id)
    return sorted(f"{i}:{a}" for i, a in run.facts)


class TestSequentialDerivation:
    def test_mixing_runs_gain_submits(self, s12, s12_seq):
        assert [str(a) for a in s12_seq.actions] == [
            "use(k1)", "use(k2)", "post(c1)", "post(c2)", "submit(c1)", "submit(c2)"]
        assert facts_of(s12_seq, "r1") == [
            "i1:submit(c1)", "i1:use(k1)", "i2:submit(c2)", "i2:use(k2)",
            "k1:post(c1)", "k2:post(c2)"]
        assert facts_of(s12_seq, "r2") == [
            "i1:submit(c1)", "i1:use(k2)", "i2:submit(c2)", "i2:use(k1)",
            "k1:post(c2)", "k2:post(c1)"]

    def test_shared_pseudonym_attributes_both_articles(self, s56_seq):
        for rid in ("r5", "r6"):
            got = facts_of(s56_seq, rid)
            assert "i1:submit(c1)" in got and "i1:submit(c2)" in got
            assert not any(f.startswith("i2:submit") for f in got)

    def test_runs_and_partitions_unchanged(self, s12, s12_seq):
        assert [r.run_id for r in s12_seq.runs] == [r.run_id for r in s12.runs]
        assert s12_seq.observers.keys() == s12.observers.keys()
        for obs, part in s12.observers.items():
            got = {frozenset(b) for b in s12_seq.observers[obs].blocks}
            want = {frozenset(b) for b in part.blocks}
            assert got == want

    def test_old_atoms_keep_their_truth_values(self):
        for seed in range(80):
            cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform")
            base = random_system(cfg)
            schema = standard_sequential_schema(base)
            derived = derive_sequential(base, schema)
            ev_b, ev_d = Evaluator(base), Evaluator(derived)
            rng = random.Random(seed)
            for _ in range(20):
                i = rng.choice(base.agents)
                a = rng.choice(base.actions)
                f = Poss("j", Atom(i, a)) if rng.random() < 0.5 else Atom(i, a)
                if rng.random() < 0.3:
                    f = Not(f)
                for rb, rd in zip(base.runs, derived.runs):
                    assert ev_b.evaluate(f, rb) == ev_d.evaluate(f, rd)

    def test_unposted_article_yields_no_submits(self):
        sys = build_system(
            name="quiet",
            agents=[("i1", "real"), ("k1", "pseudo"), ("j", "observer")],
            actions=["use(k1)", "post(c1)", ],
            runs=[("r1", [("i1", "use(k1)")])],
            observers={"j": [["r1"]]})
        schema = SequentialSchema("use", ("i1",), ("k1",), "post", ("c1",), "submit")
        derived = derive_sequential(sys, schema)
        assert facts_of(derived, "r1") == ["i1:use(k1)"]
        assert str(derived.actions[-1]) == "submit(c1)"

    def test_derived_family_must_be_fresh(self, s12):
        schema = standard_sequential_schema(s12)
        derived = derive_sequential(s12, schema)
        with pytest.raises(ValidationError, match="derived family 'submit' already declared"):
            derive_sequential(derived, schema)

    def test_repeated_parameter_rejected(self, s12):
        schema = dataclasses.replace(standard_sequential_schema(s12),
                                     second_params=("c1", "c1"))
        with pytest.raises(ValidationError, match=r"^duplicate action submit\(c1\)$"):
            derive_sequential(s12, schema)

    def test_schema_names_must_be_declared(self, s12):
        good = standard_sequential_schema(s12)
        with pytest.raises(ValidationError, match="first-stage agent 'ghost'"):
            derive_sequential(s12, dataclasses.replace(good, first_agents=("ghost",)))
        with pytest.raises(ValidationError, match="intermediary 'c1' must be a declared agent"):
            derive_sequential(s12, dataclasses.replace(good, first_params=("c1",)))
        with pytest.raises(ValidationError, match="undeclared action post\\(zz\\)"):
            derive_sequential(s12, dataclasses.replace(good, second_params=("zz",)))


class TestParallelDerivation:
    def test_joint_facts_added(self, par_swap, par_swap_joint):
        assert facts_of(par_swap_joint, "p1") == [
            "i1:act_a(c1)", "i1:act_b(c1)", "i1:joint(c1)",
            "i2:act_a(c2)", "i2:act_b(c2)", "i2:joint(c2)"]
        assert facts_of(par_swap_joint, "p2") == [
            "i1:act_a(c2)", "i1:act_b(c2)", "i1:joint(c2)",
            "i2:act_a(c1)", "i2:act_b(c1)", "i2:joint(c1)"]

    def test_one_stage_alone_yields_nothing(self):
        sys = build_system(
            name="half", agents=[("i1", "real"), ("j", "observer")],
            actions=["act_a(c1)", "act_b(c1)"],
            runs=[("q1", [("i1", "act_a(c1)")]), ("q2", [("i1", "act_b(c1)")])],
            observers={"j": [["q1", "q2"]]})
        derived = derive_parallel(sys, ParallelSchema("act_a", "act_b", "joint", ("c1",)))
        assert facts_of(derived, "q1") == ["i1:act_a(c1)"]
        assert facts_of(derived, "q2") == ["i1:act_b(c1)"]

    def test_derived_family_must_be_fresh(self, par_swap, par_swap_joint):
        schema = standard_parallel_schema(par_swap)
        with pytest.raises(ValidationError, match="already declared"):
            derive_parallel(par_swap_joint, schema)

    def test_mismatched_parameter_sets_rejected(self, par_swap):
        with pytest.raises(ValidationError, match="parameter sets differ"):
            standard_parallel_schema(par_swap, family_a="act_a", family_b="use")

    def test_repeated_parameter_rejected(self, par_swap):
        schema = dataclasses.replace(standard_parallel_schema(par_swap), params=("c1", "c1"))
        with pytest.raises(ValidationError, match=r"^duplicate action joint\(c1\)$"):
            derive_parallel(par_swap, schema)


@pytest.mark.parametrize("name,field,entries,error", [
    ("s1234", "second_params", ("c1", "c1"), r"duplicate action submit\(c1\)"),
    ("s1234", "first_params", ("k1", "k1"), "duplicate schema intermediary 'k1'"),
    ("s1234", "first_agents", ("i2", "i1", "i2"), "duplicate schema first-stage agent 'i2'"),
    ("par_swap", "params", ("c1", "c1"), r"duplicate action joint\(c1\)"),
])
def test_a_schema_entry_listed_twice_is_rejected_alike(name, field, entries, error):
    """Independence and derivation both refuse a schema that names an entry
    twice, with one error naming it."""
    system = fixture_system(name)
    flavor = "sequential" if name == "s1234" else "parallel"
    infer = standard_sequential_schema if flavor == "sequential" else standard_parallel_schema
    schema = dataclasses.replace(infer(system), **{field: entries})
    kind = IK.BASIC if flavor == "sequential" else IK.PARALLEL
    with pytest.raises(ValidationError, match=f"^{error}$"):
        check_independence(system, "j", schema, kind)
    with pytest.raises(ValidationError, match=f"^{error}$"):
        derive_sequential(system, schema)


def test_one_derive_function_takes_either_schema(s12, s12_seq, par_swap, par_swap_joint):
    assert derive_sequential is derive_parallel
    assert derive_parallel(s12, standard_sequential_schema(s12)) == s12_seq
    assert derive_sequential(par_swap, standard_parallel_schema(par_swap)) == par_swap_joint


_FLAVORS = {"sequential": (standard_sequential_schema, derive_sequential),
            "parallel": (standard_parallel_schema, derive_parallel)}


def _derivation_cases(flavor):
    """(base, schema, derived) on every bundled fixture of the flavor, on
    every 997th exhaustive system and on 200 random systems per fact style
    (partition policies alternating)."""
    infer, derive = _FLAVORS[flavor]
    systems = [fixture_system(name) for name in FIXTURE_NAMES
               if name.startswith("par_") == (flavor == "parallel")]
    systems += [s for n, s in enumerate(exhaustive_systems(flavor)) if n % 997 == 0]
    systems += [random_system(GenConfig(seed=seed, flavor=flavor, style=style,
                                        partition=("single", "random")[seed % 2]))
                for style in ("uniform", "matching") for seed in range(200)]
    for base in systems:
        schema = infer(base)
        yield base, schema, derive(base, schema)


def _definitions(system, schema):
    """One formula per derived fact theta(x, derived(c)), x any declared
    agent, stating the composition's definition of that fact."""
    if isinstance(schema, SequentialSchema):
        first, second = schema.first_family, schema.second_family
        for x in system.agents:
            for c in schema.second_params:
                yield Iff(Atom(x, Action(schema.derived_family, c)),
                          disj(And(Atom(x, Action(first, k)), Atom(k, Action(second, c)))
                               for k in schema.first_params))
    else:
        for x in system.agents:
            for c in schema.params:
                yield Iff(Atom(x, Action(schema.derived_family, c)),
                          And(Atom(x, Action(schema.family_a, c)),
                              Atom(x, Action(schema.family_b, c))))


class TestDerivationAgainstDefinition:
    @pytest.mark.parametrize("flavor", sorted(_FLAVORS))
    def test_derived_facts_follow_the_definition(self, flavor):
        cases = 0
        for base, schema, derived in _derivation_cases(flavor):
            cases += 1
            assert derived.actions == base.actions + schema.derived_actions
            assert [r.run_id for r in derived.runs] == [r.run_id for r in base.runs]
            for run, old in zip(derived.runs, base.runs):
                assert {f for f in run.facts
                        if f[1].family != schema.derived_family} == old.facts
            ev = Evaluator(derived)
            for f in _definitions(derived, schema):
                assert ev.valid(f).holds, (base.name, f)
        assert cases > 400

    @pytest.mark.parametrize("flavor", sorted(_FLAVORS))
    def test_runs_share_derived_fact_tuples(self, flavor):
        repeats = 0
        for _, schema, derived in _derivation_cases(flavor):
            first: dict = {}
            for run in derived.runs:
                for fact in run.facts:
                    if fact[1].family == schema.derived_family:
                        repeats += fact in first
                        assert first.setdefault(fact, fact) is fact
        assert repeats > 100

    @pytest.mark.parametrize("flavor", sorted(_FLAVORS))
    def test_derived_system_equals_its_validated_copy(self, flavor):
        for base, _, derived in _derivation_cases(flavor):
            copy = parse_system(render_system(derived))
            assert derived == copy, base.name
            assert render_system(copy) == render_system(derived)


INDEP_VERDICTS = {
    # system -> kind -> (holds, counterexample)
    "s12": {
        IK.BASIC: (False, ("r1", "i1,k1,k1,c2")),
        IK.PAIRWISE: (False, ("r1", "i1,k1+i1,k1;k1,c2+k1,c2")),
        IK.DISJUNCTIVE: (False, ("r1", "i1,k1;k1,c2")),
        IK.POS_NEG: (False, ("r1", "i1,k1,!k1,c1")),
        IK.NEG_POS: (False, ("r1", "!i1,k1,k1,c1")),
    },
    "s1234": {k: (True, None) for k in
              (IK.BASIC, IK.PAIRWISE, IK.DISJUNCTIVE, IK.POS_NEG, IK.NEG_POS)},
    "s56": {k: (True, None) for k in
            (IK.BASIC, IK.PAIRWISE, IK.DISJUNCTIVE, IK.POS_NEG, IK.NEG_POS)},
    "s125678": {
        IK.BASIC: (True, None),
        IK.PAIRWISE: (False, ("r1", "i1,k1+i1,k1;k1,c1+k1,c2")),
        IK.DISJUNCTIVE: (True, None),
        IK.POS_NEG: (False, ("r1", "i2,k1,!k1,c2")),
        IK.NEG_POS: (True, None),
    },
    "s129-12": {
        IK.BASIC: (True, None),
        IK.PAIRWISE: (False, ("r1", "i1,k1+i2,k2;k1,c1+k1,c2")),
        IK.DISJUNCTIVE: (True, None),
        IK.POS_NEG: (False, ("r1", "i1,k1,!k1,c1")),
        IK.NEG_POS: (True, None),
    },
}


class TestIndependence:
    @pytest.mark.parametrize("name", sorted(INDEP_VERDICTS))
    def test_frozen_verdicts(self, name):
        system = paper_system(name)
        schema = standard_sequential_schema(system)
        for kind, (holds, cex) in INDEP_VERDICTS[name].items():
            report = check_independence(system, "j", schema, kind)
            assert (report.holds, report.counterexample) == (holds, cex), kind

    def test_report_labels_the_variant(self, s12):
        schema = standard_sequential_schema(s12)
        report = check_independence(s12, "j", schema, IK.PAIRWISE)
        assert report.spec == "independence[pairwise] for j"

    def test_obligation_shape(self, s12):
        # basic: P(u) and P(p) forces P(u and p), quantified over all
        # registration/posting fact pairs
        schema = standard_sequential_schema(s12)
        report = check_independence(s12, "j", schema, IK.BASIC)
        u = Atom("i1", Action.parse("use(k1)"))
        p = Atom("k1", Action.parse("post(c1)"))
        first = Implies(And(Poss("j", u), Poss("j", p)), Poss("j", And(u, p)))
        assert _leftmost_conjunct(report.witness_formula) == first

    def test_singleton_disjuncts_reduce_to_basic(self):
        for name in sorted(INDEP_VERDICTS):
            system = paper_system(name)
            schema = standard_sequential_schema(system)
            basic = check_independence(system, "j", schema, IK.BASIC)
            dis1 = check_independence(system, "j", schema, IK.DISJUNCTIVE, bound=1)
            assert dis1.witness_formula == basic.witness_formula
            assert dis1.holds == basic.holds

    def test_witness_of_a_large_system_evaluates_and_renders(self):
        """The pairwise witness of a 3/3/3 system conjoins 2,025 obligations;
        ``holds`` agrees with ``valid(witness)`` and the witness renders."""
        system = random_system(GenConfig(3, 3, 3, max_runs=4, seed=5))
        schema = standard_sequential_schema(system)
        report = check_independence(system, "j", schema, IK.PAIRWISE)
        assert valid(system, report.witness_formula).holds is report.holds
        assert parse(render(report.witness_formula)) == report.witness_formula

    def test_parallel_verdicts(self, par_swap):
        schema = standard_parallel_schema(par_swap)
        assert check_independence(par_swap, "j", schema, IK.PARALLEL).holds

    def test_parallel_failure_pins_subject_and_param(self):
        sys = build_system(
            name="p", agents=[("i1", "real"), ("j", "observer")],
            actions=["act_a(c1)", "act_b(c1)"],
            runs=[("q1", [("i1", "act_a(c1)")]), ("q2", [("i1", "act_b(c1)")])],
            observers={"j": [["q1", "q2"]]})
        schema = ParallelSchema("act_a", "act_b", "joint", ("c1",))
        report = check_independence(sys, "j", schema, IK.PARALLEL)
        assert not report.holds
        assert report.counterexample == ("q1", "i1,c1")

    def test_kind_and_schema_must_match(self, s12, par_swap):
        seq = standard_sequential_schema(s12)
        par = standard_parallel_schema(par_swap)
        with pytest.raises(ValidationError, match="parallel independence needs a ParallelSchema"):
            check_independence(s12, "j", seq, IK.PARALLEL)
        with pytest.raises(ValidationError, match="basic independence needs a SequentialSchema"):
            check_independence(par_swap, "j", par, IK.BASIC)

    def test_observer_and_bound_validated(self, s12):
        schema = standard_sequential_schema(s12)
        with pytest.raises(ValidationError, match="'zz' has no declared partition"):
            check_independence(s12, "zz", schema, IK.BASIC)
        with pytest.raises(ValidationError, match="disjunct bound must be at least 1"):
            check_independence(s12, "j", schema, IK.DISJUNCTIVE, bound=0)

    def test_parallel_subjects_prefers_role_tags(self, par_swap):
        assert parallel_subjects(par_swap, "j") == ("i1", "i2")
        untagged = build_system(
            name="u", agents=["x", "y", "j"], actions=["act_a(c1)", "act_b(c1)"],
            runs=[("q1", [])], observers={"j": [["q1"]]})
        assert parallel_subjects(untagged, "j") == ("x", "y")


def _leftmost_conjunct(f):
    while isinstance(f, And):
        f = f.left
    return f


class TestStructuralConditions:
    def test_shared_pseudonym_breaks_agent_exclusivity(self, s56):
        schema = standard_sequential_schema(s56)
        cond = StructuralCondition(StructuralKind.EXCLUSIVE_AGENT, agent="i1")
        report = check_structural(s56, schema, cond)
        assert report.spec == "exclusive-agent[i1]"
        assert not report.holds
        assert report.counterexample == (
            "r5", "!(theta(i1, use(k1)) & theta(i1, use(k2)))")

    def test_agent_exclusivity_over_second_family(self, s56):
        schema = standard_sequential_schema(s56)
        cond = StructuralCondition(StructuralKind.EXCLUSIVE_AGENT,
                                   agent="k1", family="post")
        report = check_structural(s56, schema, cond)
        assert report.spec == "exclusive-agent[k1][post]"
        assert report.holds

    def test_agent_exclusivity_over_foreign_family(self, s56_seq, s56):
        schema = standard_sequential_schema(s56)
        cond = StructuralCondition(StructuralKind.EXCLUSIVE_AGENT,
                                   agent="i1", family="submit")
        report = check_structural(s56_seq, schema, cond)
        assert not report.holds
        assert report.counterexample[0] == "r5"
        with pytest.raises(ValidationError, match="no declared actions in family 'zz'"):
            check_structural(s56_seq, schema,
                             StructuralCondition(StructuralKind.EXCLUSIVE_AGENT,
                                                 agent="i1", family="zz"))

    def test_action_exclusivity_population_is_schema_scoped(self):
        # First-family actions are checked over the schema's first-stage
        # agents only; other performers do not violate the condition.
        sys = build_system(
            name="odd",
            agents=[("i1", "real"), ("i2", "real"), ("k1", "pseudo"),
                    ("k2", "pseudo"), ("j", "observer")],
            actions=["use(k1)", "post(c1)"],
            runs=[("r1", [("k1", "use(k1)"), ("k2", "use(k1)")])],
            observers={"j": [["r1"]]})
        schema = SequentialSchema("use", ("i1", "i2"), ("k1",), "post", ("c1",), "submit")
        cond = StructuralCondition(StructuralKind.EXCLUSIVE_ACTION,
                                   action=Action.parse("use(k1)"))
        assert check_structural(sys, schema, cond).holds

    def test_action_exclusivity_on_second_stage(self, s56):
        schema = standard_sequential_schema(s56)
        cond = StructuralCondition(StructuralKind.EXCLUSIVE_ACTION,
                                   action=Action.parse("post(c1)"))
        report = check_structural(s56, schema, cond)
        assert report.spec == "exclusive-action[post(c1)]"
        assert report.holds

    def test_exhaustivity_and_causality_on_mixing_system(self, s12):
        schema = standard_sequential_schema(s12)
        for kind in (StructuralKind.EXHAUSTIVE_POSTING,
                     StructuralKind.EXHAUSTIVE_REGISTRATION,
                     StructuralKind.BACKWARD_CAUSALITY,
                     StructuralKind.FORWARD_CAUSALITY):
            assert check_structural(s12, schema, StructuralCondition(kind)).holds

    def test_exhaustive_posting_fails_without_posts(self):
        sys = build_system(
            name="quiet",
            agents=[("i1", "real"), ("k1", "pseudo"), ("j", "observer")],
            actions=["use(k1)", "post(c1)"],
            runs=[("r1", [("i1", "use(k1)")])],
            observers={"j": [["r1"]]})
        schema = SequentialSchema("use", ("i1",), ("k1",), "post", ("c1",), "submit")
        report = check_structural(
            sys, schema, StructuralCondition(StructuralKind.EXHAUSTIVE_POSTING))
        assert not report.holds
        assert report.counterexample == ("r1", "theta(k1, post(c1))")
        report = check_structural(
            sys, schema, StructuralCondition(StructuralKind.FORWARD_CAUSALITY))
        assert not report.holds

    def test_required_fields(self, s12):
        schema = standard_sequential_schema(s12)
        with pytest.raises(ValidationError, match="exclusive-action needs an action"):
            check_structural(s12, schema,
                             StructuralCondition(StructuralKind.EXCLUSIVE_ACTION))
        with pytest.raises(ValidationError, match="exclusive-agent needs an agent"):
            check_structural(s12, schema,
                             StructuralCondition(StructuralKind.EXCLUSIVE_AGENT))
        with pytest.raises(ValidationError, match="undeclared agent 'ghost'"):
            check_structural(s12, schema,
                             StructuralCondition(StructuralKind.EXCLUSIVE_AGENT,
                                                 agent="ghost"))
        with pytest.raises(ValidationError, match="undeclared action"):
            check_structural(s12, schema,
                             StructuralCondition(StructuralKind.EXCLUSIVE_ACTION,
                                                 action=Action.parse("fly(x)")))

    def test_conditions_need_a_sequential_schema(self, par_swap):
        schema = standard_parallel_schema(par_swap)
        with pytest.raises(ValidationError, match="^exhaustive-posting needs a SequentialSchema$"):
            check_structural(par_swap, schema,
                             StructuralCondition(StructuralKind.EXHAUSTIVE_POSTING))
        for kind in StructuralKind:
            with pytest.raises(ValidationError, match=f"^{kind.value} needs a SequentialSchema$"):
                structural_formula(par_swap, schema,
                                   StructuralCondition(kind, Action.parse("act_a(c1)"), "i1"))

    def test_action_exclusivity_outside_both_stages_ranges_over_every_agent(self, s56_seq):
        """An action of neither stage may be performed by any declared agent."""
        schema = standard_sequential_schema(s56_seq)
        action = Action.parse("submit(c1)")
        f = structural_formula(s56_seq, schema,
                               StructuralCondition(StructuralKind.EXCLUSIVE_ACTION, action=action))
        assert len(s56_seq.agents) > len(schema.first_agents) + len(schema.first_params)
        assert f == conj(Not(And(Atom(x, action), Atom(y, action)))
                         for x, y in itertools.combinations(s56_seq.agents, 2))

    def test_unknown_kinds(self, s12, par_swap):
        """A kind or condition of the wrong type is a ValidationError on
        either schema, never an AttributeError."""
        schema = standard_sequential_schema(s12)
        with pytest.raises(ValidationError, match="^unknown structural kind 'bogus'$"):
            structural_formula(s12, schema, StructuralCondition("bogus"))
        for text in ("exhaustive-action", StructuralKind.EXHAUSTIVE_POSTING):
            with pytest.raises(ValidationError, match="^unknown structural condition "):
                structural_formula(s12, schema, text)
            with pytest.raises(ValidationError, match="^unknown structural condition "):
                check_structural(s12, schema, text)
        for system, schema in ((s12, schema), (par_swap, standard_parallel_schema(par_swap))):
            for kind in ("bogus", "basic", "parallel"):
                with pytest.raises(ValidationError, match=f"^unknown independence kind '{kind}'$"):
                    list(independence_obligations(system, schema, "j", kind))
                with pytest.raises(ValidationError, match=f"^unknown independence kind '{kind}'$"):
                    check_independence(system, "j", schema, kind)


def _oracle_corpus():
    """The bundled systems, the reference system of every pool shape and
    20 random systems per flavor, each also derived."""
    shapes = [("sequential", args) for args in itertools.product((1, 2, 3), repeat=3)]
    shapes += [("parallel", (nr, 1, nc)) for nr in (1, 2, 3) for nc in (1, 2, 3)]
    systems = [fixture_system(name) for name in FIXTURE_NAMES]
    systems += [_shape(flavor, *args).ref for flavor, args in shapes]
    systems += [random_system(GenConfig(n_real=1 + seed % 3, n_pseudo=1 + seed // 3 % 3,
                                        n_articles=1 + seed // 9 % 3, max_runs=1 + seed % 4,
                                        partition=("single", "random")[seed % 2],
                                        style=("uniform", "matching")[seed // 2 % 2],
                                        flavor=flavor, seed=4100 + seed))
                for flavor in ("sequential", "parallel") for seed in range(20)]
    for system in systems:
        yield system
        schema = next(_schemas(system), None)
        if schema is not None:
            yield derive_sequential(system, schema)


def _schemas(system):
    for infer in (standard_sequential_schema, standard_parallel_schema):
        try:
            yield infer(system)
        except ValidationError:
            pass


def _outcome(build):
    """What ``build()`` returns, or the message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return f"error: {exc}"


def test_obligations_match_the_reference():
    """Every independence obligation list (label and formula, in order) and
    structural formula, and every validation message, is the reference's,
    which is written from the schema's fields."""
    variants = [(kind, bound) for kind in IK
                for bound in ((0, 1, 2, 3) if kind is IK.DISJUNCTIVE else (2,))]
    outcomes = set()
    for system in _oracle_corpus():
        for schema in _schemas(system):
            for kind, bound in variants:
                got = _outcome(lambda: list(independence_obligations(
                    system, schema, "j", kind, bound)))
                assert got == _outcome(lambda: reference.independence_obligations(
                    system, schema, "j", kind, bound)), (system.name, kind, bound)
                outcomes.add((type(schema), kind, isinstance(got, str)))
            conds = [StructuralCondition(kind) for kind in StructuralKind]
            conds += [StructuralCondition(StructuralKind.EXCLUSIVE_ACTION, action=a)
                      for a in system.actions]
            conds += [StructuralCondition(StructuralKind.EXCLUSIVE_AGENT, agent=i, family=family)
                      for i in system.agents for family in (None, "use", "post", "submit", "zz")]
            for cond in conds:
                got = _outcome(lambda: structural_formula(system, schema, cond))
                assert got == _outcome(lambda: reference.structural_formula(
                    system, schema, cond)), (system.name, cond)
                outcomes.add((type(schema), cond.kind, isinstance(got, str)))
    assert {(SequentialSchema, kind, False) for kind in StructuralKind} <= outcomes
    assert {(ParallelSchema, kind, True) for kind in StructuralKind} <= outcomes
    assert (ParallelSchema, IK.PARALLEL, False) in outcomes
    assert (SequentialSchema, IK.PARALLEL, True) in outcomes
