"""The bundled systems, the claim registry, the falsification search, the
random/exhaustive generators, and the mixer-relay builder."""
import itertools

import pytest

import reference
from anoncheck import (CLAIMS, DEFAULT_SYSTEMS, FIXTURE_NAMES,
                       HYPOTHESIS_IMPLICATIONS, PAPER_SYSTEM_NAMES, Action,
                       ClaimVerdict, GenConfig, IndependenceKind,
                       ValidationError, anonymous_up_to, build_system, check_claim,
                       check_independence, check_property, derive_sequential,
                       exhaustive_systems, falsify, fixture_system,
                       maximally_onymous, mixer_chain, paper_system,
                       random_system, role_interchangeable, sweep)
from anoncheck import Atom, registry
from anoncheck.composition import _conjuncts
from anoncheck.composition import standard_parallel_schema, standard_sequential_schema
from anoncheck.registry import CheckSuite, ClaimDef


def _sibling(system, run_ids):
    """``system`` with only ``run_ids``, in that order, each block cut to them."""
    return build_system(
        name=f"{system.name}-sibling", agents=[(a, system.roles.get(a)) for a in system.agents],
        actions=system.actions, runs=[(r, system.run(r).facts) for r in run_ids],
        observers={j: [b for b in ([r for r in run_ids if r in block] for block in part.blocks)
                       if b]
                   for j, part in system.observers.items()})


def facts_of(system, run_id):
    run = next(r for r in system.runs if r.run_id == run_id)
    return sorted(f"{i}:{a}" for i, a in run.facts)


class TestBundledSystems:
    def test_name_catalogues(self):
        assert PAPER_SYSTEM_NAMES == ("s12", "s1234", "s56", "s125678", "s129-12")
        assert set(PAPER_SYSTEM_NAMES) < set(FIXTURE_NAMES)
        for name in FIXTURE_NAMES:
            assert fixture_system(name).name == name
        with pytest.raises(ValidationError, match="unknown fixture system 'nope'"):
            fixture_system("nope")

    def test_roles(self, s12):
        assert {a: s12.roles[a] for a in s12.agents} == {
            "i1": "real", "i2": "real", "k1": "pseudo", "k2": "pseudo",
            "j": "observer"}

    def test_two_run_mixing_system(self, s12):
        assert facts_of(s12, "r1") == [
            "i1:use(k1)", "i2:use(k2)", "k1:post(c1)", "k2:post(c2)"]
        assert facts_of(s12, "r2") == [
            "i1:use(k2)", "i2:use(k1)", "k1:post(c2)", "k2:post(c1)"]
        assert [sorted(b) for b in s12.observers["j"].blocks] == [["r1", "r2"]]

    def test_four_run_mixing_system(self, s1234):
        assert [r.run_id for r in s1234.runs] == ["r1", "r2", "r3", "r4"]
        assert facts_of(s1234, "r3") == [
            "i1:use(k1)", "i2:use(k2)", "k1:post(c2)", "k2:post(c1)"]
        assert facts_of(s1234, "r4") == [
            "i1:use(k2)", "i2:use(k1)", "k1:post(c1)", "k2:post(c2)"]

    def test_shared_pseudonym_system(self, s56):
        assert facts_of(s56, "r5") == [
            "i1:use(k1)", "i1:use(k2)", "k1:post(c1)", "k2:post(c2)"]
        assert facts_of(s56, "r6") == [
            "i1:use(k1)", "i1:use(k2)", "k1:post(c2)", "k2:post(c1)"]

    def test_single_run_fixtures(self):
        linked = fixture_system("linked")
        assert facts_of(linked, "q1") == [
            "i1:use(k1)", "i2:use(k2)", "k1:post(c1)", "k2:post(c2)"]
        par = fixture_system("par_single")
        assert facts_of(par, "p1") == ["i1:act_a(c1)", "i1:act_b(c1)"]


class TestReconstructedSystems:
    """Two systems extend the quoted runs with searched completions; their
    extra runs are frozen here and re-verified through the public checkers."""

    def test_completion_of_shared_pseudonym_runs(self):
        s = paper_system("s125678")
        assert [r.run_id for r in s.runs] == ["r1", "r2", "r5", "r6", "r7", "r8"]
        for rid, want in [("r1", paper_system("s12")), ("r5", paper_system("s56"))]:
            assert facts_of(s, rid) == facts_of(want, rid)
        assert facts_of(s, "r7") == []
        assert facts_of(s, "r8") == [
            "i2:use(k1)", "i2:use(k2)", "k1:post(c1)", "k1:post(c2)",
            "k2:post(c1)", "k2:post(c2)"]
        assert len(s.observers["j"].blocks) == 1

    def test_completion_of_two_run_mixing(self):
        s = paper_system("s129-12")
        assert [r.run_id for r in s.runs] == ["r1", "r2", "r9", "r10", "r11", "r12"]
        assert facts_of(s, "r9") == []
        assert facts_of(s, "r10") == ["k1:post(c1)"]
        assert facts_of(s, "r11") == [
            "i1:use(k1)", "i1:use(k2)", "k1:post(c1)", "k1:post(c2)",
            "k2:post(c1)", "k2:post(c2)"]
        assert facts_of(s, "r12") == facts_of(paper_system("s125678"), "r8")

    @pytest.mark.parametrize("name", ["s125678", "s129-12"])
    def test_completions_satisfy_their_constraints(self, name):
        # the added runs restore plain independence, keep the pairwise
        # variant refuted, and preserve componentwise interchangeability
        s = paper_system(name)
        schema = standard_sequential_schema(s)
        assert check_independence(s, "j", schema, IndependenceKind.BASIC).holds
        assert not check_independence(s, "j", schema, IndependenceKind.PAIRWISE).holds
        uses = [Action("use", k) for k in ("k1", "k2")]
        posts = [Action("post", c) for c in ("c1", "c2")]
        for i, a in itertools.product(("i1", "i2"), uses):
            assert check_property(s, role_interchangeable(i, a, "j", uses)).holds
        for k, a in itertools.product(("k1", "k2"), posts):
            assert check_property(s, role_interchangeable(k, a, "j", posts)).holds
        # ... while chained role interchangeability fails
        derived = derive_sequential(s, schema)
        submits = [Action("submit", c) for c in ("c1", "c2")]
        assert not all(
            check_property(derived, role_interchangeable(i, a, "j", submits)).holds
            for i, a in itertools.product(("i1", "i2"), submits))


class TestClaimRegistry:
    def test_every_claim_confirmed_on_its_default_system(self):
        assert set(DEFAULT_SYSTEMS) == set(CLAIMS)
        for cid, sysname in DEFAULT_SYSTEMS.items():
            report = check_claim(cid, fixture_system(sysname))
            assert report.verdict is ClaimVerdict.CONFIRMED, cid
            assert report.system_name == sysname

    def test_claim_checkers_exist_only_in_their_flavor(self, s1234, par_swap):
        suites = {
            "sequential": CheckSuite("sequential", standard_sequential_schema(s1234),
                                     "j", s1234),
            "parallel": CheckSuite("parallel", standard_parallel_schema(par_swap),
                                   "j", par_swap),
        }
        for cdef in CLAIMS.values():
            suite = suites[cdef.flavor]
            names = cdef.hypotheses
            if not cdef.witness_only:  # a witness conclusion names no checker
                names += (cdef.conclusion,)
            for name in names:
                checker = suite.checker(name)
                assert checker.holds(suite.context(suite.ref_base)) in (True, False)
        for flavor, name in (("sequential", "a-privacy"), ("parallel", "use-anonymity")):
            with pytest.raises(ValidationError, match=f"unknown checker '{name}'"):
                suites[flavor].checker(name)

    def test_each_flavor_offers_its_pinned_checkers(self):
        """Every checker of the flavor table, by name, with what it asks:
        an independence kind, a stage and a property kind, a structural
        kind, or nothing for a checker written out as a builder."""
        def described(flavor):
            return {name: " ".join(arg.value if hasattr(arg, "value") else arg for arg in args)
                    for name, (_, *args) in registry._FLAVORS[flavor].checkers.items()}

        assert list(registry._FLAVORS) == ["sequential", "parallel"]
        sequential = {
            "independence": "basic",
            "pairwise-independence": "pairwise",
            "disjunctive-independence": "disjunctive",
            "posneg-independence": "posneg",
            "negpos-independence": "negpos",
            "use-anonymity": "use anonymous-up-to",
            "use-onymity": "use maximally-onymous",
            "use-min-anonymity": "use minimally-anonymous",
            "use-role-interchangeability": "use role-interchangeable",
            "post-privacy": "post private-up-to",
            "post-identity": "post maximally-identified",
            "post-min-privacy": "post minimally-private",
            "post-role-interchangeability": "post role-interchangeable",
            "submit-privacy": "submit private-up-to",
            "submit-anonymity": "submit anonymous-up-to",
            "submit-min-privacy": "submit minimally-private",
            "submit-min-anonymity": "submit minimally-anonymous",
            "submit-onymity": "submit maximally-onymous",
            "submit-role-interchangeability": "submit role-interchangeable",
            "exhaustive-posting": "exhaustive-posting",
            "exhaustive-registration": "exhaustive-registration",
            "backward-causality": "backward-causality",
            "exclusive-posts": "exclusive-action",
            "exclusive-agents": "exclusive-agent",
            "independence-reformulation-equivalence": "",
        }
        parallel = {
            "independence": "parallel",
            "a-privacy": "a private-up-to",
            "a-anonymity": "a anonymous-up-to",
            "b-privacy": "b private-up-to",
            "b-anonymity": "b anonymous-up-to",
            "joint-privacy": "joint private-up-to",
            "joint-anonymity": "joint anonymous-up-to",
            "joint-min-privacy": "joint minimally-private",
            "joint-identity": "joint maximally-identified",
            "ab-identity": "ab maximally-identified",
            "min-privacy-either": "",
        }
        assert (len(sequential), len(parallel)) == (25, 11)
        assert described("sequential") == sequential
        assert described("parallel") == parallel

    def test_ab_identity_names_its_first_failure_in_paired_order(self):
        """ab-identity asks each a action, then its b action: here
        act_b(c1) fails before act_a(c2), which an a-then-b order would
        name first."""
        system = build_system(
            name="ab-order", agents=[("i1", "real"), ("j", "observer")],
            actions=["act_a(c1)", "act_a(c2)", "act_b(c1)", "act_b(c2)"],
            runs=[("r1", [("i1", "act_b(c1)"), ("i1", "act_a(c2)")]), ("r2", [])],
            observers={"j": [["r1", "r2"]]})
        report = check_claim("CB.2", system)
        assert report.verdict is ClaimVerdict.VACUOUS
        assert report.hypotheses[0].detail == "maximally-identified(i1, act_b(c1)) @ r1"

    def test_min_anonymity_failure_names_its_property(self, s12):
        report = check_claim("CA.4", s12)
        assert report.conclusion.name == "submit-min-anonymity"
        assert report.conclusion.detail == "minimally-anonymous(i1, submit(c1)) @ r1"

    def test_witness_claim_items(self, s12):
        report = check_claim("C3.1", s12)
        assert CLAIMS["C3.1"].witness_only
        assert report.verdict is ClaimVerdict.CONFIRMED
        assert [(n, d, h) for n, d, h, _ in report.items] == [
            (1, "every first-stage fact anonymous up to the first-stage population", True),
            (2, "every second-stage fact private up to the second-stage actions", True),
            (3, "some chained fact not anonymous", True),
            (4, "some chained fact not private", True),
        ]
        assert report.items[2][3] == "anonymous-up-to(i1, submit(c1)) @ r1"
        assert report.items[3][3] == "private-up-to(i1, submit(c1)) @ r1"

    def test_failed_hypothesis_makes_claim_vacuous(self, s12):
        report = check_claim("C3.2", s12)
        assert report.verdict is ClaimVerdict.VACUOUS
        assert not report.hypotheses_hold
        failed = [h.name for h in report.hypotheses if not h.holds]
        assert "independence" in failed

    def test_dropping_a_hypothesis_exposes_a_refutation(self, s56):
        report = check_claim("CA.3", s56, drop=("exclusive-agents",))
        assert report.verdict is ClaimVerdict.REFUTED
        assert report.dropped == ("exclusive-agents",)
        assert report.hypotheses_hold and not report.conclusion_holds
        # with the hypothesis in place the same system is merely vacuous
        assert check_claim("CA.3", s56).verdict is ClaimVerdict.VACUOUS

    def test_only_claims_that_read_derived_facts_derive(self, s1234, monkeypatch):
        calls = []
        derive = registry.derive_sequential
        monkeypatch.setattr(registry, "derive_sequential",
                            lambda *args: calls.append(args) or derive(*args))
        assert check_claim("L3.1", s1234).verdict is ClaimVerdict.VACUOUS
        assert calls == []
        assert check_claim("C3.2", s1234).verdict is ClaimVerdict.CONFIRMED
        assert len(calls) == 1

    def test_only_parallel_claims_that_read_joint_facts_derive(self, par_swap, monkeypatch):
        calls = []
        derive = registry.derive_sequential  # derive_parallel is the same function
        monkeypatch.setattr(registry, "derive_sequential",
                            lambda *args: calls.append(args) or derive(*args))
        monkeypatch.setitem(CLAIMS, "AB.0", ClaimDef(
            "AB.0", "parallel", "a and b facts alone", ("a-privacy", "b-privacy"), "ab-identity"))
        assert check_claim("AB.0", par_swap).verdict is ClaimVerdict.REFUTED
        assert calls == []
        assert check_claim("C4.1", par_swap).verdict is ClaimVerdict.CONFIRMED
        assert len(calls) == 1

    def test_base_only_claims_check_a_derived_system(self, s1234):
        derived = derive_sequential(s1234, standard_sequential_schema(s1234))
        assert check_claim("L3.1", derived).verdict is ClaimVerdict.VACUOUS
        assert check_claim("LA.1", derived).verdict is ClaimVerdict.CONFIRMED
        with pytest.raises(ValidationError, match="derived family 'submit' already declared"):
            check_claim("C3.2", derived)

    def test_claim_and_drop_names_validated(self, s12):
        with pytest.raises(ValidationError, match="unknown claim 'ZZ.9'"):
            check_claim("ZZ.9", s12)
        with pytest.raises(ValidationError, match="has no hypothesis 'no-such-hypothesis'"):
            check_claim("C3.2", paper_system("s1234"), drop=("no-such-hypothesis",))

    @pytest.mark.parametrize("flavor", ["sequential", "parallel"])
    def test_one_context_serves_every_system_of_a_declaration(self, flavor):
        """A suite built on one system is the context of any other system of
        its declaration: of universe systems and random draws with random
        partitions of the 2/2/2 shape, and of each fixture's siblings with
        runs dropped or reordered.  Every derived atom reads the other
        system's derivation, by ``derive`` and by the reference."""
        infer = registry._FLAVORS[flavor].infer_schema
        universe = list(itertools.islice(exhaustive_systems(flavor), 0, None, 997))
        draws = [random_system(GenConfig(partition="random", max_runs=5, seed=seed,
                                         flavor=flavor, style=style))
                 for seed in range(10) for style in ("uniform", "matching")]
        groups = [(universe[0], universe[1:] + draws)]
        for name in FIXTURE_NAMES:
            if name.startswith("par_") == (flavor == "parallel"):
                base = fixture_system(name)
                ids = base.run_ids
                orders = (ids[::-1], ids[1:] + ids[:1], ids[::2], ids[-1:])
                groups.append((base, [_sibling(base, order) for order in orders]))
        held = set()
        for base, others in groups:
            schema = infer(base)
            suite = CheckSuite(flavor, schema, "j", base)
            for other in others:
                assert infer(other) == schema
                ctx = suite.context(other)
                derived = derive_sequential(other, schema)
                ref = reference.Reference(reference.derive(other, schema))
                for fact in _conjuncts(other, schema):
                    mask = ctx.mask(Atom(*fact))
                    assert mask == derived.holding(fact), (other.name, fact)
                    assert [bool(mask >> i & 1) for i in range(len(other.run_ids))] == \
                        ref.values(Atom(*fact)), (other.name, fact)
                    held.add(mask == ctx._full)
        assert held == {True, False}
        assert any(len(s.observers["j"].blocks) > 1 for s in draws)

    def test_checkers_behind_a_wrapper_report_as_unwrapped(self, monkeypatch):
        """A checker read only through ``holds`` and ``first_failure``, as a
        timing wrapper exposes it, gives every claim report unchanged: every
        claim, with no drop and each single drop, on every bundled fixture
        and on x1-16, where the equivalence names its failing side."""
        class Wrapped:
            __slots__ = ("holds", "first_failure")

            def __init__(self, inner):
                self.holds, self.first_failure = inner.holds, inner.first_failure

        class WrappingSuite(CheckSuite):
            def checker(self, name):
                return Wrapped(super().checker(name))

        x1_16 = next(itertools.islice(exhaustive_systems("sequential"), 525, None))
        assert x1_16.name == "x1-16"
        systems = [fixture_system(name) for name in FIXTURE_NAMES] + [x1_16]

        def reports():
            out = []
            for system in systems:
                for cid, cdef in CLAIMS.items():
                    for drop in [()] + [(h,) for h in cdef.hypotheses]:
                        try:
                            out.append(check_claim(cid, system, drop=drop))
                        except ValidationError as e:
                            out.append(str(e))
            return out

        unwrapped = reports()
        monkeypatch.setattr(registry, "CheckSuite", WrappingSuite)
        assert reports() == unwrapped
        report = check_claim("APPC-EQ", x1_16, drop=("backward-causality",))
        assert report.verdict is ClaimVerdict.REFUTED
        assert report.conclusion.detail == "independence=fails but reformulation=holds"

    def test_strengthened_variants_imply_their_base_claims(self):
        assert HYPOTHESIS_IMPLICATIONS == (
            ("C3.4", "C3.2"), ("C3.5", "C3.3"), ("CA.5", "CA.3"), ("CA.6", "CA.4"))
        for strong, weak in HYPOTHESIS_IMPLICATIONS:
            assert CLAIMS[strong].flavor == CLAIMS[weak].flavor
            assert CLAIMS[strong].conclusion == CLAIMS[weak].conclusion


class TestFalsify:
    def test_theorem_survives_a_small_search(self):
        result = falsify("C3.2", GenConfig(budget=200, seed=5))
        assert result.found is None and result.report is None
        assert result.examined == 33096  # exhaustive universe + 200 samples
        assert result.hypotheses_held == 2693
        assert result.vacuous == result.examined - result.hypotheses_held

    def test_dropping_independence_reveals_counterexamples(self):
        result = falsify("C3.2", drop=("independence",))
        assert result.found is not None and result.phase == "exhaustive"
        assert result.found.name == "x16-33"
        assert result.examined == 4233
        assert result.report.verdict is ClaimVerdict.REFUTED
        again = check_claim("C3.2", result.found, drop=("independence",))
        assert again.verdict is ClaimVerdict.REFUTED

    def test_dropping_pairwise_independence(self):
        result = falsify("CA.1", drop=("pairwise-independence",))
        assert result.found is not None and result.found.name == "x96-150"
        assert check_claim("CA.1", result.found,
                           drop=("pairwise-independence",)).verdict is ClaimVerdict.REFUTED

    def test_parallel_claim_falsified_without_independence(self):
        result = falsify("C4.2", drop=("independence",))
        assert result.found is not None and result.found.name == "x1-84"
        assert result.examined == 594

    def test_witness_claims_cannot_be_falsified(self):
        with pytest.raises(ValidationError, match="witness-only"):
            falsify("C3.1")


class TestSweep:
    def test_random_only_sweep_is_clean(self):
        report = sweep(n_random=400, seed=11, exhaustive=False)
        assert report.refutations == []
        assert report.implication_violations == []
        assert report.systems_checked == {"sequential": 400, "parallel": 400}
        for cid, stats in report.stats.items():
            assert stats.refuted == 0, cid
        assert report.elapsed > 0

    def test_unknown_claims_are_rejected(self):
        with pytest.raises(ValidationError, match="^unknown claim 'nope'$"):
            sweep(claims=["nope"], n_random=10, exhaustive=False)

    def test_a_repeated_claim_is_checked_once(self):
        report = sweep(claims=["C3.2", "C3.2"], n_random=10, exhaustive=False)
        assert list(report.stats) == ["C3.2"]
        assert report.stats["C3.2"].checked == report.systems_checked["sequential"] == 10

    def test_a_negative_pool_size_is_rejected(self):
        with pytest.raises(ValidationError, match="^n_random must be non-negative$"):
            sweep(n_random=-5, exhaustive=False)
        assert sweep(claims=["C4.1"], n_random=0, exhaustive=False).systems_checked == {
            "sequential": 0, "parallel": 0}

    def test_witness_claims_cannot_be_swept(self):
        with pytest.raises(ValidationError,
                           match=r"^claim C3\.1 is witness-only; nothing to sweep$"):
            sweep(claims=["C3.1"], n_random=10, exhaustive=False)


class TestGenerators:
    def test_random_system_is_a_pure_function_of_config(self):
        cfg = GenConfig(seed=41, style="matching", partition="random")
        assert random_system(cfg) == random_system(cfg)
        assert random_system(cfg) != random_system(GenConfig(seed=42))

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="counts must be at least 1"):
            GenConfig(n_real=0)
        with pytest.raises(ValidationError, match="unknown partition policy 'split'"):
            GenConfig(partition="split")
        with pytest.raises(ValidationError, match="unknown flavor 'serial'"):
            GenConfig(flavor="serial")
        with pytest.raises(ValidationError, match="unknown generator style 'dense'"):
            GenConfig(style="dense")

    def test_unknown_flavor_is_a_validation_error_everywhere(self, s1234):
        """The universe and a suite's checkers name an unknown flavor as the
        generator's configuration does, rather than failing a lookup."""
        with pytest.raises(ValidationError, match="^unknown flavor 'bogus'$"):
            next(exhaustive_systems("bogus"))
        suite = CheckSuite("bogus", standard_sequential_schema(s1234), "j", s1234)
        with pytest.raises(ValidationError, match="^unknown flavor 'bogus'$"):
            suite.checker("independence")

    def test_matching_style_invariant(self):
        for seed in range(40):
            sys = random_system(GenConfig(seed=seed, style="matching", max_runs=3))
            uses = [a for a in sys.actions if a.family == "use"]
            posts = [a for a in sys.actions if a.family == "post"]
            for run in sys.runs:
                for i in ("i1", "i2"):
                    assert sum((i, a) in run.facts for a in uses) == 1
                for k in ("k1", "k2"):
                    assert sum((k, a) in run.facts for a in posts) == 1

    def test_parallel_flavor_declares_paired_families(self):
        sys = random_system(GenConfig(seed=9, flavor="parallel"))
        assert {a.family for a in sys.actions} == {"act_a", "act_b"}
        assert sys.agents == ("i1", "i2", "j")

    def test_exhaustive_universe_shape(self):
        gen = exhaustive_systems("sequential")
        first = next(gen)
        assert first.name == "x0" and len(first.runs) == 1
        assert not first.runs[0].facts
        rest = list(itertools.islice(gen, 256))
        assert rest[254].name == "x255"
        assert rest[255].name == "x0-1" and len(rest[255].runs) == 2

    def test_random_pool_reaches_the_bundled_shapes(self, s12, s1234):
        # seed scan frozen: the swap pair appears at seed 87, the full
        # permutation square at seed 1367
        def shape(system):
            return frozenset(frozenset(r.facts) for r in system.runs)

        targets = {shape(s12): None, shape(s1234): None}
        for seed in range(2000):
            cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform")
            got = shape(random_system(cfg))
            if got in targets and targets[got] is None:
                targets[got] = seed
        assert targets[shape(s12)] == 87
        assert targets[shape(s1234)] == 1367


class TestMixerChain:
    def test_inverse_second_stage_identifies_everyone(self):
        relay = mixer_chain("all", "inverse", messages=["m1", "m2", "m3"])
        assert len(relay.runs) == 6
        derived = derive_sequential(relay, standard_sequential_schema(relay))
        for m in ("m1", "m2", "m3"):
            spec = maximally_onymous(f"in_{m}", Action("submit", f"out_{m}"), "j")
            assert check_property(derived, spec).holds

    def test_independent_stages_anonymize(self):
        relay = mixer_chain("all", "all", messages=["m1", "m2", "m3"])
        assert len(relay.runs) == 36
        derived = derive_sequential(relay, standard_sequential_schema(relay))
        incoming = [a for a in derived.agents if a.startswith("in_")]
        for i in incoming:
            for m in ("m1", "m2", "m3"):
                spec = anonymous_up_to(i, Action("submit", f"out_{m}"), incoming, "j")
                assert check_property(derived, spec).holds

    def test_fixed_mappings_give_one_run(self):
        relay = mixer_chain({"m1": "m1"}, {"m1": "m1"})
        assert len(relay.runs) == 1
        assert relay.agents == ("in_m1", "mid_m1", "j")

    def test_discrete_indistinguishability(self):
        relay = mixer_chain("all", "all", "discrete", ["m1", "m2"])
        blocks = relay.observers["j"].blocks
        assert len(blocks) == len(relay.runs) == 4
        assert all(len(b) == 1 for b in blocks)

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="'inverse' only makes sense for the second stage"):
            mixer_chain("inverse", "all", messages=["m1"])
        with pytest.raises(ValidationError, match="permutation domain does not match"):
            mixer_chain({"m1": "m1"}, {"m1": "m1", "m2": "m2"})
        with pytest.raises(ValidationError, match="unknown indistinguishability policy 'both'"):
            mixer_chain("all", "inverse", "both", messages=["m1"])
        with pytest.raises(ValidationError, match="needs messages when both stages are symbolic"):
            mixer_chain("all", "inverse")
