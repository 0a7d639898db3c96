"""Differential tests of the run-mask Evaluator, and of every entry point
that runs on it, against the per-run reference in ``reference.py``."""
import itertools
import random

import pytest

import reference
from anoncheck import (CLAIMS, FIXTURE_NAMES, Atom, GenConfig, IndependenceKind,
                       StructuralCondition, StructuralKind, anonymous_up_to,
                       check_claim, check_independence, check_property,
                       check_structural, evaluate, exhaustive_systems,
                       fixture_system, maximally_identified, maximally_onymous,
                       minimally_anonymous, minimally_private, mixer_chain,
                       private_up_to, random_system, role_interchangeable, valid)
from anoncheck import scenarios
from anoncheck.formula import (FALSE, TRUE, Evaluator, Iff, Implies, Knows, Not,
                               Or, Poss)
from test_acceptance import _seeded_formula


def _variants(f, g):
    return (f, Iff(Poss("j", f), Not(Knows("j", Not(f)))), Iff(f, g),
            Or(f, TRUE), Implies(FALSE, g), Knows("j", Implies(f, g)))


def test_mask_bits_match_the_evaluator_on_criterion_6_formulas():
    rng = random.Random(0xACCE)
    agents = ("i1", "i2", "k1", "k2", "j")
    for seed in range(40):
        cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform",
                        partition="random" if seed % 3 else "single")
        system = random_system(cfg)
        ref, ev = reference.Reference(system), Evaluator(system)
        for _ in range(15):
            f = _seeded_formula(rng, agents, tuple(system.actions), ("j",), 4)
            g = _seeded_formula(rng, agents, tuple(system.actions), ("j",), 3)
            for h in _variants(f, g):
                m = ev.mask(h)
                want = ref.values(h)
                assert [bool(m >> i & 1) for i in range(len(system.runs))] == want
                assert [ev.evaluate(h, run) for run in system.runs] == want
                assert ev.holds(h) is all(want)
                assert ev.valid(h) == ref.valid(h)


def _differential_systems(flavor):
    systems = list(itertools.islice(exhaustive_systems(flavor), 0, None, 1031))
    for seed in range(12):
        for partition in ("single", "random"):
            systems.append(random_system(GenConfig(
                n_real=1 + seed % 3, n_pseudo=1 + seed // 3 % 3,
                n_articles=1 + seed // 4 % 3, max_runs=4, partition=partition,
                style="matching" if seed % 2 else "uniform", seed=seed,
                flavor=flavor)))
    return systems


def _reports(system, flavor):
    out = []
    for cid, cdef in CLAIMS.items():
        if cdef.flavor != flavor:
            continue
        drops = [()] if cdef.witness_only else [()] + [(h,) for h in cdef.hypotheses]
        out += [check_claim(cid, system, drop=drop) for drop in drops]
    return out


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_check_claim_reports_match_the_evaluator(flavor, monkeypatch):
    """The reference run evaluates every obligation run by run, with no
    memo, so formulas shared between checkers cannot change its verdicts."""
    systems = _differential_systems(flavor)
    actual = [_reports(system, flavor) for system in systems]
    monkeypatch.setattr(scenarios, "Evaluator", reference.Reference)
    expected = [_reports(system, flavor) for system in systems]
    assert actual == expected
    verdicts = {r.verdict for reports in actual for r in reports}
    assert scenarios.ClaimVerdict.REFUTED in verdicts  # drops expose refutations


# -- the entry points moved onto the Evaluator ---------------------------------


def _flavor(system):
    return "parallel" if system.actions[0].family == "act_a" else "sequential"


def _entry_point_systems():
    """Every fixture, 40 random systems with random partitions, and the
    three-message relay under both observer policies."""
    out = [(name, fixture_system(name)) for name in FIXTURE_NAMES]
    for seed in range(40):
        flavor = ("sequential", "parallel")[seed % 2]
        cfg = GenConfig(n_real=1 + seed % 3, n_pseudo=1 + seed // 2 % 3,
                        n_articles=1 + seed // 3 % 3, max_runs=5, partition="random",
                        style=("uniform", "matching")[seed // 2 % 2], seed=seed,
                        flavor=flavor)
        out.append((f"random-{seed}", random_system(cfg)))
    for policy in ("single", "discrete"):
        out.append((f"relay-{policy}",
                    mixer_chain("all", "all", policy, messages=["m1", "m2", "m3"])))
    return out


ENTRY_POINT_SYSTEMS = _entry_point_systems()


def test_entry_point_systems_cover_split_and_discrete_partitions():
    blocks = {name: len(system.observers["j"].blocks) for name, system in ENTRY_POINT_SYSTEMS}
    assert blocks["relay-single"] == 1 and blocks["relay-discrete"] == 36
    assert sum(1 < blocks[f"random-{seed}"] for seed in range(40)) >= 10


def _specs(system):
    """Every property kind, for subjects and actions sampled from the
    declaration."""
    agents = [a for a in system.agents if a != "j"]
    for i, a in itertools.islice(itertools.product(agents, system.actions), 0, None, 3):
        yield anonymous_up_to(i, a, agents, "j")
        yield minimally_anonymous(i, a, "j")
        yield private_up_to(i, a, system.actions, "j")
        yield minimally_private(i, a, "j")
        yield role_interchangeable(i, a, "j")
        yield maximally_onymous(i, a, "j")
        yield maximally_identified(i, a, "j")


def _conditions(schema):
    yield StructuralCondition(StructuralKind.EXHAUSTIVE_POSTING)
    yield StructuralCondition(StructuralKind.EXHAUSTIVE_REGISTRATION)
    yield StructuralCondition(StructuralKind.BACKWARD_CAUSALITY)
    yield StructuralCondition(StructuralKind.FORWARD_CAUSALITY)
    for a in schema.second_actions:
        yield StructuralCondition(StructuralKind.EXCLUSIVE_ACTION, action=a)
    for i in schema.first_agents:
        yield StructuralCondition(StructuralKind.EXCLUSIVE_AGENT, agent=i)


@pytest.mark.parametrize("name,system", ENTRY_POINT_SYSTEMS,
                         ids=[name for name, _ in ENTRY_POINT_SYSTEMS])
def test_entry_points_match_the_reference(name, system):
    """valid, evaluate, check_property (every kind), check_independence
    (every kind), check_structural (every condition) and derived atoms read
    through Evaluator(system, derive)."""
    rng = random.Random(name)
    flavor = _flavor(system)
    described = scenarios._FLAVORS[flavor]
    infer_schema, derive = described.infer_schema, described.derive
    schema = infer_schema(system)
    derived = derive(system, schema)
    ref, derived_ref = reference.Reference(system), reference.Reference(derived)
    agents, actions = tuple(system.agents), tuple(system.actions)

    for _ in range(10):
        f = _seeded_formula(rng, agents, actions, ("j",), 3)
        g = _seeded_formula(rng, agents, actions, ("j",), 2)
        for h in _variants(f, g):
            assert valid(system, h) == ref.valid(h)
            assert [evaluate(system, run, h) for run in system.runs] == ref.values(h)

    failing = 0
    for spec in _specs(derived):
        got = check_property(derived, spec)
        assert reference.outcome(got) == reference.check_property(derived, spec), spec
        failing += not got.holds
    assert failing

    kinds = ([IndependenceKind.PARALLEL] if flavor == "parallel" else
             [k for k in IndependenceKind if k is not IndependenceKind.PARALLEL])
    for kind in kinds:
        for bound in (1, 2) if kind is IndependenceKind.DISJUNCTIVE else (2,):
            got = check_independence(system, "j", schema, kind, bound)
            assert reference.outcome(got) == \
                reference.check_independence(system, "j", schema, kind, bound), kind
    if flavor == "sequential":
        for cond in _conditions(schema):
            got = check_structural(derived, schema, cond)
            assert reference.outcome(got) == \
                reference.check_structural(derived, schema, cond), cond

    ev = Evaluator(system, lambda: derived)
    for agent in derived.agents:
        for action in derived.actions:
            atom = Atom(agent, action)
            assert ev.valid(atom) == derived_ref.valid(atom)
            assert [ev.evaluate(atom, run) for run in system.runs] == derived_ref.values(atom)


def test_possible_on_one_block_reads_no_partition_index(monkeypatch):
    """On a one-block partition, ``P`` of a mask that is not empty is every
    run, found without spreading the mask over the block index; an unknown
    observer is still rejected with the same error."""
    from anoncheck import Action, ValidationError, formula

    relay = mixer_chain("all", "all", messages=["m1", "m2", "m3"])
    fact = Atom("in_m1", Action("use", "mid_m2"))
    want = reference.Reference(relay).values(Poss("j", fact))
    ev = Evaluator(relay)

    def spread(*args):
        raise AssertionError("the mask was spread over the block index")

    monkeypatch.setattr(formula, "_bits", spread)
    assert [bool(ev.mask(Poss("j", fact)) >> i & 1) for i in range(36)] == want
    assert ev.mask(Knows("j", fact)) == 0
    with pytest.raises(ValidationError, match="^'zz' has no declared partition$"):
        ev.mask(Poss("zz", fact))
