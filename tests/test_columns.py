"""Fact columns: the one-pass fact index of ``InterpretedSystem``, and
derivation as run-mask algebra over it, against the run-by-run reference
(``tests/reference.py``)."""
import random
from itertools import product

import pytest

from anoncheck import (GenConfig, build_system, derive_parallel, derive_sequential,
                       exhaustive_systems, mixer_chain, random_system, render_system,
                       to_json_dict)
from anoncheck.composition import _conjuncts
from anoncheck.formula import Atom, Evaluator, parse
from anoncheck.scenarios import (FIXTURE_NAMES, _shape, fixture_system,
                                 standard_parallel_schema, standard_sequential_schema)
from anoncheck.system import InterpretedSystem

import reference

_FLAVORS = {"sequential": (standard_sequential_schema, derive_sequential),
            "parallel": (standard_parallel_schema, derive_parallel)}


def _bases(flavor):
    """Every bundled fixture of the flavor, relays (sequential), every 2,999th
    exhaustive system and random systems of both fact styles and partition
    policies."""
    systems = [fixture_system(name) for name in FIXTURE_NAMES
               if name.startswith("par_") == (flavor == "parallel")]
    if flavor == "sequential":
        systems += [mixer_chain("all", "all", policy, messages=msgs)
                    for msgs in (["m1", "m2"], ["m2", "m3", "m1"])
                    for policy in ("single", "discrete")]
        systems.append(mixer_chain("all", "inverse", messages=["a", "b", "c"]))
    systems += [s for n, s in enumerate(exhaustive_systems(flavor)) if n % 2999 == 0]
    rng = random.Random(flavor)
    systems += [random_system(GenConfig(n_real=rng.randint(1, 3), n_pseudo=rng.randint(1, 3),
                                        n_articles=rng.randint(1, 3), seed=seed,
                                        flavor=flavor, style=style,
                                        partition=("single", "random")[seed % 2]))
                for style in ("uniform", "matching") for seed in range(60)]
    return systems


def _all_facts(system):
    """Every fact that could hold: each declared agent with each action."""
    return list(product(system.agents, system.actions))


@pytest.mark.parametrize("flavor", sorted(_FLAVORS))
def test_derivation_matches_the_run_by_run_reference(flavor):
    infer, derive = _FLAVORS[flavor]
    bases = _bases(flavor)
    assert len(bases) > 130
    for base in bases:
        schema = infer(base)
        derived, expected = derive(base, schema), reference.derive(base, schema)
        assert [(r.run_id, r.facts) for r in derived.runs] == \
            [(r.run_id, r.facts) for r in expected.runs], base.name
        assert derived.actions == expected.actions
        for fact in _all_facts(derived):
            assert derived.holding(fact) == reference.holding(expected, fact), (base.name, fact)
        assert render_system(derived) == render_system(expected)
        assert to_json_dict(derived) == to_json_dict(expected)


@pytest.mark.parametrize("flavor", sorted(_FLAVORS))
def test_derived_columns_equal_a_fresh_index(flavor):
    infer, derive = _FLAVORS[flavor]
    for base in _bases(flavor):
        derived = derive(base, infer(base))
        fresh = InterpretedSystem(derived.name, derived.agents, derived.roles,
                                  derived.actions, derived.runs, derived.observers)
        assert derived._columns() == fresh._columns(), base.name
        # The run-id and partition indexes are the parent's own.
        assert derived._run_index is base._run_index and derived._blocks is base._blocks
        assert derived.block_numbers("j") == fresh.block_numbers("j")


def test_the_fact_index_is_built_once_for_every_fact():
    system = mixer_chain("all", "all", messages=["m1", "m2", "m3"])
    assert system._holding is None
    fact = ("in_m1", parse("theta(in_m1, use(mid_m2))").action)
    assert system.holding(fact) == reference.holding(system, fact)
    facts = {f for run in system.runs for f in run.facts}
    assert set(system._holding) == facts  # every fact that holds, after one call
    for fact in _all_facts(system):
        assert system.holding(fact) == reference.holding(system, fact)


def test_derivation_leaves_the_parent_as_it_was():
    base = mixer_chain("all", "all", messages=["m1", "m2", "m3"])
    runs, text = base.runs, render_system(base)
    derived = derive_sequential(base, standard_sequential_schema(base))
    assert base.runs is runs and render_system(base) == text
    assert not any(f[1].family == "submit" for f in base._columns())
    assert len(derived._columns()) > len(base._columns())


def test_a_run_gaining_no_fact_keeps_its_run():
    base = build_system(agents=["i1", "k1", "j"], actions=["use(k1)", "post(c1)"],
                        runs=[("r1", [("i1", "use(k1)")]),
                              ("r2", [("i1", "use(k1)"), ("k1", "post(c1)")])],
                        observers={"j": [["r1", "r2"]]})
    derived = derive_sequential(base, standard_sequential_schema(base))
    assert derived.runs[0] is base.runs[0]
    assert derived.runs[1].facts == base.runs[1].facts | {("i1", derived.actions[-1])}


@pytest.mark.parametrize("flavor", sorted(_FLAVORS))
def test_shape_terms_match_a_derived_catalog(flavor):
    """Each atom's terms are the fact pairs on which the reference
    derivation of a catalog, one run per set of at most two facts, makes
    it hold, minimal under inclusion."""
    infer, _ = _FLAVORS[flavor]
    for sizes in ((1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 3), (2, 1, 3)):
        shape = _shape(flavor, *sizes)
        facts = shape.facts
        pairs = [(a, b) for a in range(len(facts)) for b in range(a, len(facts))]
        catalog = build_system(
            name="catalog", agents=shape.ref.agents, actions=shape.ref.actions,
            runs=[(f"p{n}", [facts[a], facts[b]]) for n, (a, b) in enumerate(pairs)],
            observers={"j": [[f"p{n}" for n in range(len(pairs))]]})
        holding: dict = {}
        for pair, run in zip(pairs, reference.derive(catalog, infer(catalog)).runs):
            for fact in run.facts:
                holding.setdefault(Atom(*fact), set()).add(pair)
        expected = {atom: {(a, b) for a, b in sets if a == b or not {(a, a), (b, b)} & sets}
                    for atom, sets in holding.items()}
        terms = {atom: set(t) for atom, t in shape._terms.items() if t}
        assert terms == expected, (flavor, sizes)
        rng = random.Random(str(sizes))
        columns = [rng.getrandbits(64) for _ in facts]
        for fact in _conjuncts(shape.ref, infer(shape.ref)):
            atom = Atom(*fact)
            want = 0
            for a, b in expected.get(atom, ()):
                want |= columns[a] & columns[b]
            assert shape.column(columns, atom) == want


def test_evaluate_reads_every_run_from_one_mask():
    system = mixer_chain("all", "all", messages=["m1", "m2", "m3"])
    ev = Evaluator(system)
    for text in ("theta(in_m1, use(mid_m2)) -> K[j] theta(in_m1, use(mid_m2))",
                 "P[j] theta(mid_m3, post(out_m1)) & !theta(in_m2, use(mid_m3))"):
        f = parse(text)
        mask = ev.mask(f)
        assert [ev.evaluate(f, run) for run in system.runs] == \
            [bool(mask >> i & 1) for i in range(len(system.runs))]
        assert [ev.evaluate(f, run) for run in reversed(system.runs)] == \
            [bool(mask >> i & 1) for i in reversed(range(len(system.runs)))]
