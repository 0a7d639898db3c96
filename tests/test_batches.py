"""Generated systems decided in batches, as slot planes: checker vectors,
formula planes, derived-atom tables and falsify's random phase against
the per-system path, and the random sweep against the benchmark's pinned
table."""
import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

from anoncheck import (CLAIMS, Atom, ClaimVerdict, GenConfig, RunMasks,
                       build_system, check_claim, derive_parallel,
                       derive_sequential, falsify, random_system, scenarios,
                       sweep)
from anoncheck.formula import FALSE, TRUE, Iff, Implies, Knows, Not, Or, Poss
from test_acceptance import _seeded_formula
from test_universe import _checker_names

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "sweep_oracle.json"

SHAPES = {
    "sequential": list(itertools.product((1, 2, 3), repeat=3)),
    "parallel": [(nr, 1, nc) for nr in (1, 2, 3) for nc in (1, 2, 3)],
}


def _batch(cfgs):
    """The systems of ``cfgs`` (one shape) as a batch, as the sweep makes it."""
    shape = scenarios._shape_of(cfgs[0])
    draws = [scenarios._draw(cfg, random.Random(cfg.seed), shape.bounds) for cfg in cfgs]
    return shape, shape.drawn_batch(draws)


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_batch_vectors_match_per_system_checks(flavor, bound):
    """Bit s of every checker's vector over a batch is its verdict on
    system s, built and derived on its own: every shape, both partition
    policies and both styles, one to four runs."""
    names = _checker_names(flavor)
    runs_seen, split_seen = set(), False
    for nr, np_, nc in SHAPES[flavor]:
        for partition in ("single", "random"):
            cfgs = [GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4,
                              partition=partition, style=style, flavor=flavor,
                              seed=1000 * nr + 100 * np_ + 10 * nc + seed)
                    for style in ("uniform", "matching") for seed in range(3)]
            shape, ctx = _batch(cfgs)
            suite = shape.suite(bound)
            systems = [random_system(cfg) for cfg in cfgs]
            for name in names:
                vector = suite.checker(name).holds(ctx)
                assert [bool(vector >> s & 1) for s in range(len(cfgs))] == \
                    [suite.checker(name).holds(suite.context(system)) for system in systems], \
                    (name, nr, np_, nc, partition)
            runs_seen |= {len(system.runs) for system in systems}
            split_seen |= any(len(s.observers["j"].blocks) > 1 for s in systems)
    assert runs_seen == {1, 2, 3, 4} and split_seen


def test_slot_planes_match_run_masks_on_random_partitions():
    """Every connective, plane by plane: slot i of system s is run i, or
    run 1 when the system has fewer runs."""
    rng = random.Random(0x5107)
    cfgs = [GenConfig(n_real=3, n_pseudo=3, n_articles=3, max_runs=4, partition="random",
                      style=("uniform", "matching")[seed % 2], seed=seed)
            for seed in range(40)]
    _, planes = _batch(cfgs)
    systems = [random_system(cfg) for cfg in cfgs]
    masks = [RunMasks(system) for system in systems]
    assert any(len(s.observers["j"].blocks) > 1 for s in systems)
    assert max(len(s.runs) for s in systems) == 4
    agents = tuple(systems[0].agents)
    actions = tuple(systems[0].actions)
    for _ in range(40):
        f = _seeded_formula(rng, agents, actions, ("j",), 4)
        g = _seeded_formula(rng, agents, actions, ("j",), 3)
        for h in (f, Iff(Poss("j", f), Not(Knows("j", Not(f)))), Iff(f, g),
                  Or(f, TRUE), Implies(FALSE, g), Knows("j", Implies(f, g))):
            valid = planes.valid(h)
            got = planes._eval(h)  # plane i at bit i * len(cfgs)
            for s, (system, m) in enumerate(zip(systems, masks)):
                mask = m.mask(h)
                runs = len(system.runs)
                assert [bool(got >> i * len(cfgs) + s & 1) for i in range(4)] == \
                    [bool(mask >> (i if i < runs else 0) & 1) for i in range(4)]
                assert bool(valid >> s & 1) is m.valid(h)


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_derived_atom_tables_match_the_derivation(flavor):
    """Every atom of the derived system, on random fact sets of every shape."""
    rng = random.Random(0xDE21)
    derive = derive_sequential if flavor == "sequential" else derive_parallel
    for nr, np_, nc in SHAPES[flavor]:
        shape = scenarios._shape(flavor, nr, np_, nc)
        ref, facts = shape.ref, shape.facts
        fact_sets = [rng.getrandbits(len(facts)) for _ in range(30)]
        system = build_system(
            name="sets", agents=[(a, ref.roles[a]) for a in ref.agents],
            actions=ref.actions, observers={"j": [[f"r{n}" for n in range(30)]]},
            runs=[(f"r{n}", [f for b, f in enumerate(facts) if m >> b & 1])
                  for n, m in enumerate(fact_sets)])
        infer_schema, _ = scenarios._flavor_functions(flavor)
        derived = derive(system, infer_schema(system))
        columns = scenarios._transpose(fact_sets, len(facts))
        masks = RunMasks(derived)
        for agent in derived.agents:
            for action in derived.actions:
                atom = Atom(agent, action)
                assert shape.column(columns, atom) == masks.mask(atom), (atom, nr, np_, nc)


def test_random_sweep_reproduces_the_benchmark_oracle():
    pinned = json.loads(ORACLE.read_text())
    assert (pinned["seed"], pinned["n_random"]) == (2026, 1000)
    report = sweep(exhaustive=False, n_random=1000, seed=2026)
    table = {cid: [s.checked, s.confirmed, s.vacuous, s.refuted]
             for cid, s in sorted(report.stats.items())}
    assert table == pinned["stats"]
    assert sorted(table) == sorted(cid for cid, c in CLAIMS.items() if not c.witness_only)
    assert report.refutations == [] and report.implication_violations == []


@pytest.mark.parametrize("max_runs", [2, 6, 16])
def test_falsify_random_phase_reports_the_first_refuting_system(max_runs, monkeypatch):
    """With the universe skipped, a search stops at the same system, with
    the same counts, as checking its random systems one by one."""
    monkeypatch.setattr(scenarios._Universe, "chunks", lambda self: iter(()))
    cfg = GenConfig(n_real=2, n_pseudo=3, n_articles=2, max_runs=max_runs, budget=3000,
                    partition="random", style="matching", seed=8)
    result = falsify("CA.1", cfg, drop=("pairwise-independence",))
    rng = random.Random(cfg.seed)
    held = 0
    for examined in itertools.count(1):
        system = random_system(dataclasses.replace(cfg, seed=rng.getrandbits(48)))
        report = check_claim("CA.1", system, drop=("pairwise-independence",))
        held += report.hypotheses_hold
        if report.verdict is ClaimVerdict.REFUTED:
            break
    assert examined > 1
    assert (result.phase, result.found, result.examined, result.hypotheses_held) == \
        ("random", system, examined, held)


def test_pool_batches_hold_back_a_bounded_number_of_configurations(monkeypatch):
    """Every pooled configuration lands in exactly one batch of its shape
    and partition policy, in pool order, and at most ``_MAX_PENDING`` of
    them wait for their batch at any time."""
    monkeypatch.setattr(scenarios, "_MAX_PENDING", 300)
    pool = list(scenarios._random_pool("sequential", 3000, 7))
    pulled = 0

    def counted():
        nonlocal pulled
        for cfg in pool:
            pulled += 1
            yield cfg

    seen, batches = [], 0
    for shape, members in scenarios._pool_batches(counted()):
        batches += 1
        assert pulled - len(seen) <= 300
        indices = [idx for idx, _ in members]
        assert indices == sorted(indices)
        assert {(scenarios._shape_of(cfg), cfg.partition) for _, cfg in members} == \
            {(shape, members[0][1].partition)}
        assert all(pool[idx] is cfg for idx, cfg in members)
        seen += indices
    assert sorted(seen) == list(range(len(pool))) and batches > 54
