"""The exhaustive universe decided all at once: checker vectors over
universe chunks against per-system checks, the directly built universe
systems against build_system, and sweep/falsify results pinned before the
universe was batched."""
import functools
import itertools
import os
import random
import subprocess
import sys

import pytest

from anoncheck import (CLAIMS, FALSE, TRUE, And, GenConfig, Iff,
                       Implies, Knows, Not, Or, Poss, build_system,
                       exhaustive_systems, falsify, random_system,
                       render_system, scenarios, sweep, to_json_dict)
from anoncheck.scenarios import ClaimDef
from reference import Reference
from test_acceptance import _seeded_formula

FLAVORS = ("sequential", "parallel")


def _checker_names(flavor):
    return list(scenarios._FLAVORS[flavor].checkers)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_checker_vectors_match_per_system_checks(flavor):
    """Bit s of a checker's vector is its verdict on system s: all one-run
    systems and every 31st pair."""
    names = _checker_names(flavor)
    for _, suite, ctx, positions, system_at in scenarios._batches(flavor, ()):
        vectors = {name: suite.checker(name).holds(ctx) for name in names}
        for bit, index in enumerate(positions):
            if index < 256 or index % 31 == 8:
                one = suite.context(system_at(bit))
                for name in names:
                    assert bool(vectors[name] >> bit & 1) is suite.checker(name).holds(one), \
                        (name, index)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_universe_chunks_equal_the_column_builder(flavor):
    """Each chunk equals the columns ``_Shape.columns`` builds from that
    chunk's fact sets: sixteen chunks of 2,048 systems, then one of 128, one
    list shared by both flavors."""
    shape, chunks = scenarios._universe(flavor)
    systems = itertools.chain(itertools.combinations(range(256), 1),
                              itertools.combinations(range(256), 2))
    assert [count for count, _ in chunks] == [2048] * 16 + [128]
    for count, columns in chunks:
        chunk = list(itertools.islice(systems, scenarios._CHUNK))
        assert (count, columns) == (len(chunk), shape.columns(chunk))
    assert next(systems, None) is None
    assert chunks is scenarios._universe("parallel")[1] is scenarios._universe("sequential")[1]


def test_universe_chunks_refuse_more_than_eight_facts():
    """One byte per fact set: a wider universe raises, it never wraps."""
    with pytest.raises(ValueError, match="range"):
        scenarios._universe_chunks(9)


def test_universe_is_built_only_when_walked():
    """Importing the package and a random-only sweep build no universe."""
    code = ("import anoncheck\n"
            "from anoncheck import scenarios\n"
            "anoncheck.sweep(exhaustive=False, n_random=50)\n"
            "print(scenarios._universe_chunks.cache_info().currsize)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env).stdout
    assert out == "0\n"


def test_slot_planes_match_the_evaluator_on_universe_chunks():
    """Every connective, against the per-run reference, on the chunk holding
    the one-run systems and on a chunk of pairs only."""
    rng = random.Random(0xB17)
    shape, chunks = scenarios._universe("sequential")
    actions = tuple(shape.ref.actions)
    agents = ("i1", "i2", "k1", "k2", "j")
    for count, columns in chunks[::9]:
        planes = shape.batch(columns, count)
        sample = range(0, count, 13)
        evaluators = [Reference(scenarios._universe_system(shape, columns, s)) for s in sample]
        for _ in range(25):
            f = _seeded_formula(rng, agents, actions, ("j",), 4)
            g = _seeded_formula(rng, agents, actions, ("j",), 3)
            for h in (f, Iff(f, g), Or(Not(f), TRUE), Implies(FALSE, g),
                      Knows("j", Implies(f, g)), Poss("j", And(f, Not(g)))):
                vector = planes.holds(h)
                assert [bool(vector >> s & 1) for s in sample] == \
                    [ev.holds(h) for ev in evaluators]


def _assert_built(system, name, cfg, fact_sets, labels):
    """``system`` is the draw (see ``scenarios._draw``) of ``cfg``'s shape
    with run fact sets ``fact_sets`` and block labels ``labels``, as it
    comes out of build_system: same name, equal, and rendered and saved
    alike."""
    agents, actions, facts = scenarios._declaration(cfg)
    runs = [(f"r{n}", [f for bit, f in enumerate(facts) if m >> bit & 1])
            for n, m in enumerate(fact_sets, start=1)]
    # Blocks out of canonical order, for build_system to sort.
    blocks = [[f"r{n}" for n, label in enumerate(labels, start=1) if label == block]
              for block in sorted(set(labels), reverse=True)]
    built = build_system(name=name, agents=agents, actions=actions, runs=runs,
                         observers={"j": blocks})
    assert system.name == built.name and system == built
    assert render_system(system) == render_system(built)
    assert to_json_dict(system) == to_json_dict(built)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_exhaustive_systems_equal_the_built_ones(flavor):
    """Every 37th universe system and the last, and every system of a
    seeded random pool: every shape, both styles, one to four runs, one
    block or several."""
    fact_sets = [(m,) for m in range(256)] + list(itertools.combinations(range(256), 2))
    checked = 0
    for index, system in enumerate(exhaustive_systems(flavor)):
        if index % 37 == 0 or index == len(fact_sets) - 1:
            _assert_built(system, "x" + "-".join(map(str, fact_sets[index])),
                          GenConfig(flavor=flavor), fact_sets[index], [0] * len(fact_sets[index]))
            checked += 1
    assert index == 32_895 and checked == 891
    runs_seen, blocks_seen, styles = set(), set(), set()
    for cfg in scenarios._random_pool(flavor, 400, 11):
        draw = scenarios._draw(cfg, random.Random(cfg.seed), scenarios._shape_of(cfg).bounds)
        _assert_built(random_system(cfg), f"rnd-{flavor}-{cfg.seed}", cfg, *draw)
        runs_seen.add(len(draw[0]))
        blocks_seen.add(len(set(draw[1])))
        styles.add(cfg.style)
    assert runs_seen == {1, 2, 3, 4} and {1, 2, 3} <= blocks_seen
    assert styles == {"uniform", "matching"}


#: ``sweep(n_random=0)`` per claim, as [checked, confirmed, vacuous, refuted],
#: pinned when every system was still built and checked one by one.
SWEEP_EXHAUSTIVE_STATS = {
    "L3.1": [32896, 2176, 30720, 0],
    "L3.2": [32896, 2176, 30720, 0],
    "C3.2": [32896, 2677, 30219, 0],
    "C3.3": [32896, 2677, 30219, 0],
    "C3.4": [32896, 832, 32064, 0],
    "C3.5": [32896, 832, 32064, 0],
    "C4.1": [32896, 2320, 30576, 0],
    "C4.2": [32896, 2320, 30576, 0],
    "CA.1": [32896, 4335, 28561, 0],
    "CA.2": [32896, 4335, 28561, 0],
    "CA.3": [32896, 18, 32878, 0],
    "CA.4": [32896, 18, 32878, 0],
    "CA.5": [32896, 18, 32878, 0],
    "CA.6": [32896, 18, 32878, 0],
    "CA.7": [32896, 256, 32640, 0],
    "CB.1": [32896, 25353, 7543, 0],
    "CB.2": [32896, 256, 32640, 0],
    "LA.1": [32896, 8321, 24575, 0],
    "LA.2": [32896, 640, 32256, 0],
    "LA.3": [32896, 640, 32256, 0],
    "APPC-EQ": [32896, 14365, 18531, 0],
}


def test_exhaustive_sweep_stats_are_pinned():
    report = sweep(n_random=0)
    stats = {cid: [s.checked, s.confirmed, s.vacuous, s.refuted]
             for cid, s in report.stats.items()}
    assert stats == SWEEP_EXHAUSTIVE_STATS
    assert report.refutations == [] and report.implication_violations == []
    assert report.systems_checked == {"sequential": 32_896, "parallel": 32_896}


#: ``falsify(claim, GenConfig(budget=0), drop=drop)`` as (phase, found system,
#: examined, hypotheses_held), pinned when every system was still built and
#: checked one by one.
FALSIFY_ORACLE = {
    ("L3.1", ()): (None, None, 32896, 2176),
    ("L3.1", ("use-onymity",)): ("exhaustive", "x1-16", 526, 526),
    ("L3.2", ()): (None, None, 32896, 2176),
    ("L3.2", ("post-identity",)): ("exhaustive", "x1-16", 526, 526),
    ("C3.2", ()): (None, None, 32896, 2677),
    ("C3.2", ("independence",)): ("exhaustive", "x16-33", 4233, 954),
    ("C3.2", ("post-privacy",)): ("exhaustive", "x17", 18, 18),
    ("C3.3", ()): (None, None, 32896, 2677),
    ("C3.3", ("independence",)): ("exhaustive", "x1-20", 530, 132),
    ("C3.3", ("use-anonymity",)): ("exhaustive", "x17", 18, 18),
    ("C3.4", ()): (None, None, 32896, 832),
    ("C3.4", ("use-onymity",)): ("exhaustive", "x16-33", 4233, 954),
    ("C3.4", ("post-privacy",)): ("exhaustive", "x17", 18, 18),
    ("C3.5", ()): (None, None, 32896, 832),
    ("C3.5", ("use-anonymity",)): ("exhaustive", "x17", 18, 18),
    ("C3.5", ("post-identity",)): ("exhaustive", "x1-20", 530, 132),
    ("C4.1", ()): (None, None, 32896, 2320),
    ("C4.1", ("independence",)): ("exhaustive", "x1-14", 524, 34),
    ("C4.1", ("a-privacy",)): ("exhaustive", "x13", 14, 6),
    ("C4.1", ("b-privacy",)): ("exhaustive", "x7", 8, 4),
    ("C4.2", ()): (None, None, 32896, 2320),
    ("C4.2", ("independence",)): ("exhaustive", "x1-84", 594, 36),
    ("C4.2", ("a-anonymity",)): ("exhaustive", "x69", 70, 18),
    ("C4.2", ("b-anonymity",)): ("exhaustive", "x21", 22, 6),
    ("CA.1", ()): (None, None, 32896, 4335),
    ("CA.1", ("pairwise-independence",)): ("exhaustive", "x96-150", 20230, 10871),
    ("CA.1", ("post-role-interchangeability",)): ("exhaustive", "x102", 103, 103),
    ("CA.2", ()): (None, None, 32896, 4335),
    ("CA.2", ("pairwise-independence",)): ("exhaustive", "x6-105", 1870, 1124),
    ("CA.2", ("use-role-interchangeability",)): ("exhaustive", "x102", 103, 103),
    ("CA.3", ()): (None, None, 32896, 18),
    ("CA.3", ("independence",)): ("exhaustive", "x49-194", 11720, 12),
    ("CA.3", ("exhaustive-posting",)): (None, None, 32896, 389),
    ("CA.3", ("exclusive-posts",)): (None, None, 32896, 18),
    ("CA.3", ("exclusive-agents",)): ("exhaustive", "x51-195", 12130, 4),
    ("CA.3", ("post-min-privacy",)): ("exhaustive", "x49", 50, 2),
    ("CA.4", ()): (None, None, 32896, 18),
    ("CA.4", ("independence",)): ("exhaustive", "x21-74", 5454, 38),
    ("CA.4", ("exhaustive-registration",)): (None, None, 32896, 389),
    ("CA.4", ("exclusive-agents",)): (None, None, 32896, 18),
    ("CA.4", ("exclusive-posts",)): ("exhaustive", "x85-90", 18366, 11),
    ("CA.4", ("use-min-anonymity",)): ("exhaustive", "x21", 22, 5),
    ("CA.5", ()): (None, None, 32896, 18),
    ("CA.5", ("exhaustive-posting",)): (None, None, 32896, 225),
    ("CA.5", ("exclusive-posts",)): (None, None, 32896, 18),
    ("CA.5", ("exclusive-agents",)): ("exhaustive", "x51-195", 12130, 4),
    ("CA.5", ("use-onymity",)): ("exhaustive", "x49-194", 11720, 12),
    ("CA.5", ("post-min-privacy",)): ("exhaustive", "x49", 50, 2),
    ("CA.6", ()): (None, None, 32896, 18),
    ("CA.6", ("exhaustive-registration",)): (None, None, 32896, 225),
    ("CA.6", ("exclusive-posts",)): ("exhaustive", "x85-90", 18366, 11),
    ("CA.6", ("exclusive-agents",)): (None, None, 32896, 18),
    ("CA.6", ("use-min-anonymity",)): ("exhaustive", "x21", 22, 5),
    ("CA.6", ("post-identity",)): ("exhaustive", "x21-74", 5454, 38),
    ("CA.7", ()): (None, None, 32896, 256),
    ("CA.7", ("use-onymity",)): ("exhaustive", "x16-17", 4217, 377),
    ("CA.7", ("post-identity",)): ("exhaustive", "x1-17", 527, 272),
    ("CB.1", ()): (None, None, 32896, 25353),
    ("CB.1", ("min-privacy-either",)): ("exhaustive", "x5", 6, 6),
    ("CB.2", ()): (None, None, 32896, 256),
    ("CB.2", ("ab-identity",)): ("exhaustive", "x0-5", 261, 261),
    ("LA.1", ()): (None, None, 32896, 8321),
    ("LA.1", ("independence",)): ("exhaustive", "x1-16", 526, 526),
    ("LA.2", ()): (None, None, 32896, 640),
    ("LA.2", ("independence",)): ("exhaustive", "x48-97", 11417, 81),
    ("LA.2", ("exhaustive-posting",)): ("exhaustive", "x0-17", 273, 161),
    ("LA.2", ("exclusive-posts",)): ("exhaustive", "x48-113", 11433, 162),
    ("LA.3", ()): (None, None, 32896, 640),
    ("LA.3", ("independence",)): ("exhaustive", "x5-22", 1538, 69),
    ("LA.3", ("exhaustive-registration",)): ("exhaustive", "x0-17", 273, 154),
    ("LA.3", ("exclusive-agents",)): ("exhaustive", "x5-23", 1539, 154),
    ("APPC-EQ", ()): (None, None, 32896, 14365),
    ("APPC-EQ", ("backward-causality",)): ("exhaustive", "x1-16", 526, 526),
}


def test_falsify_table_is_pinned():
    assert {cid for cid, _ in FALSIFY_ORACLE} == {
        cid for cid, cdef in CLAIMS.items() if not cdef.witness_only}
    for (cid, drop), want in FALSIFY_ORACLE.items():
        result = falsify(cid, GenConfig(budget=0), drop=drop)
        found = None if result.found is None else result.found.name
        assert (result.phase, found, result.examined, result.hypotheses_held) == want, \
            (cid, drop)


def _reference_sweep(claims, systems):
    """Refutations and implication violations, one system at a time, over
    the (suite, system) pairs."""
    refutations, violations = [], []
    for suite, system in systems:
        ctx = suite.context(system)
        holds = functools.lru_cache(maxsize=None)(
            lambda name: suite.checker(name).holds(ctx))
        for cid in claims:
            cdef = CLAIMS[cid]
            if all(map(holds, cdef.hypotheses)) and not holds(cdef.conclusion):
                refutations.append((cid, system.name))
        for stronger, weaker in scenarios.HYPOTHESIS_IMPLICATIONS:
            if all(map(holds, CLAIMS[stronger].hypotheses)):
                violations += [(stronger, weaker, f"{system.name}: {n} fails")
                               for n in CLAIMS[weaker].hypotheses if not holds(n)]
    return refutations, violations


@pytest.mark.parametrize("exhaustive", [True, False])
def test_refutations_and_violations_keep_their_order(exhaustive, monkeypatch):
    """Two non-theorems refuted on shared systems and two false
    implications, listed by system, then by claim, implication and
    hypothesis, as a per-system loop lists them, up to the cap."""
    monkeypatch.setitem(CLAIMS, "ZZ.1", ClaimDef(
        "ZZ.1", "sequential", "not a theorem", ("use-onymity",), "post-privacy"))
    monkeypatch.setitem(CLAIMS, "ZZ.2", ClaimDef(
        "ZZ.2", "sequential", "not a theorem", ("post-identity",), "use-anonymity"))
    monkeypatch.setattr(scenarios, "HYPOTHESIS_IMPLICATIONS",
                        (("ZZ.2", "ZZ.1"), ("L3.1", "C3.5")))
    claims = ["ZZ.1", "ZZ.2"]
    report = sweep(claims=claims, n_random=200, seed=3, exhaustive=exhaustive)
    shape, _ = scenarios._universe("sequential")
    pool = ((scenarios._shape_of(cfg).suite(), random_system(cfg))
            for cfg in scenarios._random_pool("sequential", 200, 3))
    systems = itertools.chain(
        ((shape.suite(), s) for s in exhaustive_systems("sequential"))
        if exhaustive else (), pool)
    refutations, violations = _reference_sweep(claims, systems)
    cap = scenarios._MAX_REPORTED
    assert [(cid, s.name) for cid, s in report.refutations] == refutations[:cap]
    assert report.implication_violations == violations[:cap]
    assert report.implication_violations_total == len(violations)
    assert len(refutations) > cap and {cid for cid, _ in refutations[:cap]} == set(claims)
    assert len(violations) > cap
    by_system = [v[2].split(":")[0] for v in violations]
    assert len(set(by_system)) < len(by_system)  # some system violates twice
