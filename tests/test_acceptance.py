"""End-to-end acceptance checks.

Each test covers one acceptance criterion, finishes with a printed
"criterion N ...: PASS" line, and pins its timing budget.  Budgets are
wall-clock upper bounds on commodity hardware; the measured times are
printed for inspection.  Run with ``pytest -v`` for the per-criterion
verdict lines.
"""
import itertools
import random
import time

from anoncheck import (CLAIMS, Action, ClaimVerdict, GenConfig,
                       IndependenceKind, PropertyKind, PropertySpec,
                       anonymous_up_to, check_claim, check_independence,
                       check_property, compile_property, derive_sequential,
                       exhaustive_systems, falsify, maximally_onymous,
                       mixer_chain, paper_system, parse, private_up_to,
                       random_system, render, sweep)
from anoncheck.formula import And, Atom, Evaluator, Iff, Implies, Knows, Not, Or, Poss
from anoncheck.composition import standard_sequential_schema

SUB_C1 = Action.parse("submit(c1)")
SUB_C2 = Action.parse("submit(c2)")


def _report(criterion: str, elapsed: float, budget: float, label: str):
    print(f"criterion {criterion} ({label}): PASS [{elapsed:.2f}s < {budget:.0f}s]")


def test_criterion_1_witness_claim_exact():
    started = time.perf_counter()
    s12 = paper_system("s12")
    report = check_claim("C3.1", s12)
    assert report.verdict is ClaimVerdict.CONFIRMED
    assert all(holds for _, _, holds, _ in report.items)
    assert len(report.items) == 4

    derived = derive_sequential(s12, standard_sequential_schema(s12))
    anon = check_property(derived, anonymous_up_to("i1", SUB_C1, ["i1", "i2"], "j"))
    assert (anon.holds, anon.counterexample) == (False, ("r1", "i2"))
    priv = check_property(derived, private_up_to("i2", SUB_C2, [SUB_C1, SUB_C2], "j"))
    assert (priv.holds, priv.counterexample) == (False, ("r1", "submit(c1)"))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("1", elapsed, 1, "witness claim item breakdown")


def test_criterion_2_independence_verdicts_exact():
    rec_started = time.perf_counter()
    reconstructed = {name: paper_system(name) for name in ("s125678", "s129-12")}
    rec_elapsed = time.perf_counter() - rec_started
    assert rec_elapsed < 60.0

    started = time.perf_counter()
    expected = [
        ("s12", IndependenceKind.BASIC, False),
        ("s1234", IndependenceKind.BASIC, True),
        ("s1234", IndependenceKind.PAIRWISE, True),
        ("s125678", IndependenceKind.PAIRWISE, False),
        ("s129-12", IndependenceKind.PAIRWISE, False),
    ]
    for name, kind, holds in expected:
        system = reconstructed.get(name) or paper_system(name)
        schema = standard_sequential_schema(system)
        assert check_independence(system, "j", schema, kind).holds == holds, (name, kind)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("2", rec_elapsed + elapsed, 61,
            "independence verdicts incl. reconstruction")


#: ``sweep(n_random=100_000, seed=2026)`` per claim, as [checked, confirmed,
#: vacuous, refuted]: every random batch of it is cut by the pending-items
#: flush of the pool, which the benchmark's 1,000-system table never reaches.
CRITERION_3_STATS = {
    "L3.1": [132896, 59840, 73056, 0],
    "L3.2": [132896, 60102, 72794, 0],
    "C3.2": [132896, 36329, 96567, 0],
    "C3.3": [132896, 49779, 83117, 0],
    "C3.4": [132896, 25067, 107829, 0],
    "C3.5": [132896, 36778, 96118, 0],
    "C4.1": [132896, 35766, 97130, 0],
    "C4.2": [132896, 47172, 85724, 0],
    "CA.1": [132896, 53492, 79404, 0],
    "CA.2": [132896, 55955, 76941, 0],
    "CA.3": [132896, 1159, 131737, 0],
    "CA.4": [132896, 1556, 131340, 0],
    "CA.5": [132896, 1145, 131751, 0],
    "CA.6": [132896, 1544, 131352, 0],
    "CA.7": [132896, 48624, 84272, 0],
    "CB.1": [132896, 74522, 58374, 0],
    "CB.2": [132896, 54328, 78568, 0],
    "LA.1": [132896, 81199, 51697, 0],
    "LA.2": [132896, 20394, 112502, 0],
    "LA.3": [132896, 52109, 80787, 0],
    "APPC-EQ": [132896, 59597, 73299, 0],
}


def test_criterion_3_theorem_sweep():
    started = time.perf_counter()
    report = sweep(n_random=100_000, seed=2026)
    elapsed = time.perf_counter() - started
    assert report.refutations == []
    assert report.implication_violations == []
    assert report.systems_checked == {"sequential": 132_896, "parallel": 132_896}
    swept = [cid for cid, cdef in CLAIMS.items() if not cdef.witness_only]
    assert sorted(report.stats) == sorted(swept) and len(swept) == 21
    for cid, stats in report.stats.items():
        assert stats.refuted == 0, cid
        assert stats.confirmed >= 100, (cid, stats.confirmed)
    assert {cid: [s.checked, s.confirmed, s.vacuous, s.refuted]
            for cid, s in report.stats.items()} == CRITERION_3_STATS
    assert elapsed < 60.0
    _report("3", elapsed, 60, "zero refutations, >=100 confirmations per claim")


def test_criterion_4_necessity_of_hypotheses():
    budgets = []

    started = time.perf_counter()
    result = falsify("C3.2", drop=("independence",))
    budgets.append(time.perf_counter() - started)
    assert result.found is not None and result.examined <= 10_000
    assert result.report.verdict is ClaimVerdict.REFUTED

    started = time.perf_counter()
    result = falsify("C4.2", drop=("independence",))
    budgets.append(time.perf_counter() - started)
    assert result.found is not None and result.examined <= 10_000
    assert result.report.verdict is ClaimVerdict.REFUTED

    started = time.perf_counter()
    result = falsify("CA.1", drop=("pairwise-independence",))
    budgets.append(time.perf_counter() - started)
    assert result.found is not None
    assert result.report.verdict is ClaimVerdict.REFUTED

    started = time.perf_counter()
    report = check_claim("CA.3", paper_system("s56"), drop=("exclusive-agents",))
    budgets.append(time.perf_counter() - started)
    assert report.verdict is ClaimVerdict.REFUTED

    assert max(budgets) < 60.0
    _report("4", sum(budgets), 60, "each dropped hypothesis exposes a refutation")


def test_criterion_5_mixer_relay():
    started = time.perf_counter()
    messages = ["m1", "m2", "m3"]

    inverse = mixer_chain("all", "inverse", messages=messages)
    derived = derive_sequential(inverse, standard_sequential_schema(inverse))
    for m in messages:
        spec = maximally_onymous(f"in_{m}", Action("submit", f"out_{m}"), "j")
        assert check_property(derived, spec).holds, m

    free = mixer_chain("all", "all", messages=messages)
    derived = derive_sequential(free, standard_sequential_schema(free))
    incoming = [a for a in derived.agents if a.startswith("in_")]
    assert len(derived.runs) == 36
    for i in incoming:
        for m in messages:
            spec = anonymous_up_to(i, Action("submit", f"out_{m}"), incoming, "j")
            assert check_property(derived, spec).holds, (i, m)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("5", elapsed, 5, "relay identity vs full anonymity")


def _seeded_formula(rng: random.Random, agents, actions, observers, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(agents), rng.choice(actions))
    pick = rng.randrange(6)
    if pick == 0:
        return Not(_seeded_formula(rng, agents, actions, observers, depth - 1))
    if pick == 1:
        return Knows(rng.choice(observers),
                     _seeded_formula(rng, agents, actions, observers, depth - 1))
    if pick == 2:
        return Poss(rng.choice(observers),
                    _seeded_formula(rng, agents, actions, observers, depth - 1))
    left = _seeded_formula(rng, agents, actions, observers, depth - 1)
    right = _seeded_formula(rng, agents, actions, observers, depth - 1)
    return (And, Or, Implies)[pick - 3](left, right)


def test_criterion_6_semantics_invariants():
    started = time.perf_counter()
    rng = random.Random(0xACCE)
    agents = ("i1", "i2", "k1", "k2", "j")
    observers = ("j",)

    # duality and veridicality on seeded systems and formulas
    for seed in range(40):
        cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform",
                        partition="random" if seed % 3 else "single")
        system = random_system(cfg)
        ev = Evaluator(system)
        for _ in range(15):
            f = _seeded_formula(rng, agents, tuple(system.actions), observers, 4)
            dual = Iff(Poss("j", f), Not(Knows("j", Not(f))))
            verid = Implies(Knows("j", f), f)
            intro = Implies(f, Poss("j", f))
            for run in system.runs:
                assert ev.evaluate(dual, run)
                assert ev.evaluate(verid, run)
                assert ev.evaluate(intro, run)

    # kernel laws: reflexive membership and a genuine partition
    for seed in range(120):
        system = random_system(GenConfig(seed=seed, partition="random"))
        seen = set()
        for run in system.runs:
            block = system.kernel("j", run)
            assert any(r.run_id == run.run_id for r in block)
            ids = frozenset(r.run_id for r in block)
            for other in block:
                assert frozenset(r.run_id for r in system.kernel("j", other)) == ids
            seen.update(ids)
        assert seen == {r.run_id for r in system.runs}

    # parse/render round trip on >= 1000 seeded formulas
    n_roundtrip = 0
    action_pool = tuple(Action.parse(t) for t in
                        ("use(k1)", "use(k2)", "post(c1)", "post(c2)"))
    for _ in range(1200):
        f = _seeded_formula(rng, agents, action_pool, observers, 5)
        text = render(f)
        assert parse(text) == f
        n_roundtrip += 1
    assert n_roundtrip >= 1000

    # derivation preserves the semantics of pre-existing atoms
    for seed in range(40):
        base = random_system(GenConfig(seed=seed))
        derived = derive_sequential(base, standard_sequential_schema(base))
        ev_b, ev_d = Evaluator(base), Evaluator(derived)
        for _ in range(10):
            f = _seeded_formula(rng, agents, tuple(base.actions), observers, 3)
            for rb, rd in zip(base.runs, derived.runs):
                assert ev_b.evaluate(f, rb) == ev_d.evaluate(f, rd)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("6", elapsed, 60, "duality, veridicality, kernels, round trip")


def test_criterion_7_equivalent_kinds_compile_identically():
    started = time.perf_counter()
    pairs = [
        (PropertyKind.MINIMALLY_PRIVATE, PropertyKind.MINIMALLY_ANONYMOUS),
        (PropertyKind.MAXIMALLY_IDENTIFIED, PropertyKind.MAXIMALLY_ONYMOUS),
    ]
    n_specs = 0
    systems = itertools.chain(
        (paper_system(n) for n in ("s12", "s1234", "s56")),
        itertools.islice(exhaustive_systems("sequential"), 0, None, 31),
    )
    for system in systems:
        for subject in system.agents:
            for action in system.actions:
                for left, right in pairs:
                    a = compile_property(system, PropertySpec(left, subject, action, "j"))
                    b = compile_property(system, PropertySpec(right, subject, action, "j"))
                    assert a == b
                    n_specs += 1
    assert n_specs > 10_000
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("7", elapsed, 60, "coinciding kinds compile to identical formulas")
