"""Generated systems decided in batches, as slot planes: checker vectors,
formula planes, independence decided from its terms, derived-atom tables
and falsify's random phase against the per-system path, and the random
sweep against the benchmark's pinned table."""
import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

import reference
from anoncheck import (CLAIMS, Atom, ClaimVerdict, Evaluator, GenConfig,
                       PropertySpec, build_system, check_claim, compile_property,
                       composition, derive_parallel, derive_sequential, falsify,
                       formula, independence_obligations, properties, random_system,
                       registry, scenarios, sweep, valid)
from anoncheck.composition import _independence_pairs
from anoncheck.formula import FALSE, TRUE, Iff, Implies, Knows, Not, Or, Poss
from anoncheck.system import _transpose
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


def _entries(flavor, *builders):
    """(name, builder arguments) of each of the flavor's checkers that one
    of ``builders`` builds."""
    return [(name, args) for name, (build, *args) in registry._FLAVORS[flavor].checkers.items()
            if build in builders]


def _independence_kinds(flavor):
    """Each independence checker's name and its kind, from its table entry."""
    return {name: kind for name, (kind,) in _entries(flavor, registry.CheckSuite._independence)}


def _independence_checkers(shape):
    """(kind, [(label, formula), ...]) per independence checker of the
    shape's suite."""
    suite = shape.suite
    checkers = [(kind, suite.checker(name))
                for name, kind in _independence_kinds(shape.flavor).items()]
    return [(kind, list(c.obligations())) for kind, c in checkers]


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_shared_independence_checkers_match_the_obligations(flavor):
    """Suites of every shape share their obligation tables, and each still
    checks exactly what :func:`independence_obligations` lists."""
    for shape_args in SHAPES[flavor]:
        shape = scenarios._shape(flavor, *shape_args)
        schema = shape.suite.schema
        for kind, obligations in _independence_checkers(shape):
            assert obligations == list(independence_obligations(
                shape.ref, schema, "j", kind)), (shape_args, kind)


def test_shapes_share_one_object_per_obligation():
    small = dict(_independence_checkers(scenarios._shape("sequential", 2, 2, 2)))
    large = dict(_independence_checkers(scenarios._shape("sequential", 3, 3, 3)))
    shared = 0
    for kind, obligations in small.items():
        formulas = dict(large[kind])
        for label, f in obligations:
            if label in formulas:
                assert formulas[label] is f, (kind, label)
                shared += 1
    assert shared == sum(map(len, small.values()))


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_distributes_matches_the_obligations(flavor):
    """Every independence kind, decided from its terms: bit s of a batch's
    vector is the verdict on system s of the evaluator, of the reference
    and of the obligation formulas, on pooled systems of every shape, one
    to four runs, single and random partitions."""
    infer_schema = registry._FLAVORS[flavor].infer_schema
    outcomes, runs_seen, split_seen = set(), set(), False
    for nr, np_, nc in SHAPES[flavor]:
        cfgs = [GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4,
                          partition=("single", "random")[seed % 2],
                          style=("uniform", "matching")[seed // 2 % 2], flavor=flavor,
                          seed=7000 + 100 * nr + 10 * np_ + nc + seed)
                for seed in range(4)]
        shape, planes = _batch(cfgs)
        systems = [random_system(cfg) for cfg in cfgs]
        for kind in _independence_kinds(flavor).values():
            terms = tuple((u, p) for (_, u), (_, p) in _independence_pairs(
                shape.ref, shape.suite.schema, "j", kind)[1])
            vector = planes.distributes("j", terms)
            for s, system in enumerate(systems):
                got = Evaluator(system).distributes("j", terms)
                assert type(got) is bool
                assert bool(vector >> s & 1) is got, (kind, nr, np_, nc, s)
                assert reference.Reference(system).distributes("j", terms) is got
                obligations = independence_obligations(system, infer_schema(system), "j", kind)
                assert all(valid(system, f).holds for _, f in obligations) is got
                outcomes.add((kind, got))
        runs_seen |= {len(system.runs) for system in systems}
        split_seen |= any(len(s.observers["j"].blocks) > 1 for s in systems)
    kinds = _independence_kinds(flavor).values()
    assert outcomes == {(kind, got) for kind in kinds for got in (True, False)}
    assert runs_seen == {1, 2, 3, 4} and split_seen


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_independence_checkers_build_no_obligation(flavor, monkeypatch):
    """Compiling an independence checker and deciding it on a batch build
    no obligation formula, and no formula node at all."""
    def refuse(*args):
        raise AssertionError("an obligation formula was built")

    monkeypatch.setattr(composition, "_distributes", refuse)
    nr, np_, nc = SHAPES[flavor][-1]
    cfgs = [GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4, partition="random",
                      flavor=flavor, seed=seed) for seed in range(16)]
    shape, planes = _batch(cfgs)
    suite = registry.CheckSuite(flavor, shape.suite.schema, "j", shape.ref)
    for name in _independence_kinds(flavor):
        checker = suite.checker(name)
        nodes = len(formula._NODES)
        assert 0 <= checker.holds(planes) <= planes.all
        assert len(formula._NODES) == nodes, name


def _guarded_names(flavor):
    """The checkers decided from fact-term rows: every property checker,
    the either/or one and the independence reformulation equivalence."""
    cls = registry.CheckSuite
    return [name for name, _ in _entries(flavor, cls._stage_property, cls._min_privacy_either,
                                         cls._reformulation_equivalence)]


def _obligation_verdict(checker, ref):
    """The checker restated on a :class:`reference.Reference`: the AND of
    its obligations' validity, or of the either/or of its alternatives'."""
    if isinstance(checker, registry._AnyOfEachValid):
        return all(any(_obligation_verdict(c, ref) for c in alternatives)
                   for _, alternatives in checker.items)
    if isinstance(checker, registry._EquivalenceValid):
        return _obligation_verdict(checker.left, ref) is _obligation_verdict(checker.right, ref)
    return all(ref.valid(f).holds for _, f in checker.obligations())


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_guarded_checkers_match_their_obligations(flavor):
    """Every checker decided from fact terms: bit s of a batch's vector is
    its verdict on system s from the evaluator and from the reference, the
    AND of its compiled obligations' validity, on pooled systems of every
    shape, one to four runs, single and random partitions; the equivalence's
    reformulation side is compared on its own.  Each is seen holding and
    failing."""
    infer_schema = registry._FLAVORS[flavor].infer_schema
    outcomes, runs_seen, split_seen = set(), set(), False
    for nr, np_, nc in SHAPES[flavor]:
        cfgs = [GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4,
                          partition=("single", "random")[seed % 2],
                          style=("uniform", "matching")[seed // 2 % 2], flavor=flavor,
                          seed=9000 + 100 * nr + 10 * np_ + nc + seed)
                for seed in range(6)]
        shape, planes = _batch(cfgs)
        suite = shape.suite
        systems = [random_system(cfg) for cfg in cfgs]
        checkers = {name: suite.checker(name) for name in _guarded_names(flavor)}
        if flavor == "sequential":
            checkers["reformulation"] = checkers["independence-reformulation-equivalence"].right
        vectors = {name: c.holds(planes) for name, c in checkers.items()}
        for s, system in enumerate(systems):
            ctx = suite.context(system)
            ref = reference.Reference(
                system, lambda: derive_sequential(system, infer_schema(system)))
            for name, checker in checkers.items():
                got = checker.holds(ctx)
                assert type(got) is bool
                assert bool(vectors[name] >> s & 1) is got, (name, nr, np_, nc, s)
                assert _obligation_verdict(checker, ref) is got, (name, nr, np_, nc, s)
                outcomes.add((name, got))
        runs_seen |= {len(system.runs) for system in systems}
        split_seen |= any(len(s.observers["j"].blocks) > 1 for s in systems)
    names = {name for name, _ in outcomes}
    assert outcomes == {(name, got) for name in names for got in (True, False)}
    assert runs_seen == {1, 2, 3, 4} and split_seen


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_property_checker_obligations_are_the_compiled_properties(flavor):
    """A ``<stage>-<property>`` checker's obligations are its stage's
    compiled properties, labelled ``kind(subject, action)``."""
    for shape_args in SHAPES[flavor]:
        suite = scenarios._shape(flavor, *shape_args).suite
        for name, (stage_name, kind) in _entries(flavor, registry.CheckSuite._stage_property):
            stage = suite._stages()[stage_name]
            ref = suite.ref_base if stage.target == "base" else suite.ref_derived
            field = properties._FORMS[kind].field
            sets = {} if field is None else {
                field: stage.subjects if field == "anonymity_set" else stage.actions}
            specs = [PropertySpec(kind, i, a, "j", **sets)
                     for i in stage.subjects for a in stage.actions]
            assert list(suite.checker(name).obligations()) == [
                (f"{spec.kind.value}({spec.subject}, {spec.action})", compile_property(ref, spec))
                for spec in specs], (name, shape_args)


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_guarded_checkers_build_no_formula(flavor, monkeypatch):
    """Compiling a checker decided from fact terms and deciding it on a
    batch build no property formula, and no formula node at all."""
    def refuse(*args):
        raise AssertionError("a formula was built")

    for module in (properties, registry, formula):
        for name in ("compile_property", "_guarded_formula", "_term_formula"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    nr, np_, nc = SHAPES[flavor][-1]
    cfgs = [GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4, partition="random",
                      flavor=flavor, seed=seed) for seed in range(16)]
    shape, planes = _batch(cfgs)
    suite = registry.CheckSuite(flavor, shape.suite.schema, "j", shape.ref)
    suite.checker("independence")  # the equivalence's other side builds its stage terms
    for name in _guarded_names(flavor):
        nodes = len(formula._NODES)
        checker = suite.checker(name)
        assert 0 <= checker.holds(planes) <= planes.all
        assert len(formula._NODES) == nodes, name


@pytest.mark.parametrize("flavor", ["sequential", "parallel"])
def test_batch_vectors_match_per_system_checks(flavor):
    """Bit s of every checker's vector over a batch is its verdict on
    system s, built and derived on its own: every shape, batches of either
    partition policy and of both, both styles, one to four runs."""
    names = _checker_names(flavor)
    runs_seen, split_seen = set(), False
    for nr, np_, nc in SHAPES[flavor]:
        for policies in (("single",), ("random",), ("single", "random")):
            cfgs = [GenConfig(n_real=nr, n_pseudo=np_, n_articles=nc, max_runs=4,
                              partition=policies[seed % len(policies)], style=style,
                              flavor=flavor, seed=1000 * nr + 100 * np_ + 10 * nc + seed)
                    for style in ("uniform", "matching") for seed in range(3)]
            shape, ctx = _batch(cfgs)
            suite = shape.suite
            systems = [random_system(cfg) for cfg in cfgs]
            for name in names:
                vector = suite.checker(name).holds(ctx)
                assert [bool(vector >> s & 1) for s in range(len(cfgs))] == \
                    [suite.checker(name).holds(suite.context(system)) for system in systems], \
                    (name, nr, np_, nc, policies)
            runs_seen |= {len(system.runs) for system in systems}
            split_seen |= any(len(s.observers["j"].blocks) > 1 for s in systems)
    assert runs_seen == {1, 2, 3, 4} and split_seen


def test_slot_planes_match_the_evaluator_on_random_partitions():
    """Every connective, plane by plane: slot i of system s is run i, or
    run 1 when the system has fewer runs."""
    rng = random.Random(0x5107)
    cfgs = [GenConfig(n_real=3, n_pseudo=3, n_articles=3, max_runs=4, partition="random",
                      style=("uniform", "matching")[seed % 2], seed=seed)
            for seed in range(40)]
    _, planes = _batch(cfgs)
    systems = [random_system(cfg) for cfg in cfgs]
    masks = [Evaluator(system) for system in systems]
    assert any(len(s.observers["j"].blocks) > 1 for s in systems)
    assert max(len(s.runs) for s in systems) == 4
    agents = tuple(systems[0].agents)
    actions = tuple(systems[0].actions)
    for _ in range(40):
        f = _seeded_formula(rng, agents, actions, ("j",), 4)
        g = _seeded_formula(rng, agents, actions, ("j",), 3)
        for h in (f, Iff(Poss("j", f), Not(Knows("j", Not(f)))), Iff(f, g),
                  Or(f, TRUE), Implies(FALSE, g), Knows("j", Implies(f, g))):
            held = planes.holds(h)
            got = planes.mask(h)  # plane i at bit i * len(cfgs)
            for s, (system, m) in enumerate(zip(systems, masks)):
                mask = m.mask(h)
                runs = len(system.runs)
                assert [bool(got >> i * len(cfgs) + s & 1) for i in range(4)] == \
                    [bool(mask >> (i if i < runs else 0) & 1) for i in range(4)]
                assert bool(held >> s & 1) is m.holds(h)


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
        derived = derive(system, registry._FLAVORS[flavor].infer_schema(system))
        planes = shape.batch(_transpose(fact_sets, len(facts)), 30, 1)
        masks = Evaluator(derived)
        for agent in derived.agents:
            for action in derived.actions:
                atom = Atom(agent, action)
                assert planes.mask(atom) == masks.mask(atom), (atom, nr, np_, nc)


@pytest.mark.parametrize("n_rows", [1, 2048, 14_400])
@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 75])
def test_transpose_matches_a_bit_by_bit_reference(width, n_rows):
    """Column ``b``'s bit ``s`` is bit ``b`` of row ``s``, and the rows are
    consumed: the list is left empty."""
    rng = random.Random(width * 100_000 + n_rows)
    rows = [rng.getrandbits(width) for _ in range(n_rows - 1)] + [(1 << width) - 1]
    kept = list(rows)
    columns = _transpose(rows, width)
    assert rows == []
    assert columns == [int("".join(str(row >> b & 1) for row in reversed(kept)), 2)
                       for b in range(width)]


@pytest.mark.parametrize("n_systems", [1, 300])
def test_drawn_batch_planes_match_a_bit_by_bit_reference(n_systems):
    """Bit ``i * width + s`` of a fact's planes is the fact at slot ``i`` of
    system ``s``, and ``P[j]`` there is whether the fact holds at a slot of
    that system in the same block: ragged run counts, so a shorter system
    repeats its first run and that run's block."""
    rng = random.Random(n_systems)
    shape = scenarios._shape("sequential", 2, 3, 2)
    width = len(shape.facts)
    draws = [([rng.getrandbits(width) for _ in range(n)], [rng.randrange(3) for _ in range(n)])
             for n in [4] + [rng.randint(1, 4) for _ in range(n_systems - 1)]]
    assert n_systems == 1 or {len(runs) for runs, _ in draws} == {1, 2, 3, 4}
    ctx = shape.drawn_batch(draws)
    padded = [[(runs[i], labels[i]) if i < len(runs) else (runs[0], labels[0])
               for i in range(4)] for runs, labels in draws]
    for b, fact in enumerate(shape.facts):
        want_fact = want_possible = 0
        for s, slots in enumerate(padded):
            for i, (run, label) in enumerate(slots):
                bit = 1 << i * n_systems + s
                if run >> b & 1:
                    want_fact |= bit
                if any(r >> b & 1 and v == label for r, v in slots):
                    want_possible |= bit
        assert ctx.fact(fact) == want_fact, fact
        assert ctx.mask(Poss("j", Atom(*fact))) == want_possible, fact


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
    monkeypatch.setattr(scenarios, "_universe", lambda flavor: (None, []))
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
    """Every pooled (configuration, seed) item lands in exactly one batch of
    its shape, whatever its partition policy, in pool order, and at most
    ``_MAX_PENDING`` of them wait for their batch at any time."""
    monkeypatch.setattr(scenarios, "_MAX_PENDING", 300)
    pool = [(cfg, cfg.seed) for cfg in scenarios._random_pool("sequential", 3000, 7)]
    pulled = 0

    def counted():
        nonlocal pulled
        for item in pool:
            pulled += 1
            yield item

    seen, batches, mixed = [], 0, 0
    for shape, members in scenarios._pool_batches(counted()):
        batches += 1
        assert pulled - len(seen) <= 300
        indices = [idx for idx, _ in members]
        assert indices == sorted(indices)
        assert {scenarios._shape_of(cfg) for _, (cfg, _) in members} == {shape}
        assert all(pool[idx] is item for idx, item in members)
        mixed += len({cfg.partition for _, (cfg, _) in members}) == 2
        seen += indices
    # The pool has 27 shapes and no shape fills a _CHUNK batch from 3,000
    # configurations, so without the cut there would be at most 27 batches.
    assert sorted(seen) == list(range(len(pool))) and batches > 27 and mixed
