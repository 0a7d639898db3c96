"""Fact columns: ``InterpretedSystem`` as run ids, fact columns and
partitions, with rows built on demand, and derivation as run-mask algebra
over the columns, against the row-based reference (``tests/reference.py``)."""
import json
import random
from itertools import islice, permutations, product

import pytest

from anoncheck import (GenConfig, anonymous_up_to, build_system, check_property,
                       derive_parallel, derive_sequential, exhaustive_systems,
                       maximally_onymous, mixer_chain, random_system, render_system,
                       save_system, to_json_dict)
from anoncheck.cli import main
from anoncheck.composition import _conjuncts, standard_parallel_schema, standard_sequential_schema
from anoncheck.formula import Evaluator, parse
from anoncheck.registry import DATA_DIR, FIXTURE_NAMES, fixture_system
from anoncheck.scenarios import _draw, _shape, _shape_of
from anoncheck import system as system_module
from anoncheck.system import Action, ValidationError

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


def _rows(system):
    return [(r.run_id, r.facts) for r in system.runs]


def _rebuilt(system):
    """``system`` built again from its rows."""
    return build_system(name=system.name, agents=[(a, system.roles[a]) for a in system.agents],
                        actions=system.actions, runs=_rows(system),
                        observers={obs: part.blocks for obs, part in system.observers.items()})


def _assert_matches(system, expected, label):
    """``system`` against its row-based reference ``expected``: rows, every
    declared fact's column, the saved text and JSON, and equality with a
    system built from the reference rows."""
    assert system.run_ids == tuple(r.run_id for r in expected.runs), label
    assert _rows(system) == _rows(expected), label
    assert system.actions == expected.actions, label
    for fact in _all_facts(system):
        assert system.holding(fact) == reference.holding(expected, fact), (label, fact)
    assert render_system(system) == reference.render_system(expected), label
    assert json.dumps(to_json_dict(system)) == json.dumps(reference.to_json_dict(expected)), label
    again = _rebuilt(expected)
    assert system == again and hash(system) == hash(again), label


@pytest.mark.parametrize("flavor", sorted(_FLAVORS))
def test_derivation_matches_the_run_by_run_reference(flavor):
    infer, derive = _FLAVORS[flavor]
    bases = _bases(flavor)
    assert len(bases) > 130
    for base in bases:
        schema = infer(base)
        _assert_matches(derive(base, schema), reference.derive(base, schema), base.name)


@pytest.mark.parametrize("flavor", sorted(_FLAVORS))
def test_derived_columns_equal_a_fresh_index(flavor):
    infer, derive = _FLAVORS[flavor]
    for base in _bases(flavor):
        derived = derive(base, infer(base))
        fresh = _rebuilt(derived)
        for fact in _all_facts(derived):
            assert derived.holding(fact) == fresh.holding(fact), (base.name, fact)
        # The run-id and partition indexes are the parent's own.
        assert derived._run_index is base._run_index and derived._blocks is base._blocks
        assert derived.block_numbers("j") == fresh.block_numbers("j")


def _relay(messages, policy="single", perm1="all", perm2="all"):
    """The ``build_system`` arguments of ``mixer_chain(perm1, perm2, policy,
    messages=messages)``, enumerated run by run."""
    perms = [dict(zip(messages, image)) for image in permutations(messages)]
    pairs = [(p1, p2) for p1 in ([perm1] if isinstance(perm1, dict) else perms)
             for p2 in ([{v: k for k, v in p1.items()}] if perm2 == "inverse"
                        else [perm2] if isinstance(perm2, dict) else perms)]
    runs = [(f"r{n}", [(f"in_{m}", f"use(mid_{p1[m]})") for m in messages]
             + [(f"mid_{x}", f"post(out_{p2[x]})") for x in messages])
            for n, (p1, p2) in enumerate(pairs, start=1)]
    ids = [rid for rid, _ in runs]
    return dict(name="mixer_chain",
                agents=[(f"in_{m}", "real") for m in messages]
                + [(f"mid_{m}", "pseudo") for m in messages] + [("j", "observer")],
                actions=[f"use(mid_{m})" for m in messages]
                + [f"post(out_{m})" for m in messages],
                runs=runs, observers={"j": [ids] if policy == "single" else [[r] for r in ids]})


def test_the_fact_index_is_built_once_for_every_fact():
    """Every fact's column is there from construction: exactly the facts that
    hold somewhere in the reference rows have a nonzero one."""
    system = mixer_chain("all", "all", messages=["m1", "m2", "m3"])
    expected = reference.build(**_relay(["m1", "m2", "m3"]))
    fact = ("in_m1", parse("theta(in_m1, use(mid_m2))").action)
    assert system.holding(fact) == reference.holding(expected, fact)
    facts = {f for run in expected.runs for f in run.facts}
    assert {f for f in _all_facts(system) if system.holding(f)} == facts
    for fact in _all_facts(system):
        assert system.holding(fact) == reference.holding(expected, fact)


def test_derivation_leaves_the_parent_as_it_was():
    base = mixer_chain("all", "all", messages=["m1", "m2", "m3"])
    rows, text = _rows(base), render_system(base)
    derived = derive_sequential(base, standard_sequential_schema(base))
    assert _rows(base) == rows and render_system(base) == text
    submits = [f for f in _all_facts(derived) if f[1].family == "submit"]
    assert not any(map(base.holding, submits))
    assert sum(map(bool, map(derived.holding, submits))) == 9
    assert all(derived.holding(f) == base.holding(f) for f in _all_facts(base))


def test_a_run_gaining_no_fact_keeps_its_run():
    base = build_system(agents=["i1", "k1", "j"], actions=["use(k1)", "post(c1)"],
                        runs=[("r1", [("i1", "use(k1)")]),
                              ("r2", [("i1", "use(k1)"), ("k1", "post(c1)")])],
                        observers={"j": [["r1", "r2"]]})
    derived = derive_sequential(base, standard_sequential_schema(base))
    assert derived.runs[0] == base.runs[0]
    assert derived.runs[1].facts == base.runs[1].facts | {("i1", derived.actions[-1])}


def _drawn(system, facts, masks, labels):
    """The reference of a generated system: run ``r{n}`` holds the ``facts``
    of mask ``masks[n - 1]`` and lies in block ``labels[n - 1]``."""
    blocks = {}
    for n, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(f"r{n}")
    return reference.build(
        name=system.name, agents=[(a, system.roles[a]) for a in system.agents],
        actions=system.actions, observers={"j": list(blocks.values())},
        runs=[(f"r{n}", [f for b, f in enumerate(facts) if m >> b & 1])
              for n, m in enumerate(masks, start=1)])


#: ``build_system`` arguments with a fact listed twice in a run, and list
#: (unhashable) facts met out of order among tuples of the same facts.
_LISTED = dict(
    name="listed", agents=["a", "b", "j"], actions=["go(x)", "go(y)", "stop"],
    runs=[("r1", [["b", "go(y)"], ("a", "stop"), ("a", "stop"), ["b", "go(y)"]]),
          ("r2", [("a", "go(x)"), ["a", "stop"], ("b", "go(y)"), ("b", "go", "x")]),
          ("r3", []), ("r4", [["a", "go(x)"], ("a", "go(x)"), ["b", "go(x)"]])],
    observers={"j": [["r1", "r3"], ["r4", "r2"]]})


def _corpus():
    """(system, its row-based reference) for every bundled fixture (loaded,
    and built from its parsed declaration) and its derivation, a declaration
    with repeated and list facts, pooled and universe-generated systems, and
    3-message relays with the single and the discrete observer."""
    pairs = [(build_system(**_LISTED), reference.build(**_LISTED))]
    for name in FIXTURE_NAMES:
        spec = reference.parse((DATA_DIR / f"{name}.sys").read_text())
        expected = reference.build(**spec)
        system = fixture_system(name)
        infer, derive = _FLAVORS["parallel" if name.startswith("par_") else "sequential"]
        pairs += [(system, expected), (build_system(**spec), expected),
                  (derive(system, infer(system)), reference.derive(expected, infer(system)))]
    rng = random.Random(2)
    for flavor in sorted(_FLAVORS):
        for seed in range(40):
            cfg = GenConfig(n_real=rng.randint(1, 3), n_pseudo=rng.randint(1, 3),
                            n_articles=rng.randint(1, 3), seed=seed, flavor=flavor,
                            style=("uniform", "matching")[seed % 2],
                            partition=("single", "random")[seed // 2 % 2])
            shape = _shape_of(cfg)
            draw = _draw(cfg, random.Random(seed), shape.bounds)
            system = random_system(cfg)
            pairs.append((system, _drawn(system, shape.facts, *draw)))
        facts = _shape(flavor, 2, 2, 2).facts
        for system in islice(exhaustive_systems(flavor), 0, None, 1999):
            masks = [int(m) for m in system.name[1:].split("-")]
            pairs.append((system, _drawn(system, facts, masks, [0] * len(masks))))
    fixed = {"m1": "m3", "m2": "m1", "m3": "m2"}
    for perms in (("all", "all"), ("all", "inverse"), (fixed, "all"), ("all", fixed)):
        for policy in ("single", "discrete"):
            pairs.append((mixer_chain(*perms, policy, messages=["m1", "m2", "m3"]),
                          reference.build(**_relay(["m1", "m2", "m3"], policy, *perms))))
    return pairs


def test_systems_match_the_row_reference():
    corpus = _corpus()
    assert len(corpus) > 130
    for system, expected in corpus:
        _assert_matches(system, expected, system.name)
    # Equality and hashing agree with the rows, across the corpus.
    for (a, ref_a), (b, ref_b) in product(corpus[::3], repeat=2):
        assert (a == b) is (ref_a.key() == ref_b.key()), (a.name, b.name)
        assert a != b or hash(a) == hash(b)


@pytest.mark.parametrize("runs, message", [
    ([("r1", [("a", "go(x)")]), ("r2", [("b", "go(x)"), ("z", "go(y)"), ("a", "stop")]),
      ("r3", [("y", "go(x)")])], "undeclared agent 'z' in run 'r2'"),
    ([("r1", [("a", "go(x)")]), ("r2", [["a", "go(x)"], ["b", "go(z)"], ["q", "go(x)"]]),
      ("r3", [("q", "go(x)")])], "undeclared action go(z) in run 'r2'"),
    ([("r1", [("a", "go(x)")]), ("r1", [("z", "go(x)")])], "duplicate run id 'r1'"),
    ([("r1", [("a", "go(x)")]), ("r 2", [("z", "go(x)")])], "bad run name 'r 2'"),
    ([("r1", [("a", "go(x)"), ("a", "go(")]), ("r2", [("z", "go(x)")])],
     "malformed action 'go('"),
    # a run's name and id are checked before its facts, and after the runs before it
    ([("r1", [("z", "go(x)")]), ("r 2", [("a", "go(x)")])], "undeclared agent 'z' in run 'r1'"),
    ([("r1", [("a", "go(x)")]), ("r 2", [("z", "go(x)")])], "bad run name 'r 2'"),
    ([("r1", []), ("r1", [("a", "go(y)"), ("a", "stop")])], "duplicate run id 'r1'"),
    ([("r1", [["a", ["go"]]]), ("r 2", [])], "cannot interpret ['go'] as an action"),
])
def test_build_reports_the_first_bad_fact_of_the_first_bad_run(runs, message):
    spec = dict(agents=["a", "b", "j"], actions=["go(x)", "go(y)"], runs=runs,
                observers={"j": [[rid for rid, _ in runs]]})
    for build in (build_system, reference.build):
        with pytest.raises(ValidationError) as exc:
            build(**spec)
        assert str(exc.value) == message


@pytest.mark.parametrize("name", ["a b", "a#b", "", " a", None])
def test_build_rejects_a_system_name_that_is_not_one_word(name):
    """Every built system's name is one that its saved files can hold."""
    spec = dict(name=name, agents=["a", "j"], actions=["go"], runs=[("r1", [("a", "go")])],
                observers={"j": [["r1"]]})
    for build in (build_system, reference.build):
        with pytest.raises(ValidationError) as exc:
            build(**spec)
        assert str(exc.value) == f"bad system name {name!r}"


@pytest.mark.parametrize("messages", [["m 1", "m2"], ["m1", "m(2"]])
def test_a_relay_rejects_bad_names_as_its_declaration_does(messages):
    with pytest.raises(ValidationError) as exc:
        mixer_chain("all", "all", messages=messages)
    with pytest.raises(ValidationError) as expected:
        reference.build(**_relay(messages))
    assert str(exc.value) == str(expected.value)


def test_a_large_system_is_checked_without_its_rows(monkeypatch, tmp_path, capsys):
    """Deriving, checking a property and the CLI's ``eval`` and ``check`` on
    a 14,400-run relay read run ids and columns, and never build a row."""
    messages = ["m1", "m2", "m3", "m4", "m5"]
    base = mixer_chain("all", "all", messages=messages)
    path = tmp_path / "relay.sys"
    save_system(base, path)

    def no_rows(*args):
        raise AssertionError("rows built")
    monkeypatch.setattr(system_module, "Run", no_rows)
    derived = derive_sequential(base, standard_sequential_schema(base))
    incoming = [f"in_{m}" for m in messages]
    submit = Action("submit", "out_m2")
    assert check_property(derived, anonymous_up_to("in_m1", submit, incoming, "j")).holds
    report = check_property(derived, maximally_onymous("in_m1", submit, "j"))
    assert report.counterexample == ("r25", "K[j] theta(in_m1, submit(out_m2))")
    atom = "theta(in_m1, use(mid_m2))"
    assert main(["eval", str(path), f"{atom} -> K[j] {atom}"]) == 1
    assert capsys.readouterr().out.endswith("not valid (first false at r2881)\n")
    assert main(["eval", str(path), atom, "--run", "r2881"]) == 0
    prop = f"anon-upto(in_m1, use(mid_m2), {{{','.join(incoming)}}}, j)"
    assert main(["check", str(path), prop]) == 0
    assert capsys.readouterr().out.endswith(f"{prop}: HOLDS\n")
    with pytest.raises(AssertionError, match="rows built"):
        list(base.runs)
    with pytest.raises(AssertionError, match="rows built"):
        base.run("r1")


@pytest.mark.parametrize("flavor", sorted(_FLAVORS))
def test_shape_terms_match_a_derived_catalog(flavor):
    """A shape's batch reads each atom as the OR of the ANDs of its terms:
    the fact pairs on which the reference derivation of a catalog, one run
    per set of at most two facts, makes it hold, minimal under inclusion.
    A monotone OR of ANDs has one minimal set of terms, so random columns
    tell any other set apart."""
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
                holding.setdefault(fact, set()).add(pair)
        expected = {fact: {(a, b) for a, b in sets if a == b or not {(a, a), (b, b)} & sets}
                    for fact, sets in holding.items()}
        rng = random.Random(str(sizes))
        columns = [rng.getrandbits(256) for _ in facts]
        planes = shape.batch(columns, 256, 1)
        for fact in {*facts, *expected, *_conjuncts(shape.ref, infer(shape.ref))}:
            want = 0
            for a, b in expected.get(fact, ()):
                want |= columns[a] & columns[b]
            assert planes.fact(fact) == want, (flavor, sizes, fact)


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
