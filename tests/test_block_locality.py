"""Block-locality: every checker reads one observer's partition, so it holds
on a system iff it holds on each of its blocks, each taken as a one-block
system; and four one-block systems that the exhaustive universe and the
random pool of the sweep miss, pinned with their verdicts."""
import dataclasses
import random
from typing import NamedTuple

import pytest

from anoncheck import CLAIMS, ClaimVerdict, check_claim, parse_system, scenarios
from anoncheck.cli import main
from test_universe import FLAVORS, _checker_names


def _formulas(checker):
    """The formulas whose validity the checker combines."""
    if isinstance(checker, scenarios._AnyOfEachValid):
        return [f for _, alternatives in checker.items for c in alternatives
                for f in _formulas(c)]
    if isinstance(checker, scenarios._EquivalenceValid):
        return _formulas(checker.left) + _formulas(checker.right)
    return [f for _, f in checker.obligations()]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_a_checker_holds_on_a_system_iff_on_each_block(flavor):
    """Pooled systems of every shape and both styles, with random
    partitions; each block is rebuilt by the shape's system builder.

    Validity is block-local, so an all-valid checker holds iff it holds on
    each block.  The either/or and equivalence checkers are not: the first
    can hold on every block with a different alternative, and both sides of
    an equivalence can fail on the system while one holds on a block.  What
    claims need still holds: a hypothesis that holds on the system holds on
    each block, and a conclusion that fails on it fails on some block."""
    hypotheses = {n for c in CLAIMS.values() if c.flavor == flavor for n in c.hypotheses}
    conclusions = {c.conclusion for c in CLAIMS.values() if c.flavor == flavor}
    multi_block = 0
    for cfg in scenarios._random_pool(flavor, 300, 17):
        cfg = dataclasses.replace(cfg, partition="random")
        shape = scenarios._shape_of(cfg)
        runs, labels = scenarios._draw(cfg, random.Random(cfg.seed), shape.bounds)
        blocks = [[m for m, label in zip(runs, labels) if label == v]
                  for v in dict.fromkeys(labels)]
        if len(blocks) == 1:
            continue
        multi_block += 1
        suite = shape.suite()
        whole = suite.context(shape.system("whole", runs, labels))
        parts = [suite.context(shape.system(f"block{n}", block, [0] * len(block)))
                 for n, block in enumerate(blocks, start=1)]
        for name in _checker_names(flavor):
            checker = suite.checker(name)
            for f in _formulas(checker):
                assert whole.holds(f) is all(p.holds(f) for p in parts), (name, cfg)
            held, on_blocks = checker.holds(whole), all(checker.holds(p) for p in parts)
            if isinstance(checker, scenarios._AllValid):
                assert held is on_blocks, (name, cfg)
            if name in hypotheses:
                assert on_blocks or not held, (name, cfg)
            if name in conclusions:
                assert held or not on_blocks, (name, cfg)
    assert multi_block > 100


class _Pin(NamedTuple):
    claim: str
    runs: tuple[str, ...]
    refuting: tuple[str, ...]  # the dropped hypotheses under which it is REFUTED
    conclusion: str  # the failing conclusion, with either drop
    vacuous: tuple[str, ...]  # fewer dropped: the claim is vacuous ...
    failing: tuple[str, str]  # ... because this hypothesis fails


#: One-block 4-run systems over the 2/2/2 declaration, each refuting its
#: claim with hypotheses dropped; the exhaustive universe stops at two runs.
#: The last two were found by ``falsify(claim, GenConfig(max_runs=6,
#: budget=300_000, seed=11), drop=refuting)`` in its random phase.
PINS = [
    _Pin("CA.3", ("i2:use(k1) k1:post(c2)", "i2:use(k2) k2:post(c2)",
                  "i2:use(k1) k1:post(c2) k2:post(c2)", "i2:use(k2) k1:post(c2) k2:post(c2)"),
         ("exhaustive-posting", "exclusive-posts"), "minimally-private(i2, submit(c2)) @ r1",
         ("exhaustive-posting",), ("exclusive-posts", "exclusive-action[post(c2)] @ r3")),
    _Pin("CA.4", ("i2:use(k1) k1:post(c2)", "i2:use(k2) k2:post(c2)",
                  "i2:use(k1) i2:use(k2) k1:post(c2)", "i2:use(k1) i2:use(k2) k2:post(c2)"),
         ("exhaustive-registration", "exclusive-agents"),
         "minimally-anonymous(i2, submit(c2)) @ r1",
         ("exhaustive-registration",), ("exclusive-agents", "exclusive-agent[i2] @ r3")),
    _Pin("CA.3", ("i1:use(k1) i2:use(k2) k1:post(c1) k2:post(c1) k1:post(c2) k2:post(c2)",
                  "i2:use(k1) k1:post(c1) k2:post(c2)", "i2:use(k2) k2:post(c1) k2:post(c2)",
                  "i2:use(k1) k1:post(c1) k2:post(c1) k1:post(c2)"),
         ("exclusive-posts",), "minimally-private(i2, submit(c1)) @ r1",
         (), ("exclusive-posts", "exclusive-action[post(c1)] @ r1")),
    _Pin("CA.4", ("i2:use(k1) i1:use(k2) k1:post(c1) k2:post(c2)",
                  "i2:use(k1) i1:use(k2) i2:use(k2) k2:post(c1)",
                  "i1:use(k1) i2:use(k2) k2:post(c1) k2:post(c2)",
                  "i1:use(k1) i2:use(k1) i1:use(k2) i2:use(k2) k1:post(c1) k2:post(c2)"),
         ("exclusive-agents",), "minimally-anonymous(i2, submit(c1)) @ r1",
         (), ("exclusive-agents", "exclusive-agent[i1] @ r4")),
]
#: The claim and the last word of each refuting drop: ``CA.3-posting+posts``.
PIN_IDS = [f"{pin.claim}-{'+'.join(h.split('-')[-1] for h in pin.refuting)}" for pin in PINS]


def _text(pin):
    return "".join([
        "system sat\n",
        "agents: i1:real i2:real k1:pseudo k2:pseudo j:observer\n",
        "actions: use(k1) use(k2) post(c1) post(c2)\n",
        *(f"run r{n}: {run}\n" for n, run in enumerate(pin.runs, 1)),
        "indist j: {r1 r2 r3 r4}\n"])


def _batch_verdict(claim, system, drop):
    """``claim`` on ``system`` as the one system of a batch of the 2/2/2
    shape."""
    shape = scenarios._shape("sequential", 2, 2, 2)
    masks = [sum(1 << b for b, fact in enumerate(shape.facts) if fact in run.facts)
             for run in system.runs]
    columns = shape.columns([masks])
    assert len(columns) == 4
    ctx = shape.batch(columns, 1)
    suite, cdef = shape.suite(), CLAIMS[claim]
    held = scenarios._held(lambda name: suite.checker(name).holds(ctx),
                           [n for n in cdef.hypotheses if n not in drop], ctx.all)
    if not held:
        return ClaimVerdict.VACUOUS
    if suite.checker(cdef.conclusion).holds(ctx):
        return ClaimVerdict.CONFIRMED
    return ClaimVerdict.REFUTED


@pytest.mark.parametrize("refuted", [True, False], ids=["refuted", "vacuous"])
@pytest.mark.parametrize("pin", PINS, ids=PIN_IDS)
def test_the_four_run_system_is_pinned(pin, refuted):
    system = parse_system(_text(pin))
    drop, verdict = ((pin.refuting, ClaimVerdict.REFUTED) if refuted
                     else (pin.vacuous, ClaimVerdict.VACUOUS))
    report = check_claim(pin.claim, system, drop=drop)
    assert report.verdict is verdict
    assert report.conclusion.detail == pin.conclusion
    failing = [(h.name, h.detail) for h in report.hypotheses if not h.holds]
    assert failing == ([] if refuted else [pin.failing])
    assert _batch_verdict(pin.claim, system, drop) is verdict


@pytest.mark.parametrize("pin", PINS, ids=PIN_IDS)
def test_the_cli_refutes_on_the_four_run_system(pin, tmp_path, capsys):
    path = tmp_path / "sat.sys"
    path.write_text(_text(pin))
    argv = ["claims", "run", pin.claim, "--system", str(path)]
    assert main(argv + [a for h in pin.refuting for a in ("--drop", h)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"{pin.claim} on sat: REFUTED"
    assert main(argv + [a for h in pin.vacuous for a in ("--drop", h)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{pin.claim} on sat: vacuous"
    assert "  hypothesis {}: fails ({})".format(*pin.failing) in out
