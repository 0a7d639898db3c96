"""Block-locality: every checker reads one observer's partition, so it holds
on a system iff it holds on each of its blocks, each taken as a one-block
system; and a one-block system that the exhaustive universe and the random
pool miss, pinned with its verdicts."""
import dataclasses
import random

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


#: A 4-run one-block system refuting CA.3 without ``exhaustive-posting`` and
#: ``exclusive-posts``; the exhaustive universe stops at two runs.
SAT = """\
system sat
agents: i1:real i2:real k1:pseudo k2:pseudo j:observer
actions: use(k1) use(k2) post(c1) post(c2)
run r1: i2:use(k1) k1:post(c2)
run r2: i2:use(k2) k2:post(c2)
run r3: i2:use(k1) k1:post(c2) k2:post(c2)
run r4: i2:use(k2) k1:post(c2) k2:post(c2)
indist j: {r1 r2 r3 r4}
"""

BOTH = ("exhaustive-posting", "exclusive-posts")


def _batch_verdict(drop):
    """CA.3 on ``sat`` as the one system of a batch of the 2/2/2 shape."""
    system = parse_system(SAT)
    shape = scenarios._shape("sequential", 2, 2, 2)
    masks = [sum(1 << b for b, fact in enumerate(shape.facts) if fact in run.facts)
             for run in system.runs]
    columns = shape.columns([masks])
    assert len(columns) == 4
    ctx = shape.batch(columns, 1)
    suite, cdef = shape.suite(), CLAIMS["CA.3"]
    held = scenarios._held(lambda name: suite.checker(name).holds(ctx),
                           [n for n in cdef.hypotheses if n not in drop], ctx.all)
    if not held:
        return ClaimVerdict.VACUOUS
    if suite.checker(cdef.conclusion).holds(ctx):
        return ClaimVerdict.CONFIRMED
    return ClaimVerdict.REFUTED


@pytest.mark.parametrize("drop, verdict", [
    (BOTH, ClaimVerdict.REFUTED),
    (BOTH[:1], ClaimVerdict.VACUOUS),
])
def test_the_four_run_system_is_pinned(drop, verdict):
    report = check_claim("CA.3", parse_system(SAT), drop=drop)
    assert report.verdict is verdict
    assert report.conclusion.detail == "minimally-private(i2, submit(c2)) @ r1"
    failing = [(h.name, h.detail) for h in report.hypotheses if not h.holds]
    assert failing == ([] if drop == BOTH
                       else [("exclusive-posts", "exclusive-action[post(c2)] @ r3")])
    assert _batch_verdict(drop) is verdict


def test_the_cli_refutes_ca3_on_the_four_run_system(tmp_path, capsys):
    path = tmp_path / "sat.sys"
    path.write_text(SAT)
    argv = ["claims", "run", "CA.3", "--system", str(path), "--drop", "exhaustive-posting"]
    assert main(argv + ["--drop", "exclusive-posts"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "CA.3 on sat: REFUTED"
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "CA.3 on sat: vacuous"
    assert "  hypothesis exclusive-posts: fails (exclusive-action[post(c2)] @ r3)" in out
