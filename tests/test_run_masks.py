"""Differential tests of the run-mask evaluator against the per-run
Evaluator, which stays the reference semantics."""
import itertools
import random

import pytest

from anoncheck import CLAIMS, GenConfig, check_claim, exhaustive_systems, random_system
from anoncheck import scenarios
from anoncheck.formula import (FALSE, TRUE, Evaluator, Iff, Implies, Knows, Not,
                               Or, Poss, RunMasks)
from test_acceptance import _seeded_formula


class _EvaluatorMasks:
    """The per-run Evaluator behind the RunMasks interface, on every run of
    the derived system, where base formulas keep their truth."""

    def __init__(self, system, derive):
        system = self.system = derive()
        self.full = (1 << len(system.runs)) - 1
        self._ev = Evaluator(system)

    def mask(self, f):
        return sum(1 << i for i, run in enumerate(self.system.runs)
                   if self._ev.evaluate(f, run))

    def first_failure(self, f):
        return self._ev.valid(f).counterexample

    all = True

    def valid(self, f):
        return self.mask(f) == self.full


def test_mask_bits_match_the_evaluator_on_criterion_6_formulas():
    rng = random.Random(0xACCE)
    agents = ("i1", "i2", "k1", "k2", "j")
    for seed in range(40):
        cfg = GenConfig(seed=seed, style="matching" if seed % 2 else "uniform",
                        partition="random" if seed % 3 else "single")
        system = random_system(cfg)
        ev, masks = Evaluator(system), RunMasks(system)
        for _ in range(15):
            f = _seeded_formula(rng, agents, tuple(system.actions), ("j",), 4)
            g = _seeded_formula(rng, agents, tuple(system.actions), ("j",), 3)
            for h in (f, Iff(Poss("j", f), Not(Knows("j", Not(f)))), Iff(f, g),
                      Or(f, TRUE), Implies(FALSE, g), Knows("j", Implies(f, g))):
                m = masks.mask(h)
                assert [bool(m >> i & 1) for i in range(len(system.runs))] == \
                    [ev.evaluate(h, run) for run in system.runs]
                assert masks.first_failure(h) == ev.valid(h).counterexample


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
    """The reference run evaluates every obligation run by run with
    Evaluator, on checker formulas that are not hash-consed."""
    systems = _differential_systems(flavor)
    actual = [_reports(system, flavor) for system in systems]
    monkeypatch.setattr(scenarios, "RunMasks", _EvaluatorMasks)
    monkeypatch.setattr(scenarios.CheckSuite, "_intern", lambda self, f: f)
    expected = [_reports(system, flavor) for system in systems]
    assert actual == expected
    verdicts = {r.verdict for reports in actual for r in reports}
    assert scenarios.ClaimVerdict.REFUTED in verdicts  # drops expose refutations
