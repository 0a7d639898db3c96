"""The three benchmark workloads and their known-answer oracles.

Each workload has a ``setup`` (import anoncheck, build the inputs from the
seed; timed as ``setup_s``) and a ``run`` (the timed part).  ``run`` returns
one record per operation: its name, its time to a verdict, and whether the
verdict matched the known answer.  anoncheck is imported inside the
functions, never at module level, so that the child process can time the
import as part of set-up.

Why these workloads:

* ``sweep-random`` is the random phase of the theorem sweep (about 90% of
  acceptance criterion 3): many tiny systems of 27 declaration shapes, where
  formula evaluation takes most of the time and checker compilation is paid
  once per shape.
* ``search`` is the ``anoncheck search`` path: ``falsify`` walks the 32,896
  systems of the exhaustive 2/2/2 universe, so generation and
  ``build_system`` weigh far more than in the sweep.
* ``large-system`` is one relay model of 14,400 runs instead of many tiny
  systems: file load and save, derivation and the CLI, with next to no
  formula evaluation.  It exposes the quadratic duplicate-run check of
  ``sysfile.parse_system``.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import permutations
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent

WORKLOADS = ("sweep-random", "search", "large-system")

#: Work per repetition.  ``tiny`` is for the smoke test only.
SIZES = {
    "full": {"sweep_n": 1000, "search_budget": 100, "messages": 5,
             "searches": ("C3.2", "C4.2", "CA.1", "C3.3", "C4.1", "CA.3")},
    "tiny": {"sweep_n": 20, "search_budget": 10, "messages": 3,
             "searches": ("C3.2", "C4.2", "CA.3")},
}

#: The falsify calls of the search workload: (claim, dropped hypotheses).
#: A search with a hypothesis dropped must find a counterexample; a search
#: with the full hypotheses searches for a refutation of a theorem and must
#: come back empty.
SEARCHES = {
    "C3.2": ("independence",),
    "C4.2": ("independence",),
    "CA.1": ("pairwise-independence",),
    "C3.3": (),
    "C4.1": (),
    "CA.3": (),
}

#: Size of the exhaustive 2/2/2 universe that every falsify call walks first.
EXHAUSTIVE_SYSTEMS = 32_896

#: Regression oracle for the drop searches, pinned at the commit that
#: introduced this benchmark: the exhaustive phase is deterministic, so the
#: first counterexample and the number of systems examined before it must
#: not change.
DROP_SEARCH_ORACLE = {
    "C3.2": ("x16-33", 4233),
    "C4.2": ("x1-84", 594),
    "CA.1": ("x96-150", 20230),
}

SWEEP_ORACLE_FILE = HERE / "sweep_oracle.json"


class Op(NamedTuple):
    """One operation: a sweep call, a falsify call, a CLI command or a
    library check."""

    name: str
    seconds: float
    ok: bool
    detail: str = ""


def round_seed(seed: int, rnd: int) -> int:
    """Seed of repetition ``rnd``; repetition 0 uses the run's seed itself."""
    return seed + 7919 * rnd


# ---------------------------------------------------------------------------
# sweep-random


def sweep_setup(seed: int, rnd: int, size: str, workdir: Path) -> dict:
    import anoncheck  # noqa: F401  (timed as set-up)
    return {"seed": round_seed(seed, rnd), "n_random": SIZES[size]["sweep_n"]}


def sweep_run(inputs: dict):
    from anoncheck import CLAIMS, sweep

    n, seed = inputs["n_random"], inputs["seed"]
    start = perf_counter()
    report = sweep(exhaustive=False, n_random=n, seed=seed)
    seconds = perf_counter() - start

    problems = []
    if report.refutations:
        problems.append(f"{len(report.refutations)} refutations")
    if report.implication_violations:
        problems.append(f"{len(report.implication_violations)} implication violations")
    if report.systems_checked != {"sequential": n, "parallel": n}:
        problems.append(f"systems_checked {report.systems_checked}")
    swept = sorted(cid for cid, cdef in CLAIMS.items() if not cdef.witness_only)
    if sorted(report.stats) != swept:
        problems.append("claim set differs from the registry")
    table = {cid: [s.checked, s.confirmed, s.vacuous, s.refuted]
             for cid, s in sorted(report.stats.items())}
    pinned = json.loads(SWEEP_ORACLE_FILE.read_text())
    if pinned["seed"] == seed and pinned["n_random"] == n and table != pinned["stats"]:
        changed = [cid for cid in table if table[cid] != pinned["stats"].get(cid)]
        problems.append(f"ClaimStats differ from the pinned table for {changed}")
    op = Op("sweep", seconds, not problems, "; ".join(problems))
    held = sum(s.confirmed + s.refuted for s in report.stats.values())
    checked = sum(s.checked for s in report.stats.values())
    return [op], 2 * n, {"hypotheses_held": held, "hypotheses_tried": checked}


# ---------------------------------------------------------------------------
# search


def search_setup(seed: int, rnd: int, size: str, workdir: Path) -> dict:
    from anoncheck import GenConfig
    budget = SIZES[size]["search_budget"]
    base = round_seed(seed, rnd)
    calls = [(cid, SEARCHES[cid], GenConfig(seed=base * 16 + i, budget=budget))
             for i, cid in enumerate(SIZES[size]["searches"])]
    return {"calls": calls}


def search_run(inputs: dict):
    from anoncheck import ClaimVerdict, check_claim, falsify

    ops = []
    examined = held = 0
    for cid, drop, cfg in inputs["calls"]:
        start = perf_counter()
        result = falsify(cid, cfg, drop=drop)
        seconds = perf_counter() - start
        examined += result.examined
        held += result.hypotheses_held
        if drop:
            found = result.found
            if found is None:
                ok, detail = False, "no counterexample found"
            else:
                verdict = check_claim(cid, found, drop=drop).verdict
                pinned = DROP_SEARCH_ORACLE[cid]
                ok = (verdict is ClaimVerdict.REFUTED
                      and (found.name, result.examined) == pinned)
                detail = (f"found {found.name} after {result.examined}, "
                          f"check_claim {verdict.value}; pinned {pinned}")
        else:
            expected = EXHAUSTIVE_SYSTEMS + cfg.budget
            ok = result.found is None and result.examined == expected
            detail = (f"found {'nothing' if result.found is None else result.found.name}"
                      f" in {result.examined} systems (expected nothing in {expected})")
        label = f"falsify {cid}" + (f" -{'-'.join(drop)}" if drop else "")
        ops.append(Op(label, seconds, ok, detail))
    return ops, examined, {"hypotheses_held": held, "hypotheses_tried": examined}


# ---------------------------------------------------------------------------
# large-system


def _relay_inputs(seed: int, size: str) -> dict:
    """Message order and the agents/messages the checks name, from the seed.

    The message order fixes the run order of the model, so each seed gives
    a different file; the expected counterexample runs follow from the
    same enumeration ``mixer_chain`` uses.
    """
    rng = random.Random(seed)
    msgs = [f"m{i}" for i in range(1, SIZES[size]["messages"] + 1)]
    rng.shuffle(msgs)
    x, y, z = rng.choice(msgs), rng.choice(msgs), rng.choice(msgs)
    perms = [dict(zip(msgs, image)) for image in permutations(msgs)]
    n = len(perms)
    uses = next(i for i, p1 in enumerate(perms) if p1[x] == y) * n + 1
    submits = next(i1 * n + i2 + 1 for i1, p1 in enumerate(perms)
                   for i2, p2 in enumerate(perms) if p2[p1[x]] == z)
    return {"messages": msgs, "x": x, "y": y, "z": z, "runs": n * n,
            "first_use_run": f"r{uses}", "first_submit_run": f"r{submits}"}


def large_setup(seed: int, rnd: int, size: str, workdir: Path) -> dict:
    import anoncheck.cli  # noqa: F401  (timed as set-up)
    from anoncheck import mixer_chain, save_system

    inputs = _relay_inputs(round_seed(seed, rnd), size)
    base = Path(workdir) / "relay.sys"
    save_system(mixer_chain("all", "all", messages=inputs["messages"]), base)
    inputs["base"] = str(base)
    inputs["derived"] = str(Path(workdir) / "relay-submit.sys")
    return inputs


def _cli(argv) -> tuple[int, str]:
    from anoncheck import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def large_run(inputs: dict):
    from anoncheck import (Action, anonymous_up_to, check_property,
                           derive_sequential, maximally_onymous, mixer_chain,
                           standard_sequential_schema)

    msgs, x, y, z = inputs["messages"], inputs["x"], inputs["y"], inputs["z"]
    base, derived = inputs["base"], inputs["derived"]
    incoming = [f"in_{m}" for m in msgs]
    ops = []

    def timed(name, fn, check):
        start = perf_counter()
        value = fn()
        seconds = perf_counter() - start
        ok, detail = check(value)
        ops.append(Op(name, seconds, ok, detail))

    # CLI path: every command reads the model from its .sys file.
    def compose_ok(res):
        code, out = res
        want = f"wrote mixer_chain ({inputs['runs']} runs) to {derived}\n"
        return code == 0 and out == want, f"exit {code}: {out[:200]!r}"

    timed("cli compose", lambda: _cli(["compose", base, "seq => submit", "-o", derived]),
          compose_ok)

    prop = f"anon-upto(in_{x}, submit(out_{z}), {{{','.join(incoming)}}}, j)"

    def check_ok(res):
        code, out = res
        return code == 0 and out == f"{prop}: HOLDS\n", f"exit {code}: {out[:200]!r}"

    timed("cli check derived", lambda: _cli(["check", derived, prop]), check_ok)

    # One observer block: the use is possible everywhere but never known, so
    # the formula fails at the first run with the use.
    atom = f"theta(in_{x}, use(mid_{y}))"
    formula = f"{atom} -> K[j] P[j] {atom} & K[j] {atom}"

    def eval_ok(res):
        code, out = res
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        want = f"not valid (first false at {inputs['first_use_run']})"
        return code == 1 and last == want, f"exit {code}: {last!r}"

    timed("cli eval base", lambda: _cli(["eval", base, formula]), eval_ok)

    # Library path: build, derive and check in memory, both observer versions.
    def library():
        verdicts = []
        for policy in ("single", "discrete"):
            system = mixer_chain("all", "all", policy, messages=msgs)
            der = derive_sequential(system, standard_sequential_schema(system))
            verdicts.append(len(der.runs))
            if policy == "single":
                # Every incoming agent is anonymous up to all incoming agents
                # for every chained fact: the relay hides who sent what.
                verdicts.append(all(
                    check_property(der, anonymous_up_to(i, Action("submit", f"out_{m}"),
                                                        incoming, "j")).holds
                    for i in incoming for m in msgs))
            else:
                # One run per block: the observer sees everything.
                fact = Action("submit", f"out_{z}")
                anon = check_property(der, anonymous_up_to(f"in_{x}", fact, incoming, "j"))
                onym = check_property(der, maximally_onymous(f"in_{x}", fact, "j"))
                verdicts += [anon.holds, anon.counterexample and anon.counterexample[0],
                             onym.holds]
        return verdicts

    def library_ok(verdicts):
        runs = inputs["runs"]
        want = [runs, True, runs, False, inputs["first_submit_run"], True]
        return verdicts == want, f"{verdicts} want {want}"

    timed("library single-block and discrete", library, library_ok)
    # Systems examined: one per CLI command, two on the library path.
    return ops, len(ops) + 1, {"hypotheses_held": 0, "hypotheses_tried": 0}


SETUP = {"sweep-random": sweep_setup, "search": search_setup, "large-system": large_setup}
RUN = {"sweep-random": sweep_run, "search": search_run, "large-system": large_run}
