"""anoncheck benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from the root of a checkout; anoncheck is imported from ``src/``.
Each repetition of a workload runs in a fresh interpreter (``child.py``).
Repetitions continue while the next one is expected to end within
``--seconds``; there is always at least one.  Repetition ``r`` uses inputs
made from ``seed + 7919 * r``.

With ``--trace 0`` the end-to-end metrics are printed: ``setup_s`` (median
over at least five set-ups), ``wall_s`` (median timed part of one
repetition), ``systems_per_s`` (systems examined over timed seconds, all
repetitions), ``verdict_s_p50`` (median time to a verdict per operation)
and ``peak_rss_mb`` (median peak resident memory of a repetition).

With ``--trace 1`` repetition 0 runs in pairs, untraced then traced, and
the per-layer metrics are printed; ``trace.overhead_frac`` is the traced
over the untraced median wall time, minus 1.

Every verdict is checked against its known answer.  The last line of
standard output is one JSON object; the exit code is 1 when a verdict was
wrong and 2 when the benchmark could not run (then no JSON is printed).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Per-run ceiling on a whole invocation of one workload.
RUN_LIMIT_S = 175.0
MIN_SETUPS = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "systems_per_s": "1/s",
    "verdict_s_p50": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, reported for every workload (0 where the workload
#: does not reach the layer).
CHECKERS = (
    "independence", "pairwise-independence", "disjunctive-independence",
    "posneg-independence", "negpos-independence",
    "independence-reformulation-equivalence",
    "use-anonymity", "use-onymity", "use-min-anonymity",
    "use-role-interchangeability", "post-privacy", "post-identity",
    "post-min-privacy", "post-role-interchangeability",
    "submit-privacy", "submit-anonymity", "submit-min-privacy",
    "submit-min-anonymity", "submit-onymity", "submit-role-interchangeability",
    "exhaustive-posting", "exhaustive-registration", "backward-causality",
    "exclusive-posts", "exclusive-agents",
    "parallel-independence", "a-privacy", "b-privacy", "a-anonymity",
    "b-anonymity", "min-privacy-either", "ab-identity", "joint-privacy",
    "joint-anonymity", "joint-min-privacy", "joint-identity",
)
PER_LAYER = {
    "formula.evaluate.calls": "count",
    "formula.evaluate.self_s": "s",
    "formula.evaluate.independence.self_s": "s",
    "formula.evaluate.property.self_s": "s",
    "formula.evaluate.structural.self_s": "s",
    "formula.evaluate.eval.self_s": "s",
    "system.build.calls": "count",
    "system.build.runs": "count",
    "system.build.self_s": "s",
    "scenarios.generate.calls": "count",
    "scenarios.generate.self_s": "s",
    "sysfile.load.calls": "count",
    "sysfile.load.self_s": "s",
    "sysfile.load.runs_per_s": "1/s",
    "sysfile.save.calls": "count",
    "sysfile.save.self_s": "s",
    "composition.derive.calls": "count",
    "composition.derive.self_s": "s",
    "composition.obligations.calls": "count",
    "composition.obligations.self_s": "s",
    "composition.structural.calls": "count",
    "composition.structural.self_s": "s",
    "composition.check_independence.self_s": "s",
    "properties.compile.calls": "count",
    "properties.compile.self_s": "s",
    "properties.check.calls": "count",
    "properties.check.self_s": "s",
    "scenarios.compile.self_s": "s",
    "scenarios.suites": "count",
    "scenarios.checkers_compiled": "count",
    "compile.formula_nodes": "count",
    "compile.distinct_nodes": "count",
    "scenarios.orchestrate.calls": "count",
    "scenarios.orchestrate.self_s": "s",
    "scenarios.hypotheses_held_ratio": "ratio",
    "scenarios.derived_per_system": "ratio",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.attributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
for _name in CHECKERS:
    PER_LAYER[f"formula.checker.{_name}.calls"] = "count"
    PER_LAYER[f"formula.checker.{_name}.self_s"] = "s"


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong verdict)."""


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


class Runner:
    """Starts child repetitions within the run's time limit."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.started = monotonic()

    def elapsed(self) -> float:
        return monotonic() - self.started

    def child(self, mode: str, rnd: int = 0, spans: Path | None = None) -> dict:
        argv = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--round", str(rnd), "--size", self.size,
                "--mode", mode, "--workdir", str(WORK)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} repetition {rnd} ({mode}) "
                             f"exceeded {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} repetition {rnd} ({mode}) failed "
                             f"with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile_lines(times: list[float]) -> str:
    """Higher percentiles only where at least ten samples lie beyond them."""
    n = len(times)
    shown = []
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            shown.append(f"p{p} {statistics.quantiles(times, n=100)[p - 1]:.4f} s")
    return ", ".join(shown) if shown else "no higher percentile (fewer than ten samples beyond p90)"


def measure(workload: str, seed: int, seconds: float, size: str) -> dict:
    runner = Runner(workload, seed, size)
    reps = []
    while True:
        began = runner.elapsed()
        reps.append(runner.child("run", len(reps)))
        if runner.elapsed() + (runner.elapsed() - began) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child("setup")["setup_s"])

    ops = [op for r in reps for op in r["ops"]]
    times = [op["seconds"] for op in ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "systems_per_s": sum(r["systems"] for r in reps) / sum(r["wall_s"] for r in reps),
        "verdict_s_p50": statistics.median(times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = [
        f"repetitions {len(reps)} (fresh interpreter each), set-ups {len(setups)}",
        f"verdict times: {len(times)} samples; {_percentile_lines(times)}",
    ]
    return {"metrics": metrics, "units": END_TO_END, "ops": ops, "notes": notes,
            "repetitions": reps, "setups": setups}


def measure_traced(workload: str, seed: int, seconds: float, size: str) -> dict:
    runner = Runner(workload, seed, size)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.tsv"
    plain, traced = [], []
    while True:
        began = runner.elapsed()
        plain.append(runner.child("run"))
        traced.append(runner.child("trace", spans=spans))
        if runner.elapsed() + (runner.elapsed() - began) > seconds:
            break

    # Counts repeat exactly (same inputs in every pair); times are medians.
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [layer.get(name, 0) for layer in layers]
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
    rep = traced[0]
    metrics["scenarios.hypotheses_held_ratio"] = (
        rep["hypotheses_held"] / rep["hypotheses_tried"] if rep["hypotheses_tried"] else 0.0)
    metrics["scenarios.derived_per_system"] = (
        metrics["composition.derive.calls"] / rep["systems"])
    metrics["trace.overhead_frac"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1)

    ops = [op for rep in plain + traced for op in rep["ops"]]
    notes = [f"pairs {len(traced)} (untraced then traced, repetition 0 inputs); "
             f"spans of the last traced repetition in {spans.relative_to(ROOT)}"]
    return {"metrics": metrics, "units": PER_LAYER, "ops": ops, "notes": notes,
            "repetitions": plain + traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="anoncheck benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "anoncheck" / "__init__.py").is_file():
        print(f"error: anoncheck sources not found under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    info = machine_info()
    print(f"machine: nproc {info['nproc']}, {info['cpu_model']}, Python {info['python']}")

    results = {}
    try:
        for name in names:
            measure_one = measure_traced if args.trace else measure
            results[name] = measure_one(name, args.seed, args.seconds, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics = {}
    for name, res in results.items():
        ops = res["ops"]
        bad = [op for op in ops if not op["ok"]]
        attempted += len(ops)
        failed += len(bad)
        print(f"== {name} (seed {args.seed}, trace {args.trace}, size {args.size})")
        for note in res["notes"]:
            print(f"  {note}")
        for op in bad:
            print(f"  WRONG VERDICT {op['name']}: {op['detail']}")
        print(f"  failed_frac {len(bad) / len(ops):.4f} ({len(bad)} of {len(ops)} operations)")
        for metric, value in res["metrics"].items():
            unit = res["units"][metric]
            print(f"  {metric:<48} {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(
            {"workload": name, "seed": args.seed, "seconds": args.seconds,
             "size": args.size, "machine": info, **res}, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
