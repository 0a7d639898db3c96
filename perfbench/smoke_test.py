"""Quick check of the benchmark itself (about half a minute).

    python3 perfbench/smoke_test.py

Runs every workload at the tiny size, untraced and traced, and checks that
every metric that ``BENCHMARK.json`` declares is printed with its unit and
that no verdict was wrong (``failed_frac == 0``).  Exits non-zero on the
first problem.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "1", "--seed", "7", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = run_bench(trace)
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            raise SystemExit(f"trace {trace}: wrong verdicts: {result}")
        want = {f"{w}.{m['name']}": m["unit"] for w in workloads for m in declared}
        got = {name: value["unit"] for name, value in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong_unit = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            raise SystemExit(f"trace {trace}: missing {missing[:10]}, unexpected "
                             f"{extra[:10]}, wrong units {wrong_unit[:10]}")
        print(f"trace {trace}: {len(got)} metrics over {len(workloads)} workloads, "
              f"failed_frac 0 ({result['attempted']} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
