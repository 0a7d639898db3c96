"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so anoncheck's
``lru_cache``s (``_cached_suite``, ``paper_system``) start empty every time
and suite compilation is counted where users pay for it.  The script prints
one JSON object on standard output.

Modes: ``setup`` times set-up only; ``run`` also runs the timed part;
``trace`` runs it with spans recorded around anoncheck's public functions
and writes the spans to ``--spans``.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        start = perf_counter()
        inputs = workloads.SETUP[args.workload](args.seed, args.round, args.size, workdir)
        result = {"setup_s": perf_counter() - start}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer)
            root = tracer.open(tracing.ROOT)
        start = perf_counter()
        ops, systems, extra = workloads.RUN[args.workload](inputs)
        wall_s = perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            _, begin, end, *_ = tracer.spans[root]
            wall_s = end - begin
            result["layers"] = tracing.layer_metrics(tracer, wall_s)
            if args.spans is not None:
                tracer.write(args.spans)
        result.update(
            wall_s=wall_s, systems=systems, ops=[op._asdict() for op in ops],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **extra)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
