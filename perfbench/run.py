"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Human-readable lines come first: every end-to-end metric with its unit,
raw beside scaled, the calibration time and ``failed_share``.  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` first repeats the untraced run in a subprocess, then runs the
workload with spans recorded around each layer's public functions, and
reports the per-layer metrics, including the tracing overhead on each
end-to-end metric.  Exits non-zero, printing no result, when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

WORKLOADS = ("batch", "serve", "edit")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def untraced_metrics(args) -> dict:
    """The same run without tracing, in a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, cwd=harness.ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.require_program()
    import importlib

    module = importlib.import_module("wl_" + args.workload)
    tracer = None
    baseline = None
    if args.trace:
        import tracing

        baseline = untraced_metrics(args)
        tracer = tracing.Tracer(args.workload)
        tracer.install()
    result = module.run(args.seed, args.seconds, tracer=tracer)
    for line in result.report_lines():
        print(line)
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.per_layer(result, baseline)
        for line in tracer.report_lines(metrics):
            print(line)
    else:
        metrics = result.metrics()
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
