"""Steadiness record: repeated runs per workload, raw and scaled spreads.

Runs every workload ``--runs`` times, alternating between workloads,
each run with its own seed, in fresh processes exactly as a user
would.  For every end-to-end metric it prints the median and quartiles
of the raw and the scaled values and the spread (interquartile distance
over the median) next to the metric's bound from ``BENCHMARK.json``,
and writes the same as Markdown and JSON::

    python3 perfbench/steadiness.py --runs 10 --seed0 1 --out perfbench/steadiness_a

``--compare A.json B.json`` instead reads two such records (say, parent
and change, or two sets of the same code) and prints, per workload and
end-to-end metric, how much worse B's median is than A's as a share of
A's, beside the bound; ``--table A.json`` prints one record's table
again with the bounds now in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

import harness

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, cwd=harness.ROOT)
    lines = out.stdout.strip().splitlines()
    raw = json.loads(next(l for l in lines if l.startswith("raw-metrics: "))
                     .split(": ", 1)[1])
    final = json.loads(lines[-1])
    return {"seed": seed, "correct": final["correct"],
            "failed": final["failed"], "attempted": final["attempted"],
            "reported": {k: v["value"] for k, v in final["metrics"].items()},
            "raw": raw}


def spread(values):
    q1, med, q3 = harness.quartiles(values)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}


def _q(s) -> str:
    return "%.4g / %.4g / %.4g" % (s["q1"], s["median"], s["q3"])


def compare(path_a: str, path_b: str, bench: dict) -> List[str]:
    """Median shift (worse direction, share of A's median) per metric."""
    with open(path_a) as f:
        a = json.load(f)["quartiles"]
    with open(path_b) as f:
        b = json.load(f)["quartiles"]
    lines = ["| workload | metric | bound | median A | median B | B worse by |",
             "|---|---|---|---|---|---|"]
    for m in bench["end_to_end"]:
        for w in sorted(set(a) & set(b)):
            ma = a[w][m["name"]]["reported"]["median"]
            mb = b[w][m["name"]]["reported"]["median"]
            worse = (ma - mb if m["better"] == "higher" else mb - ma) / ma
            lines.append("| %s | %s | %.2f | %.4g | %.4g | %+.3f%s |" % (
                w, m["name"], m["bound"], ma, mb, worse,
                " (over bound)" if worse > m["bound"] else ""))
    return lines


def summarize(runs: dict, bounds: dict):
    """Quartile table (Markdown lines) and quartiles per workload."""
    table = {}
    lines = ["| workload | metric | bound | raw q1 / median / q3 | raw spread "
             "| scaled q1 / median / q3 | scaled spread |",
             "|---|---|---|---|---|---|---|"]
    for w in runs:
        table[w] = {}
        for name in bounds:
            raw = spread([r["raw"][name] for r in runs[w]])
            rep = spread([r["reported"][name] for r in runs[w]])
            table[w][name] = {"raw": raw, "reported": rep}
            lines.append("| %s | %s | %.2f | %s | %.3f | %s | %.3f%s |" % (
                w, name, bounds[name], _q(raw), raw["spread"], _q(rep),
                rep["spread"], " (over bound/3)"
                if rep["spread"] > bounds[name] / 3 else ""))
        for name in sorted(set(runs[w][0]["raw"]) - set(bounds)):
            other = spread([r["raw"][name] for r in runs[w]])
            lines.append("| %s | %s | - | %s | %.3f | - | - |"
                         % (w, name, _q(other), other["spread"]))
            table[w][name] = other
        failed = sum(r["failed"] for r in runs[w])
        lines.append("| %s | failed | - | %d of %d | - | - | - |"
                     % (w, failed, sum(r["attempted"] for r in runs[w])))
    return lines, table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--table", metavar="A.json",
                   help="print the quartile table of a recorded set with "
                   "the current bounds")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", default="batch,serve,edit")
    p.add_argument("--out", help="write OUT.md and OUT.json")
    args = p.parse_args(argv)
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        print("\n".join(compare(*args.compare, bench)))
        return 0
    if args.table:
        with open(args.table) as f:
            print("\n".join(summarize(json.load(f)["runs"], bounds)[0]))
        return 0
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = one_run(w, args.seed0 + i, bench["run_seconds"])
            runs[w].append(r)
            print("%s seed %d: %s" % (w, r["seed"], " ".join(
                "%s=%.4g" % kv for kv in sorted(r["reported"].items()))),
                flush=True)
    lines, table = summarize(runs, bounds)
    print("\n".join(lines))
    if args.out:
        with open(args.out + ".json", "w") as f:
            json.dump({"runs": runs, "quartiles": table}, f, indent=1,
                      sort_keys=True)
        with open(args.out + ".md", "w") as f:
            f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
