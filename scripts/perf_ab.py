#!/usr/bin/env python3
"""Gate a change on the repository benchmark with alternating parent/change pairs.

Run from the repository root, naming the revision to compare against:

    python3 scripts/perf_ab.py PARENT

The change is the working tree. The parent is exported with `git archive`
into `target/perf-ab/parent`. Each side is built and run through its own
`perfbench/run.py`, into its own `CARGO_TARGET_DIR` under `target/perf-ab/`.
For every workload in the parent's `BENCHMARK.json`, the script runs PAIRS
pairs of `run_seconds` runs. Both runs of a pair use the same seed, and the
side that runs first alternates from pair to pair.

For each workload and end-to-end metric, with bound b from `BENCHMARK.json`:

- FAIL: the change's median is worse than the parent's by more than b, and
  the parent's IQR/median is within b;
- unresolved: the change's median is worse by more than b, but the parent's
  own IQR/median is wider than b, so these runs cannot tell;
- ok: otherwise.

The `won` column counts the pairs in which the change's value beat the
parent's (ties count for neither). It is shown beside the verdict and does
not enter it.

The gate also fails a workload on which a change run is not `correct`, or
on which the change fails a larger share of its operations than the parent.

Exit codes: 0 pass (unresolved metrics included), 1 a FAIL, 2 the gate could
not measure (unknown revision, or a parent build or run that failed).
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys

PAIRS = 5
WORK = os.path.join("target", "perf-ab")


def export(parent, dest):
    """Writes the tree of revision `parent` to `dest`, replacing what was there."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", parent],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def run(side, workload, seed, seconds):
    """One perfbench run of `side`; its JSON result, or None if it produced none."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    proc = subprocess.run(cmd, cwd=side["root"], env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"  {side['name']} {workload} seed {seed}: no result (exit {proc.returncode})\n"
              + "\n".join("    " + l for l in proc.stderr.strip().splitlines()[-5:]),
              flush=True)
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def relative(delta, base):
    if base == 0:
        return math.copysign(float("inf"), delta) if delta else 0.0
    return delta / abs(base)


def judge(metric, parent, change, pairs):
    """The verdict row of one end-to-end metric over one workload's runs.

    `pairs` holds the (parent, change) values of the pairs in which both
    runs produced a result."""
    p1, p, p3 = quartiles(parent)
    c1, c, c3 = quartiles(change)
    lower = metric["better"] == "lower"
    worse = relative(c - p if lower else p - c, p)
    spread = relative(p3 - p1, p)
    won = sum(1 for pv, cv in pairs if (cv < pv if lower else cv > pv))
    bound = metric["bound"]
    verdict = "ok"
    if worse > bound:
        verdict = "FAIL" if spread <= bound else "unresolved"
    return verdict, (f"{metric['name']:<16} {bound:>5.2f}  {p:>10.4g} [{p1:.4g}, {p3:.4g}]"
                     f"  {c:>10.4g} [{c1:.4g}, {c3:.4g}]  {worse:>+8.1%}  {spread:>7.1%}"
                     f"  {f'{won}/{len(pairs)}':>5}  {verdict}")


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.strip().splitlines()[0] + "\n\nusage: python3 scripts/perf_ab.py PARENT",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        print("perf_ab: run from the repository root", file=sys.stderr)
        return 2
    rev = subprocess.run(["git", "rev-parse", "--verify", "--quiet", sys.argv[1] + "^{commit}"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        print(f"perf_ab: unknown revision {sys.argv[1]}", file=sys.stderr)
        return 2
    parent_rev = rev.stdout.strip()
    parent_root = os.path.join(WORK, "parent")
    if not export(parent_rev, parent_root):
        print(f"perf_ab: git archive {parent_rev} failed", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(parent_root, "BENCHMARK.json")):
        print(f"perf_ab: {parent_rev} has no BENCHMARK.json", file=sys.stderr)
        return 2
    with open(os.path.join(parent_root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = {
        "parent": {"name": "parent", "root": parent_root,
                   "target": os.path.abspath(os.path.join(WORK, "parent-build"))},
        "change": {"name": "change", "root": ".",
                   "target": os.path.abspath(os.path.join(WORK, "change-build"))},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    print(f"perf_ab: parent {parent_rev[:12]} vs the working tree; {PAIRS} pairs of "
          f"{seconds} s runs of {', '.join(workloads)}", flush=True)

    results = {w: {"parent": [], "change": []} for w in workloads}
    for pair in range(PAIRS):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for name in order:
                result = run(sides[name], workload, pair + 1, seconds)
                results[workload][name].append(result)
                if result is not None:
                    values = "  ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                       for m in bench["end_to_end"])
                    print(f"pair {pair + 1}/{PAIRS} {workload} {name}: {values}  "
                          f"correct={result['correct']} failed={result['failed']}/"
                          f"{result['attempted']}", flush=True)

    print(f"\n{'metric':<16} {'bound':>5}  {'parent median [Q1, Q3]':>26}  "
          f"{'change median [Q1, Q3]':>26}  {'worse by':>8}  {'IQR/med':>7}  {'won':>5}  verdict")
    failures, unresolved, unmeasured = [], [], []
    for workload in workloads:
        parent = [r for r in results[workload]["parent"] if r is not None]
        change = results[workload]["change"]
        print(workload)
        if len(parent) < 2:
            unmeasured.append(workload)
            print("  the parent produced too few results to compare")
            continue
        incorrect = sum(1 for r in change if r is None or not r["correct"])
        share = {name: (sum(r["failed"] for r in rs if r), sum(r["attempted"] for r in rs if r))
                 for name, rs in (("parent", parent), ("change", change))}
        worse_share = share["change"][0] * max(share["parent"][1], 1) > \
            share["parent"][0] * max(share["change"][1], 1)
        ok = incorrect == 0 and not worse_share
        print(f"  {'correct runs':<16} change {len(change) - incorrect}/{len(change)}; failed "
              f"parent {share['parent'][0]}/{share['parent'][1]}, change "
              f"{share['change'][0]}/{share['change'][1]}  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{workload} correctness")
        measured = [r for r in change if r is not None]
        if len(measured) < 2:
            continue
        # The two runs of a pair share a seed.
        paired = [(p, c) for p, c in zip(results[workload]["parent"], change)
                  if p is not None and c is not None]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            value = lambda r: r["metrics"][name]["value"]
            verdict, row = judge(metric,
                                 [value(r) for r in parent],
                                 [value(r) for r in measured],
                                 [(value(p), value(c)) for p, c in paired])
            print("  " + row)
            if verdict == "FAIL":
                failures.append(f"{workload} {name}")
            elif verdict == "unresolved":
                unresolved.append(f"{workload} {name}")

    if unresolved:
        print(f"perf_ab: unresolved (parent spread wider than the bound): {', '.join(unresolved)}")
    if failures:
        print(f"perf_ab: FAIL: {', '.join(failures)}")
        return 1
    if unmeasured:
        print(f"perf_ab: could not measure the parent on {', '.join(unmeasured)}")
        return 2
    print("perf_ab: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
