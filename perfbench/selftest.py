#!/usr/bin/env python3
"""Injected-slowdown self-test of the benchmark's bounds.

Runs `large-closed` three ways on the same seeds, interleaved seed by seed:
a baseline, a plain rerun, and a rerun against `asm serve --worker-delay-ms D`
(every solve sleeps D ms first). D defaults to 20% of the first baseline
run's median latency. The test passes when the plain rerun stays inside the
bounds of BENCHMARK.json on `throughput_rps` and `latency_p50_ms` while the
slowed rerun lands outside both.

Run from the repository root:

    python3 perfbench/selftest.py --seeds 5 --seconds 10
"""

import argparse
import json
import statistics
import subprocess
import sys

METRICS = ["throughput_rps", "latency_p50_ms"]


def run(seed, seconds, delay_ms):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "large-closed",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if delay_ms:
        cmd += ["--worker-delay-ms", str(delay_ms)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run failed its checks: {' '.join(cmd)}")
    return {m: result["metrics"][m]["value"] for m in METRICS}


def worse_by(metric, better, base, other):
    """Relative change of `other` against `base`, positive when worse."""
    change = (other - base) / base
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--delay-ms", type=int, default=0,
                    help="worker delay; 0 sizes it at 20%% of the first baseline p50")
    args = ap.parse_args()
    spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    sets = {"baseline": [], "rerun": [], "slowed": []}
    delay = args.delay_ms
    for seed in range(1, args.seeds + 1):
        sets["baseline"].append(run(seed, args.seconds, 0))
        if not delay:
            delay = max(1, round(0.2 * sets["baseline"][0]["latency_p50_ms"]))
            print(f"worker delay sized at {delay} ms", flush=True)
        sets["rerun"].append(run(seed, args.seconds, 0))
        sets["slowed"].append(run(seed, args.seconds, delay))
        print(f"seed {seed}: " + "  ".join(
            f"{name} " + ", ".join(f"{m}={s[-1][m]:.4g}" for m in METRICS)
            for name, s in sets.items()), flush=True)
    ok = True
    report = {"delay_ms": delay, "seeds": args.seeds, "seconds": args.seconds, "metrics": {}}
    for m in METRICS:
        med = {k: statistics.median(r[m] for r in v) for k, v in sets.items()}
        bound, better = spec[m]["bound"], spec[m]["better"]
        rerun = worse_by(m, better, med["baseline"], med["rerun"])
        slowed = worse_by(m, better, med["baseline"], med["slowed"])
        inside, outside = rerun <= bound, slowed > bound
        ok &= inside and outside
        report["metrics"][m] = {"bound": bound, **{k: round(v, 4) for k, v in med.items()},
                                "rerun_worse_by": round(rerun, 4),
                                "slowed_worse_by": round(slowed, 4)}
        print(f"{m}: bound {bound}; rerun worse by {rerun:+.3f} ({'inside' if inside else 'OUTSIDE'}), "
              f"slowed worse by {slowed:+.3f} ({'outside' if outside else 'INSIDE'})")
    report["pass"] = ok
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
