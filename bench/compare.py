#!/usr/bin/env python3
"""Compare benchmark records of a base commit and a changed commit.

    python3 bench/compare.py --base B1.json B2.json ... --new N1.json N2.json ...

Records are the files run.py writes under ``.bench_work/results/``.  Runs are
paired by workload, seed and trace flag.  The comparison is refused (exit 2)
when two records differ in anything but the commit: environment, run length
or generated inputs.  For every metric the medians of both sides, the change
relative to the base median, the pairs the new side won, and, for end-to-end
metrics, the bound from BENCHMARK.json are printed.  Exit 1 when a bounded
metric got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fingerprint(record):
    env = {k: v for k, v in record["env"].items() if k != "commit"}
    return {"env": env, "seconds": record["seconds"], "inputs": record["inputs"]}


def _load(paths):
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        out[(record["workload"], record["seed"], record["trace"])] = record
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = _load(args.base), _load(args.new)

    reference = _fingerprint(next(iter(base.values())))["env"]
    refused = []
    for key in sorted(set(base) | set(new)):
        if key not in base or key not in new:
            refused.append(f"{key}: present on one side only")
            continue
        fb, fn = _fingerprint(base[key]), _fingerprint(new[key])
        diff = sorted(k for k in fb if fb[k] != fn[k])
        if fb["env"] != reference:
            diff.append("env differs from the other base records")
        if diff:
            refused.append(f"{key}: records differ in {', '.join(diff)}")
    if refused:
        print("refused:\n  " + "\n  ".join(refused), file=sys.stderr)
        return 2

    worse = False
    groups = {}
    for key in sorted(base):
        groups.setdefault((key[0], key[2]), []).append(key)
    for (workload, trace), keys in groups.items():
        print(f"== {workload}  trace {trace}  {len(keys)} pairs (seeds {[k[1] for k in keys]})")
        for name in base[keys[0]]["result"]["metrics"]:
            spec_m = metrics[name]
            b = [base[k]["result"]["metrics"][name]["value"] for k in keys]
            n = [new[k]["result"]["metrics"][name]["value"] for k in keys]
            mb, mn = statistics.median(b), statistics.median(n)
            sign = 1.0 if spec_m["better"] == "lower" else -1.0
            wins = sum(sign * (y - x) < 0 for x, y in zip(b, n))
            change = (mn - mb) / mb if mb else float("nan")
            line = (f"  {name:<40s} base {mb:.6g}  new {mn:.6g} {spec_m['unit']}  "
                    f"change {change * 100:+.2f} % of base  new better in {wins}/{len(keys)} pairs")
            if "bound" in spec_m:
                over = sign * change > spec_m["bound"]
                worse |= over
                line += f"  bound {spec_m['bound'] * 100:.0f} %" + ("  REGRESSION" if over else "")
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
