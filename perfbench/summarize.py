"""Median and quartile spread of each metric over saved benchmark runs.

    python3 perfbench/summarize.py runs/*.txt            # table
    python3 perfbench/summarize.py --json runs/*.txt     # JSON

Each file holds the stdout of one ``run.py`` call; runs are grouped by the
workload and trace mode named on their detail line.  The spread is the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics


def load(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(paths):
    groups = {}
    for path in paths:
        detail, result = load(path)
        key = f"{detail['workload']}/trace{detail['trace']}"
        groups.setdefault(key, []).append((detail, result))
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, first in runs[0][1]["metrics"].items():
            vals = [r["metrics"][name]["value"] for _, r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"],
                             "spread": (q3 - q1) / med if med else 0.0}
        slices = {}
        for detail, _ in runs:
            for sl, c in detail["slices"].items():
                a, f = slices.get(sl, (0, 0))
                slices[sl] = (a + c["attempted"], f + c["failed"])
        out[key] = {
            "runs": len(runs),
            "seeds": [d["seed"] for d, _ in runs],
            "all_correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "failed_by_slice": {s: {"attempted": a, "failed": f}
                                for s, (a, f) in sorted(slices.items()) if f},
            "metrics": metrics,
        }
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--json", action="store_true")
    p.add_argument("files", nargs="+")
    args = p.parse_args()
    out = summarize(args.files)
    if args.json:
        print(json.dumps(out, indent=1, sort_keys=True))
        return
    for key, s in out.items():
        print(f"{key}: {s['runs']} runs, all correct {s['all_correct']}, "
              f"failed {s['failed']}/{s['attempted']}")
        for name, m in s["metrics"].items():
            print(f"  {name:45s} {m['median']:14.6g} {m['unit']:6s} spread {m['spread']:.3f}")
        for sl, c in s["failed_by_slice"].items():
            print(f"  failed {sl:38s} {c['failed']}/{c['attempted']}")


if __name__ == "__main__":
    main()
