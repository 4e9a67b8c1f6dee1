"""Summarize the result files in bench/out into one baseline file.

    python3 bench/summarize.py bench/baseline.json

For every workload it lists each end-to-end metric's values over the
untraced runs with their median and quartiles, and the per-layer metrics of
the traced runs (counts repeat exactly, so one value each when they agree).
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def summarize(paths):
    runs = [_load(p) for p in sorted(paths)]
    out = {"environment": runs[0]["environment"] if runs else None, "workloads": {}}
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        e2e, layer = {}, {}
        for r in mine:
            traced = "trace.spans" in r["result"]["metrics"]
            for k, v in r["result"]["metrics"].items():
                (layer if traced else e2e).setdefault(k, []).append(v["value"])
        row = {"seeds": sorted({r["environment"]["seed"] for r in mine}), "end_to_end": {}}
        for k, vals in e2e.items():
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            row["end_to_end"][k] = {"values": vals, "median": statistics.median(vals),
                                    "q1": q[0], "q3": q[2],
                                    "iqr_over_median": (q[2] - q[0]) / statistics.median(vals)}
        row["per_layer"] = {k: v[0] if len(set(v)) == 1 else v for k, v in layer.items()}
        out["workloads"][w] = row
    return out


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    paths = glob.glob(os.path.join(HERE, "out", "result-*.json"))
    if not paths:
        print("summarize: no result files in bench/out", file=sys.stderr)
        return 1
    with open(argv[0], "w") as fh:
        json.dump(summarize(paths), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
