"""Repeat the benchmark over seeds and summarise it per workload.

    python3 perfbench/spread.py --seeds 10 --traced 2 --out perfbench/baseline.json

For each workload, runs ``run.py --trace 0`` once per seed (seeds
1..N), one run at a time, and reports each end-to-end metric's median,
first and third quartile (``statistics.quantiles(values, n=4)``) and
spread, the quartile distance as a share of the median.  With
``--traced K`` it then makes K traced runs on seed 1, checks that every
count repeats exactly between them, and reports the per-layer metrics
of the first.  ``--out`` writes the summary as JSON.  ``--against``
takes an earlier summary, such as baseline.json, and prints how far
each median moved from it, as a share of the earlier median, next to
the metric's bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong verdicts\n{proc.stdout}")
    result["env"] = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()
    before = json.loads(pathlib.Path(args.against).read_text()) if args.against else {}

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = [run(workload, seed, 0) for seed in range(1, args.seeds + 1)]
        entry = {"env": runs[0]["env"], "attempted": sum(r["attempted"] for r in runs),
                 "failed_cases": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, {entry['attempted']} cases, "
              f"{entry['failed_cases']} failed; {json.dumps(entry['env'])}")
        for name in bounds:
            unit = runs[0]["metrics"][name]["unit"]
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = unit
            entry["end_to_end"][name] = s
            print(f"  {name:14s} median {s['median']:.4f} {unit:3s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}, a third {bounds[name] / 3:.4f})")
            if workload in before:
                old = before[workload]["end_to_end"][name]["median"]
                print(f"  {'':14s} median moved {(s['median'] - old) / old:+.4f} "
                      f"from {old:.4f} (bound {bounds[name]})")
        if args.traced:
            traced = [run(workload, 1, 1) for _ in range(args.traced)]
            layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            counts = [k for k, v in traced[0]["metrics"].items()
                      if v["unit"] in ("count", "B", "MB_computed", "ratio")]
            repeat = all(t["metrics"][k]["value"] == layers[k]
                         for t in traced[1:] for k in counts)
            entry["per_layer"] = layers
            entry["counts_repeat"] = repeat
            print(f"  traced x{len(traced)}: counts repeat exactly: {repeat}")
            for k, v in traced[0]["metrics"].items():
                print(f"    {k:32s} {v['value']:.6g} {v['unit']}")
        summary[workload] = entry
        sys.stdout.flush()
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
