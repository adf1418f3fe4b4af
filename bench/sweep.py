"""Run the benchmark over several seeds and summarise it.

    python3 bench/sweep.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                           [--traced] [--out bench/BENCH_<topic>.json]

Each run is `bench/run.py` in its own process, one after another.  For each
workload and end-to-end metric the summary gives the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
bound in BENCHMARK.json; `--traced` adds one traced run per workload on the
first seed.  The JSON written by --out keeps every run's metrics and output
digest, so two sweeps of the same code can be compared seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(raw: str) -> list[int]:
    lo, _, hi = raw.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(v) for v in raw.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next(json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record "))
    return {"seed": seed, "trace": trace, "result": result, "record": record}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "bound": bounds.get(name), "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for wl in names:
        runs = []
        for seed in seeds:
            r = run_once(wl, seed, args.seconds, 0)
            runs.append(r)
            print(f"{wl} seed={seed} failed={r['result']['failed']}/{r['result']['attempted']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in r["result"]["metrics"].items()), flush=True)
        summary = summarise(runs, bounds)
        entry = {
            "size": runs[0]["record"]["size"],
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "end_to_end": summary,
            "digests": {str(r["seed"]): r["record"]["digest_first_cycle"] for r in runs},
        }
        for name, s in summary.items():
            # setup_s is gated on its median only, not on its spread
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median={s['median']:.6g} {s['unit']} spread={s['spread']:.4f} "
                  f"bound={s['bound']}{flag}", flush=True)
        if args.traced:
            t = run_once(wl, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in t["result"]["metrics"].items()}
        report["workloads"][wl] = entry
        report.setdefault("record", {k: v for k, v in runs[0]["record"].items()
                                     if k in ("machine", "platform", "cpu_count", "nproc", "python", "numpy",
                                              "coilsim", "thread_pin", "commit", "load_shape")})
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
