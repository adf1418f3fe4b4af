"""coilsim benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; coilsim is imported from ./src.
One client drives the package in a closed loop (each unit starts when the
previous one ends) with BLAS/OpenMP pinned to one thread.  The run sets up,
executes unit 0 once untimed (warm-up and determinism reference), then
executes whole cycles of units until --seconds have passed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed number
of cycles (about --seconds / 2 worth at the commit the benchmark was added
on) untraced, re-runs the same units with every public coilsim function
wrapped (see tracer.py), and reports the per-layer metrics plus the tracing
overhead; the same --seconds always gives the same units, so counts repeat
exactly.  Human-readable lines come first; the last line
of stdout is the JSON result.  Run records and spans go to bench/.work/.
"""

from __future__ import annotations

import os

THREAD_PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PIN)  # before numpy is imported anywhere

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

SETUP_REPS = 5

_SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import coilsim
t1 = time.perf_counter()
from coilsim import config
for arg in sys.argv[1:]:
    kind, _, value = arg.partition("=")
    config.load_config(value) if kind == "config" else config.load_preset(value)
print(json.dumps({"import_s": t1 - t0, "parse_s": time.perf_counter() - t1}))
"""


def import_coilsim():
    if not (SRC / "coilsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no coilsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coilsim

    if Path(coilsim.__file__).resolve().parent != (SRC / "coilsim").resolve():
        raise SystemExit(f"bench: imported coilsim from {coilsim.__file__}, not {SRC}")
    return coilsim


def measure_setup(configs: list[Path], presets: list[str]) -> dict:
    """Median wall time of a cold interpreter importing coilsim and parsing
    the workload's configs, over SETUP_REPS subprocesses."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", _SETUP_CODE]
    argv += [f"config={p}" for p in configs] + [f"preset={p}" for p in presets]
    walls, imports = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup subprocess failed: {proc.stderr.strip()[-500:]}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports), "reps": SETUP_REPS}


class Runner:
    """Executes units of one workload and keeps the tallies."""

    def __init__(self, wl, out: Path):
        self.wl, self.out = wl, out
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, dict[str, str]] = {}
        self.counts: dict[str, float] = {}

    def run_unit(self, i: int, tracer=None, count=False) -> float | None:
        """Prepare, time, check and digest unit i.  Returns its time, or
        None if it failed."""
        wl, out = self.wl, self.out
        self.attempted += 1
        u = wl.unit(i)
        try:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            wl.prepare(u, out)
            t0 = perf_counter()
            if tracer is None:
                wl.execute(u, out)
            else:
                tracer.call("bench.unit", wl.execute, (u, out))
            dt = perf_counter() - t0
            wl.check(u, out)
            digest = wl.digest(u, out)
            if count:
                for k, v in wl.layer_counts(u, out).items():
                    self.counts[k] = self.counts.get(k, 0) + v
        except Exception as err:  # a failing unit is counted, the run goes on
            self.failed += 1
            self.failures.append(f"unit {i}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)
            return None
        ref = self.digests.setdefault(i, digest)
        if ref != digest:
            self.failed += 1
            changed = sorted(k for k in ref.keys() | digest.keys() if ref.get(k) != digest.get(k))
            self.failures.append(f"unit {i}: output digests of {changed} changed on re-run")
            return None
        return dt

    def run_cycles(self, budget_s: float = 0.0, n_cycles: int | None = None,
                   tracer=None) -> list[tuple[int, float | None]]:
        """Whole cycles of units from unit 0: exactly n_cycles, or as many
        as start within budget_s (at least one).  Returns (unit index, time
        or None) pairs."""
        cycle = self.wl.cycle
        done: list[tuple[int, float | None]] = []
        t0 = perf_counter()
        c = 0
        while c < (n_cycles or 1) or (n_cycles is None and perf_counter() - t0 < budget_s):
            for i in range(c * cycle, (c + 1) * cycle):
                done.append((i, self.run_unit(i, tracer, count=tracer is not None)))
            c += 1
        return done


def end_to_end(wl, done, setup: dict) -> tuple[dict, dict]:
    """End-to-end values plus a note per metric on what it summarises;
    the p90 latency rides along as a note only.

    Both timing metrics start from each unit kind's median time over the
    whole run.  Throughput is one cycle's work over the sum of those
    medians; the p50 latency is their median.  The host's speed switches
    between a fast and a slow mode for seconds at a time, and a median over
    the units of one kind stays in the mode the run spent most time in,
    where whole-cycle rates, total work over total time and the median of
    all units mixed across kinds move with the share of time in each."""
    ok = [(wl.unit(i), dt) for i, dt in done if dt is not None]
    times = [dt for _, dt in ok]
    kinds: dict[int, tuple[list[int], list[float]]] = {}
    for u, dt in ok:
        works, dts = kinds.setdefault(u.kind, ([], []))
        works.append(u.work)
        dts.append(dt)
    medians = [statistics.median(t) for _, t in kinds.values()]
    cycle_work = sum(statistics.median(w) for w, _ in kinds.values())
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    values = {
        "work_items_per_s": cycle_work / sum(medians),
        "unit_p50_ms": statistics.median(medians) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }
    notes = {"work_items_per_s": f"medians of {len(kinds)} unit kinds over {len(times)} units",
             "unit_p50_ms": f"median of {len(kinds)} kind medians; p90 of all {len(times)} units "
                            f"{p90 * 1e3:.6g} ms with {sum(t > p90 for t in times)} beyond",
             "peak_rss_mb": "1 process", "setup_s": f"median of {setup['reps']} cold starts"}
    return values, notes


def field_map_alloc_mb(out: Path, wl) -> float:
    """Peak traced allocation of one field_map call on unit 0's grid.
    tracemalloc slows the call about tenfold, so it runs once, untimed."""
    from coilsim import config, magnetics

    wl.prepare(wl.unit(0), out)
    cfg = config.load_config(out / "field.cfg")
    pair, grid = cfg.pair(), cfg.grid()
    tracemalloc.start()
    try:
        magnetics.field_map(pair, grid)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search the parent directories of a checkout that is not a repo)."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(wl, args, coilsim) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": wl.size(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "coilsim": coilsim.__version__,
        "thread_pin": THREAD_PIN,
        "commit": git_commit(),
        "load_shape": "closed loop, 1 client, in-process",
    }


def measure(wl, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, warm up and run `wl` for `seconds`; the returned dict holds
    the metrics (end-to-end, or per-layer when `trace`), a note per metric
    on what it summarises, the setup figures, the timed units and the
    Runner."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "unit"
    try:
        setup = measure_setup(*wl.setup_inputs(work))
        runner = Runner(wl, out)
        runner.run_unit(0)  # warm-up; its digest is the determinism reference
        # the traced pass runs a fixed set of units, so its counts repeat exactly
        n_cycles = max(1, round(seconds / 2 / wl.nominal_cycle_s)) if trace else None
        done = runner.run_cycles(seconds, n_cycles)
        if not any(dt is not None for _, dt in done):
            raise RuntimeError(f"{wl.name}: every timed unit failed: {runner.failures[:3]}")
        if not trace:
            values, notes = end_to_end(wl, done, setup)
            result = {k: {"value": v, "unit": metrics.END_TO_END[k][0]} for k, v in values.items()}
        else:
            tr = tracing.Tracer()
            inst = tracing.install(tr)
            try:
                traced = runner.run_cycles(n_cycles=n_cycles, tracer=tr)
            finally:
                inst.uninstall()
            ok = [k for k, ((_, a), (_, b)) in enumerate(zip(done, traced)) if a is not None and b is not None]
            overhead = sum(traced[k][1] for k in ok) / sum(done[k][1] for k in ok) - 1.0 if ok else 0.0
            ctx = dict(runner.counts, import_s=setup["import_s"], overhead_frac=overhead)
            if "magnetics.field_map" in tr.stats:
                ctx["field_map_alloc_mb"] = field_map_alloc_mb(out, wl)
            result, notes = metrics.per_layer(tr.stats, tr.under, ctx), {}
            tr.write_spans(work / "spans.jsonl")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"metrics": result, "notes": notes, "setup": setup, "done": done, "runner": runner}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    coilsim = import_coilsim()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{wl.name}-s{args.seed}-t{args.trace}"
    res = measure(wl, args.seconds, bool(args.trace), work)
    runner, result = res["runner"], res["metrics"]

    first = [runner.digests[i] for i in sorted(runner.digests)[: wl.cycle]]
    first_digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    record = run_record(wl, args, coilsim)
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failed_frac=runner.failed / runner.attempted,
        failures=runner.failures[:20],
        units_timed=len(res["done"]),
        setup=res["setup"],
        digest_first_cycle=first_digest,
    )
    full = dict(record, metrics=result, unit_times_s=[dt for _, dt in res["done"]],
                unit_digests={str(i): d for i, d in sorted(runner.digests.items())})
    (work / "record.json").write_text(json.dumps(full, indent=1) + "\n")

    for name, m in result.items():
        alias = f"  [{wl.work_item}]" if name == "work_items_per_s" else ""
        note = f"  ({res['notes'][name]})" if name in res["notes"] else ""
        print(f"{name:52s} {m['value']:.6g} {m['unit']}{alias}{note}")
    print(f"{'failed_frac':52s} {record['failed_frac']:.6g} ({runner.failed}/{runner.attempted} units)")
    print(f"{'digest_first_cycle':52s} {record['digest_first_cycle']}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
