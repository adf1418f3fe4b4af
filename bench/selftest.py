"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 bench/selftest.py

1. A tiny-size smoke pass of every workload, untraced and traced, through
   the same code path as bench/run.py: every metric named in
   BENCHMARK.json is emitted, with its unit, and no unit fails.
2. Each output check accepts a real output and rejects deliberately
   corrupted copies of it.
3. A changed digest on the re-run unit counts as a failure.
4. In a directory holding only BENCHMARK.json and bench/, run.py exits
   non-zero without printing a result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

run.import_coilsim()

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def tiny(name: str):
    return {
        "field-volume": lambda: workloads.FieldVolume(SEED, n=5),
        "coil-design": lambda: workloads.CoilDesign(SEED, lo_m=0.3, hi_m=0.45, cycle=2),
        "sysid-trials": lambda: workloads.SysidTrials(SEED, trials=8),
        "closed-loop-seeds": lambda: workloads.ClosedLoopSeeds(SEED),
    }[name]()


def test_smoke(work: Path) -> None:
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        for w in SPEC["workloads"]:
            res = run.measure(tiny(w["name"]), 0.0, bool(trace), work / f"{w['name']}-{trace}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == expected, f"{w['name']} trace={trace}: metrics {sorted(set(got) ^ set(expected))} differ"
            assert all(isinstance(m["value"], float) for m in res["metrics"].values())
            r = res["runner"]
            assert r.attempted >= 2 and r.failed == 0, f"{w['name']}: {r.failures}"
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                layers = sum(m[f"{layer}.self_share"] for layer in run.tracing.LAYERS)
                assert abs(layers + m["trace.root_self_share"] - 1.0) < 1e-6, f"{w['name']}: shares sum {layers}"
            print(f"ok smoke {w['name']} trace={trace}")


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set(row: int, col: int, fn):
    def edit(rows):
        rows[row][col] = fn(rows[row][col])
        return rows
    return edit


def _drop_last(rows):
    return rows[:-1]


def _scale(col: int, factor: float):
    def edit(rows):
        for r in rows[1:]:
            r[col] = repr(float(r[col]) * factor)
        return rows
    return edit


# workload -> (file, edit) corruptions of a copy of one unit's outputs
CORRUPTIONS = {
    "field-volume": [
        ("field_map.csv", _drop_last),
        ("field_map.csv", _scale(3, 1.0 + 1e-6)),  # bx off by 1 ppm in every row
        ("field_map.csv", _set(2, 5, lambda v: repr(-float(v)))),  # breaks the z mirror
        ("field_map.csv", _set(1, 0, lambda v: repr(float(v) + 1e-6))),  # point off the grid
    ],
    "coil-design": [
        ("uniformity.csv", _drop_last),
        ("uniformity.csv", _set(1, 1, lambda v: "0.5")),
        ("uniformity.csv", _scale(1, 1.0 + 1e-3)),
    ],
    "sysid-trials": [
        ("metrics.csv", _set(1, 7, lambda v: repr(float(v) * 10.0))),
        ("metrics.csv", _set(2, 7, lambda v: "nan")),
        ("metrics.csv", _set(3, 6, lambda v: "5000")),
        ("mse_curve.csv", _drop_last),
        ("mse_curve.csv", _set(10, 4, lambda v: "inf")),
    ],
    "closed-loop-seeds": [
        ("metrics.csv", _set(1, 2, lambda v: "nan")),
        ("metrics.csv", _set(1, 3, lambda v: "inf")),
        ("trace.csv", _drop_last),
        ("trace.csv", _set(5, 2, lambda v: "nan")),
    ],
}

# coil-design results live in memory: corrupt a copy of the dict
RESULT_CORRUPTIONS = [
    lambda r: {**r, "n": r["n"] * (1.0 + 1e-6)},
    lambda r: {**r, "curvature": 1e-3},
    lambda r: {**r, "extents": {0.1: (0.3, 0.3), 1.0: (0.2, 0.35)}},
]


def _rejects(wl, u, out: Path) -> bool:
    try:
        wl.check(u, out)
    except oracle.CheckFailed:
        return True
    return False


def test_checks_reject_corruption(work: Path) -> None:
    for name, corruptions in CORRUPTIONS.items():
        wl = tiny(name)
        out = work / f"check-{name}"
        runner = run.Runner(wl, out)
        assert runner.run_unit(0) is not None and runner.failed == 0, runner.failures
        u = wl.unit(0)
        if name == "coil-design":
            wl.execute(u, out)  # u.result is filled by execute
        for k, (fname, edit) in enumerate(corruptions):
            copy = work / f"copy-{name}-{k}"
            shutil.copytree(out, copy)
            assert not _rejects(wl, u, copy), f"{name}: clean copy rejected"
            _rewrite(copy / fname, edit)
            assert _rejects(wl, u, copy), f"{name}: corruption {k} of {fname} accepted"
        for k, corrupt in enumerate(RESULT_CORRUPTIONS if name == "coil-design" else ()):
            bad = workloads.Unit(u.index, u.params, u.work, corrupt(u.result))
            assert _rejects(wl, bad, out), f"{name}: result corruption {k} accepted"
        print(f"ok checks reject {len(corruptions)} corrupted copies of {name}")


def test_digest_change_fails(work: Path) -> None:
    wl = tiny("closed-loop-seeds")
    runner = run.Runner(wl, work / "digest")
    assert runner.run_unit(0) is not None
    wl.digest = lambda u, out: {"trace.csv": "different"}
    assert runner.run_unit(0) is None and runner.failed == 1
    print("ok changed digest counts as a failure")


def test_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = SPEC["command"][1:] + ["--workload", "coil-design", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *cmd], cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok bare directory exits", proc.returncode, "without a result")


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        test_bare_directory(work)
        test_digest_change_fails(work)
        test_checks_reject_corruption(work)
        test_smoke(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
