"""The four benchmark workloads.

A workload turns the benchmark seed into an endless, deterministic sequence
of units.  Units come in cycles: a cycle is the smallest group that covers
the workload's input mix once, so runs that stop at a cycle boundary always
measure the same mix whatever the seed.  For each unit the benchmark calls,
in order:

    prepare   write the unit's inputs (untimed)
    execute   drive coilsim the way a user does (timed)
    check     verify every output it produced (untimed, uses no coilsim code)
    digest    sha256 of each output, for the determinism re-run

`work` is the unit's size in the workload's own work item (field points,
designs, trial-steps, loop steps); `kind` groups the units that do the same
work (a design stratum, a sysid parameter set, a preset-method pair), whose
times the throughput takes the median of; `layer_counts` feeds the
per-layer ratios of a traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle


class UnitFailed(RuntimeError):
    """A coilsim call raised or returned a non-zero exit code."""


class _Sink(io.TextIOBase):
    """Discards CLI stdout so terminal I/O is not timed."""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        return len(s)


_SINK = _Sink()


def call_cli(argv: list[str]) -> None:
    # looked up on every call, so a tracer's rebinding of cli.main is seen
    from coilsim import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(_SINK), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise UnitFailed(f"coilsim {' '.join(argv)} exited {rc}: {err.getvalue().strip()[-300:]}")


def sha256_files(paths: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@dataclass
class Unit:
    index: int
    params: dict
    work: int
    result: dict = field(default_factory=dict)
    kind: int = 0


class Workload:
    name = ""
    cycle = 1
    work_item = ""  # the per-workload name of work_items_per_s in the report
    nominal_cycle_s = 1.0  # seconds per cycle when the benchmark was added; sizes the traced pass

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *key) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:" + ":".join(map(str, key)))

    def setup_inputs(self, work_dir: Path) -> tuple[list[Path], list[str]]:
        """Config files and preset names a cold start parses."""
        return [], []

    def size(self) -> dict:
        raise NotImplementedError

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def prepare(self, u: Unit, out: Path) -> None:
        pass

    def execute(self, u: Unit, out: Path) -> None:
        raise NotImplementedError

    def check(self, u: Unit, out: Path) -> None:
        raise NotImplementedError

    def outputs(self, u: Unit, out: Path) -> list[Path]:
        raise NotImplementedError

    def digest(self, u: Unit, out: Path) -> dict[str, str]:
        """sha256 of every output file, plus of any in-memory results."""
        d = sha256_files(self.outputs(u, out))
        if u.result:
            d["result"] = hashlib.sha256(repr(sorted(u.result.items())).encode()).hexdigest()
        return d

    def layer_counts(self, u: Unit, out: Path) -> dict:
        return {}


# Production coil of the table-2 preset.
TABLE2_COIL = {"side_mm": 840.4, "spacing_mm": 457.6, "turns": 24, "current_a": 2.94}


class FieldVolume(Workload):
    """One field-map over an n^3 grid spanning +/-200 mm inside the
    table-2 coil, x/y shifted by a seeded sub-millimetre offset; z stays
    symmetric so the bz mirror check covers the whole grid."""

    name = "field-volume"
    nominal_cycle_s = 0.55
    work_item = "field_points_per_s"

    def __init__(self, seed: int, n: int = 17, half_mm: float = 200.0):
        super().__init__(seed)
        self.n = n
        self.half_mm = half_mm

    def size(self) -> dict:
        return {"grid": f"{self.n}^3", "points_per_unit": self.n**3, "half_extent_mm": self.half_mm}

    def unit(self, i: int) -> Unit:
        r = self.rng(i)
        ox, oy = r.uniform(-0.5, 0.5), r.uniform(-0.5, 0.5)
        h = self.half_mm
        axes = ((-h + ox, h + ox, self.n), (-h + oy, h + oy, self.n), (-h, h, self.n))
        return Unit(i, {"axes_mm": axes}, self.n**3)

    def _config(self, u: Unit) -> str:
        c = TABLE2_COIL
        lines = ["[meta]", "schema_version = 1", "[coil]"]
        lines += [f"{k} = {v!r}" for k, v in c.items()]
        lines.append("[grid]")
        for key, (lo, hi, n) in zip(("x_mm", "y_mm", "z_mm"), u.params["axes_mm"]):
            lines.append(f"{key} = {lo!r},{hi!r},{n}")
        return "\n".join(lines) + "\n"

    def setup_inputs(self, work_dir: Path) -> tuple[list[Path], list[str]]:
        path = work_dir / "setup-field.cfg"
        path.write_text(self._config(self.unit(0)))
        return [path], []

    def prepare(self, u: Unit, out: Path) -> None:
        (out / "field.cfg").write_text(self._config(u))

    def execute(self, u: Unit, out: Path) -> None:
        call_cli(["field-map", "--config", str(out / "field.cfg"), "--out-dir", str(out)])

    def outputs(self, u: Unit, out: Path) -> list[Path]:
        return [out / "field_map.csv"]

    def check(self, u: Unit, out: Path) -> None:
        c = TABLE2_COIL
        coil = {"side_m": c["side_mm"] / 1000.0, "spacing_m": c["spacing_mm"] / 1000.0,
                "turns": c["turns"], "current_a": c["current_a"]}
        axes_m = tuple((lo / 1000.0, hi / 1000.0, n) for lo, hi, n in u.params["axes_mm"])
        sample = np.random.default_rng([self.seed & 0xFFFFFFFF, u.index]).integers(0, u.work, 64)
        oracle.check_field_map(out / "field_map.csv", coil, axes_m, sample)

    def layer_counts(self, u: Unit, out: Path) -> dict:
        return {"points": u.work, "field_csv_bytes": (out / "field_map.csv").stat().st_size}


class CoilDesign(Workload):
    """A sweep of coil side lengths over [0.3, 1.2] m.  One cycle is one
    design from each of `cycle` equal strata of that range, in seeded
    order, so every run sees the same spread of design sizes."""

    name = "coil-design"
    nominal_cycle_s = 1.8
    work_item = "designs_per_s"
    THRESHOLDS = (0.1, 1.0)  # percent

    def __init__(self, seed: int, lo_m: float = 0.3, hi_m: float = 1.2, cycle: int = 12):
        super().__init__(seed)
        self.lo_m, self.hi_m, self.cycle = lo_m, hi_m, cycle

    def size(self) -> dict:
        return {"side_m": [self.lo_m, self.hi_m], "designs_per_cycle": self.cycle,
                "uniform_region_thresholds_pct": list(self.THRESHOLDS)}

    def unit(self, i: int) -> Unit:
        c, k = divmod(i, self.cycle)
        order = list(range(self.cycle))
        self.rng("order", c).shuffle(order)
        width = (self.hi_m - self.lo_m) / self.cycle
        side_m = self.lo_m + width * (order[k] + self.rng(i).random())
        return Unit(i, {"side_mm": side_m * 1000.0}, 1, kind=order[k])

    def execute(self, u: Unit, out: Path) -> None:
        from coilsim import coilopt, magnetics

        side_mm = u.params["side_mm"]
        side = side_mm / 1000.0
        opt = coilopt.solve_optimal_ratio()
        pair = magnetics.HelmholtzPair(side=side, spacing=side / opt.n, turns=1, current=1.0)
        curvature = coilopt.second_derivative_center(pair)
        regions = {t: coilopt.uniform_region(pair, t) for t in self.THRESHOLDS}
        u.result = {
            "n": opt.n,
            "curvature": curvature,
            "extents": {t: (r.extent_x_over_d, r.extent_y_over_d) for t, r in regions.items()},
        }
        call_cli(["optimize", "--side-mm", repr(side_mm), "--csv", "uniformity.csv", "--out-dir", str(out)])

    def outputs(self, u: Unit, out: Path) -> list[Path]:
        return [out / "uniformity.csv"]

    def check(self, u: Unit, out: Path) -> None:
        rng = np.random.default_rng([self.seed & 0xFFFFFFFF, u.index])
        oracle.check_design(u.result, out / "uniformity.csv", u.params["side_mm"] / 1000.0, rng)


# Parameter sets of the table-4 identification study (30 dB and 10 dB).
SYSID_SETS = {
    "30db": {
        "snr_db": 30.0,
        "method.lms": {"mu": 0.005},
        "method.svs": {"alpha": 40, "beta": 0.25},
        "method.atlms": {"alpha": 2000, "beta": 0.22, "m": 900, "n_scale": 500},
        "method.convex": {"alpha": 500, "beta": 0.01, "sigma": 11, "phi": 0.1, "c": 0.06,
                          "mu_b": 2.0, "gamma_o": 0.55, "t_o": 2, "init_weights": "0,0"},
    },
    "10db": {
        "snr_db": 10.0,
        "method.lms": {"mu": 0.01},
        "method.svs": {"alpha": 6, "beta": 0.3},
        "method.atlms": {"alpha": 1000, "beta": 0.25, "m": 1000, "n_scale": 500},
        "method.convex": {"alpha": 1000, "beta": 0.3, "sigma": 280, "phi": 0.2, "c": 0.10,
                          "mu_b": 0.05, "gamma_o": 0.55, "t_o": 2, "init_weights": "0,0"},
    },
}
METHODS = ("lms", "svs", "atlms", "convex")


class SysidTrials(Workload):
    """`sysid` over all four methods, alternating the 30 dB and 10 dB
    parameter sets, each unit with its own seeded identification seed."""

    name = "sysid-trials"
    nominal_cycle_s = 1.5
    work_item = "trial_steps_per_s"

    def __init__(self, seed: int, trials: int = 200, n_iters: int = 5000):
        super().__init__(seed)
        self.trials, self.n_iters = trials, n_iters

    def size(self) -> dict:
        return {"trials": self.trials, "n_iters": self.n_iters, "methods": list(METHODS),
                "trial_steps_per_unit": self.trials * self.n_iters * len(METHODS)}

    def unit(self, i: int) -> Unit:
        name = ("30db", "10db")[i % 2]
        return Unit(i, {"set": name, "sysid_seed": self.rng(i).randrange(2**31)},
                    self.trials * self.n_iters * len(METHODS), kind=i % 2)

    def _config(self, u: Unit) -> str:
        s = SYSID_SETS[u.params["set"]]
        lines = ["[meta]", "schema_version = 1", "[sysid]",
                 f"snr_db = {s['snr_db']!r}", "order = 2", f"n_iters = {self.n_iters}",
                 f"reinjection_at = {self.n_iters // 2}", f"trials = {self.trials}",
                 f"seed = {u.params['sysid_seed']}", "true_weights = 0.8,0.5"]
        for section in (f"method.{m}" for m in METHODS):
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in s[section].items()]
        return "\n".join(lines) + "\n"

    def setup_inputs(self, work_dir: Path) -> tuple[list[Path], list[str]]:
        paths = []
        for i in range(2):
            p = work_dir / f"setup-sysid-{i}.cfg"
            p.write_text(self._config(self.unit(i)))
            paths.append(p)
        return paths, []

    def prepare(self, u: Unit, out: Path) -> None:
        (out / "sysid.cfg").write_text(self._config(u))

    def execute(self, u: Unit, out: Path) -> None:
        call_cli(["sysid", "--config", str(out / "sysid.cfg"), "--out-dir", str(out)])

    def outputs(self, u: Unit, out: Path) -> list[Path]:
        return [out / "metrics.csv", out / "mse_curve.csv"]

    def check(self, u: Unit, out: Path) -> None:
        oracle.check_sysid(out, METHODS, SYSID_SETS[u.params["set"]]["snr_db"], self.n_iters)

    def layer_counts(self, u: Unit, out: Path) -> dict:
        return {f"trial_steps.{m}": self.trials * self.n_iters for m in METHODS}


# Shipped closed-loop presets and their loop lengths:
# (switch + duration) * sample rate = (3 + 20) s * 75 Hz and 10 s * 200 Hz.
STEP_PRESETS = {"table7-up": 1725, "table7-down": 1725, "location-field": 2000}


class ClosedLoopSeeds(Workload):
    """`step --preset P --method M --seed S`: one cycle is every preset with
    every method under one seeded step seed."""

    name = "closed-loop-seeds"
    nominal_cycle_s = 1.1
    work_item = "loop_steps_per_s"
    cycle = len(STEP_PRESETS) * len(METHODS)

    def size(self) -> dict:
        return {"presets": STEP_PRESETS, "methods": list(METHODS), "units_per_seed": self.cycle}

    def setup_inputs(self, work_dir: Path) -> tuple[list[Path], list[str]]:
        return [], list(STEP_PRESETS)

    def unit(self, i: int) -> Unit:
        c, k = divmod(i, self.cycle)
        preset, method = divmod(k, len(METHODS))
        preset = list(STEP_PRESETS)[preset]
        return Unit(i, {"preset": preset, "method": METHODS[method], "seed": self.rng(c).randrange(2**31)},
                    STEP_PRESETS[preset], kind=k)

    def execute(self, u: Unit, out: Path) -> None:
        p = u.params
        call_cli(["step", "--preset", p["preset"], "--method", p["method"], "--seed", str(p["seed"]),
                  "--out-dir", str(out)])

    def outputs(self, u: Unit, out: Path) -> list[Path]:
        return [out / "metrics.csv", out / "trace.csv"]

    def check(self, u: Unit, out: Path) -> None:
        oracle.check_step(out, u.params["method"], u.work)


WORKLOADS = {w.name: w for w in (FieldVolume, CoilDesign, SysidTrials, ClosedLoopSeeds)}
