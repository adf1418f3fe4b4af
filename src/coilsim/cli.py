"""Command-line front end.

Exit codes: 0 success, 1 usage/config error, 2 runtime/validation failure.
A path that cannot be read or written exits 1 with a one-line error: a
missing --config or one naming a directory, or an --out-dir or --csv that
names a file or lies under one.
A value no run can use, such as a negative rate, a run beyond STEP_MAX
steps or a coil whose center field is ~0, exits 1, under --validate-only
too; only a run exits 2, on the finite values each command's --help names.
Output file names are taken relative to --out-dir, so an absolute --csv,
--sensor-log or --diag-csv path lands where it names.  Every command is
deterministic for a given (config, seed), so reruns produce byte-identical
CSV bodies.  A command writes all its files before it prints anything, and
a reader that closes stdout early ends it quietly with exit 0.
A failed command leaves every output with its previous bytes and removes
the directories it made: its files are put in place only once all are
written.  A command ended by SIGTERM fails so too, and exits 143.  Two
outputs on one path, however spelled, one that names a directory, or an
--out-dir that names a file or lies under one, exit 1 before any run,
under --validate-only too.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import signal
import sys
import threading
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import coilopt, experiments, magnetics
from ._table import part_path, write_repr_csv
from .config import ConfigError, ScenarioConfig, load_config, load_preset, preset_names
from .control import check_convergence_condition
from .experiments import DIAGNOSTICS_COLUMNS, METHODS, SENSOR_LOG_COLUMNS, TRACE_COLUMNS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

OUT_DIR = Path("coilsim_out")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    @staticmethod
    def exit_with(message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _add_config_args(p: argparse.ArgumentParser, exit_2: str) -> None:
    p.epilog = (f"Exit status: 0 on success; 2 from a run {exit_2}; 1 on any other bad option, config value "
                "or path, under --validate-only too.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", type=Path, help="scenario config file")
    src.add_argument("--preset", help="shipped preset name (see `coilsim presets`)")
    p.add_argument("--validate-only", action="store_true",
                   help="parse and validate the config, check --out-dir and the output names "
                        "as a run would, and run or make nothing")
    p.add_argument("--out-dir", type=Path, default=OUT_DIR, help="output directory (default: %(default)s)")


def _load(args) -> ScenarioConfig:
    if args.preset is not None:
        return load_preset(args.preset)
    return load_config(args.config)


def _output_paths(args, names) -> list[Path]:
    """The paths of a command's outputs under --out-dir.  An --out-dir that
    is a file raises EEXIST, one under a file ENOTDIR, as making it would;
    an output on an earlier one's path raises ConfigError, one on a
    directory EISDIR."""
    # the nearest of --out-dir and its parents that exists
    found = next((p for p in (args.out_dir, *args.out_dir.parents) if p.exists()), None)
    if found is not None and not found.is_dir():
        code = errno.EEXIST if found == args.out_dir else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(args.out_dir))
    reals, paths = set(), []  # the outputs' real paths; each output's path
    for name in names:
        path = args.out_dir / name
        real = os.path.realpath(path)
        if real in reals:
            raise ConfigError(f"two outputs of one command on one path: {path}")
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        reals.add(real)
        paths.append(path)
    return paths


def _validated(args, *names) -> int:
    """--validate-only: check the output names as a run would, make nothing."""
    _output_paths(args, names)
    print("config OK")
    return EXIT_OK


@contextmanager
def _outputs(args, *names):
    """Check a command's output names (_output_paths), make --out-dir and
    yield save(writer, name, *rest), which returns writer(part_path(out_dir
    / name), *rest); each part replaces its output once the body returns.
    If anything after the checks raises, the parts, and then the
    directories made here, if empty, are removed."""
    parts = {path: part_path(path) for path in _output_paths(args, names)}
    made = [p for p in (args.out_dir, *args.out_dir.parents) if not p.exists()]

    def save(writer, name, *rest):
        return writer(parts[args.out_dir / name], *rest)

    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        yield save
        for path, part in parts.items():
            os.replace(part, path)
    except BaseException:
        for part in parts.values():
            with suppress(OSError):
                os.unlink(part)
        for p in made:
            with suppress(OSError):
                p.rmdir()
        raise


def _positive(text: str) -> float:
    """An argparse type: a float that is finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


# The coil sides `optimize` takes, mm: 1 um to 100 m, far beyond any coil
# built, yet clear of the tiny sides whose spacing cubed underflows in the
# curvature and of the huge ones whose --csv scan would not fit in memory.
SIDE_MM = (0.001, 100_000.0)


def _side_mm(text: str) -> float:
    """An argparse type: a coil side in mm, within SIDE_MM."""
    value = _positive(text)
    lo, hi = SIDE_MM
    if not lo <= value <= hi:
        raise argparse.ArgumentTypeError(f"must be within {lo:g} to {hi:g} mm, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coilsim",
                     description="Square-Helmholtz field testbed simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="solve the optimal side/spacing ratio")
    p.add_argument("--side-mm", type=_side_mm, required=True,
                   help=f"coil side length, mm, {SIDE_MM[0]:g} to {SIDE_MM[1]:g}")
    p.add_argument("--csv", type=Path, help="also write uniformity vs +x position CSV")
    p.add_argument("--out-dir", type=Path, default=OUT_DIR)

    p = sub.add_parser("field-map", help="evaluate the field over the configured grid")
    _add_config_args(p, "on a [grid] point on a wire")

    p = sub.add_parser("sysid", help="run the identification study for all methods")
    _add_config_args(p, "on a [method.*] rate whose filter diverges or an n_iters or order too large for "
                        "memory")
    p.add_argument("--snr-db", type=float, help="override the configured SNR")
    p.add_argument("--methods", default="all", help="comma list of distinct methods, or 'all'")

    p = sub.add_parser("step", help="run the closed-loop step response")
    _add_config_args(p, "on a [method.*] rate whose filter diverges, a [step] x_scale_nt or ctrl_unit_nt "
                        "that makes a sample non-finite, or a [step] duration_s, switch_time_s or [sensor] "
                        "sample_rate_hz whose run is too long for memory")
    p.add_argument("--method", default="all", help="comma list of distinct methods, or 'all'")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--diag-csv", type=Path,
                   help="write per-step convex diagnostics; exits 1 unless convex runs")
    p.add_argument("--sensor-log", type=Path,
                   help="write t/true/disturbance/measured CSV "
                        "(one per method, <stem>_<method><suffix>, when several run)")

    p = sub.add_parser(
        "check", help="check the convex rates against the 2/lambda_max stability bound",
        description="Check the [method.convex] rates against the LMS bound 2/lambda_max for white, "
                    "unit-variance input: R = I, so lambda_max = 1 and the bound is 2.  The slow rate is "
                    "at most beta/phi (inf when phi = 0), the fast rate is c.  Nothing is sampled.")
    _add_config_args(p, "under --strict when a rate is beyond its bound, and never without it")
    p.add_argument("--strict", action="store_true", help="nonzero exit on violation")
    p.add_argument("--beta-scale", type=_positive, default=1.0, help="multiply beta before the check")
    p.add_argument("--c-scale", type=_positive, default=1.0, help="multiply c before the check")

    sub.add_parser("presets", help="list shipped presets")
    return parser


def cmd_optimize(args) -> int:
    result = coilopt.solve_optimal_ratio()
    side_m = args.side_mm / 1000.0
    spacing_m = side_m / result.n
    pair = magnetics.HelmholtzPair(side=side_m, spacing=spacing_m, turns=1, current=1.0)
    curvature = coilopt.second_derivative_center(pair)
    if args.csv is not None:
        last = 0.8 * spacing_m
        # SIDE_MM keeps this under 44,000 positions, where the additions'
        # rounding drifts by far less than a step: one slot to spare holds them
        step = coilopt.SCAN_STEP_M
        positions = coilopt.scan_positions(0.0, step, last, int(last / step) + 2)
        pts = np.zeros((len(positions), 3))
        pts[:, 0] = positions
        h = magnetics.uniformity(pair, pts)
        with _outputs(args, args.csv) as save:
            save(write_repr_csv, args.csv, ("pos_over_d", "uniformity_pct"), [(positions / spacing_m, h)])
    print(f"optimal ratio n*      : {result.n:.6f}")
    print(f"polynomial residual   : {result.residual:.3e}  ({result.iterations} bisections)")
    print(f"side length           : {args.side_mm:.1f} mm")
    print(f"optimal spacing       : {spacing_m * 1000.0:.1f} mm")
    print(f"center curvature      : {curvature:.3e} T/m^2")
    if args.csv is not None:
        print(f"wrote {args.out_dir / args.csv}")
    return EXIT_OK


def cmd_field_map(args) -> int:
    cfg = _load(args)
    pair = cfg.pair()
    grid = cfg.grid()
    try:  # a center field of ~0 is no uniformity reference: no map takes the coil
        if args.validate_only:
            magnetics.uniformity(pair, np.zeros((0, 3)))  # the run's center check
            return _validated(args, "field_map.csv")
        with _outputs(args, "field_map.csv") as save:
            center = save(magnetics.write_field_map_csv, "field_map.csv", pair, grid)
    except magnetics.ZeroCenterField as err:
        raise ConfigError(f"{cfg.source}: [coil] {err}") from None
    print(f"{grid.size} grid points; center bz = {center * 1e6:.2f} uT")
    print(f"wrote {args.out_dir / 'field_map.csv'}")
    return EXIT_OK


def _method_list(raw: str) -> list[str]:
    if raw == "all":
        return list(METHODS)
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    if not methods:
        raise ConfigError(f"no method selected; choose from {METHODS}")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"method selected more than once in {raw!r}")
    return methods


def cmd_sysid(args) -> int:
    cfg = _load(args)
    methods = _method_list(args.methods)
    scn = cfg.sysid_scenario(snr_override=args.snr_db)
    params = {m: cfg.method_params(m) for m in methods}
    if args.validate_only:
        return _validated(args, "metrics.csv", "mse_curve.csv")
    with _outputs(args, "metrics.csv", "mse_curve.csv") as save:
        reports = experiments.run_sysid(scn, params)
        save(experiments.write_metrics_csv, "metrics.csv", list(reports.items()))
        save(experiments.write_mse_curves_csv, "mse_curve.csv", {m: r.mse_curve for m, r in reports.items()})
    for m, report in reports.items():
        print(f"{m:7s} iters_to_converge={report.iters_to_converge:5d} "
              f"final_mse={report.final_mse:.4e}")
    print(f"wrote {args.out_dir / 'metrics.csv'} and {args.out_dir / 'mse_curve.csv'}")
    return EXIT_OK


def cmd_step(args) -> int:
    cfg = _load(args)
    methods = _method_list(args.method)
    if args.diag_csv and "convex" not in methods:
        return _Parser.exit_with("--diag-csv needs the convex method among those run")
    scenarios = {m: cfg.step_scenario(m, seed_override=args.seed) for m in methods}
    single = len(methods) == 1
    # method -> the (name, columns) of each file its run writes
    files = {m: [("trace.csv" if single else f"trace_{m}.csv", TRACE_COLUMNS)] for m in methods}
    for m in methods if args.sensor_log else ():
        log = args.sensor_log if single else args.sensor_log.with_stem(f"{args.sensor_log.stem}_{m}")
        files[m].append((log, SENSOR_LOG_COLUMNS))
    if args.diag_csv:  # convex runs, as checked above
        files["convex"].append((args.diag_csv, DIAGNOSTICS_COLUMNS))
    names = [*(name for f in files.values() for name, _ in f), "metrics.csv"]
    if args.validate_only:
        return _validated(args, *names)
    rows = []
    # a method that fails leaves the files of those run before it unpublished
    with _outputs(args, *names) as save:
        for m, scn in scenarios.items():
            try:
                report = experiments.run_step_response(scn)
            except ValueError as err:
                raise ValueError(f"{m}: {err}") from err
            for name, names in files[m]:
                save(write_repr_csv, name, names, [[report.columns[n] for n in names]])
            report.columns = None  # written; only the summary is kept for metrics.csv
            rows.append((m, report))
        save(experiments.write_metrics_csv, "metrics.csv", rows)
    for m, report in rows:
        reach = report.reach_target_time_s
        reach_txt = "never" if math.isnan(reach) else f"{reach:.3f}s"
        print(f"{m:7s} reach={reach_txt} mean={report.mean_steady_nt:.1f}nT "
              f"rmse={report.rmse_steady_nt:.1f}nT "
              f"fluct=[{report.fluct_min_nt:.0f}, {report.fluct_max_nt:.0f}]nT")
    print(f"wrote {args.out_dir / 'metrics.csv'}")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _load(args)
    params = cfg.method_params("convex")
    for key in ("beta", "c"):
        scale = getattr(args, f"{key}_scale")
        try:
            params = replace(params, **{key: getattr(params, key) * scale})
        except ValueError as err:  # the product left the rate's domain
            return _Parser.exit_with(f"--{key}-scale {scale:g}: {err}")
    if args.validate_only:
        return _validated(args)
    report = check_convergence_condition(params)
    print(f"lambda_max            : {report.lambda_max:.6f}")
    print(f"rate bound 2/lambda   : {report.mu_max_bound:.6f}")
    print(f"slow-branch rate      : {report.nlms_rate:.6f}  "
          f"[{'ok' if report.nlms_ok else 'VIOLATION'}]")
    print(f"fast-branch rate (c)  : {report.fixed_rate:.6f}  "
          f"[{'ok' if report.fixed_ok else 'VIOLATION'}]")
    print(f"overall               : {'pass' if report.passed else 'FAIL'}")
    if args.strict and not report.passed:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_presets(_args) -> int:
    for name in preset_names():
        print(name)
    return EXIT_OK


_COMMANDS = {
    "optimize": cmd_optimize,
    "field-map": cmd_field_map,
    "sysid": cmd_sysid,
    "step": cmd_step,
    "check": cmd_check,
    "presets": cmd_presets,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and reused: parsing leaves no state in it
    return build_parser()


def _terminated(signum, _frame):
    raise SystemExit(128 + signum)


@contextmanager
def _sigterm_exits():
    """While the block runs in the main thread, SIGTERM raises
    SystemExit(143), so the outputs' cleanup runs as on any failure."""
    if threading.current_thread() is not threading.main_thread():
        yield  # only the main thread may set a handler
        return
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    try:
        with _sigterm_exits():
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone, after every file was written; send
        # the rest of the output, and the flush at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
