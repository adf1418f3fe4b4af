import configparser
import csv
import errno
import functools
import hashlib
import io
import math
import os
import re
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsim import _table, cli, coilopt, magnetics
from coilsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from coilsim.config import SCHEMA, load_config, load_preset, preset_names
from coilsim.experiments import STEP_MAX, TRIAL_CHUNK, run_step_response


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env(env=()):
    """The environment of a child that imports this checkout's coilsim,
    with env added."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **dict(env),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_child(*args, env=(), **kwargs):
    """`python *args` in a child that imports this checkout's coilsim, with
    env added to its environment and its output captured."""
    return subprocess.run([sys.executable, *args], env=child_env(env), capture_output=True, **kwargs)


def address_space_cap(nbytes):
    """A preexec_fn that caps the child's address space, and only its."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))
    return limit


ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


# the table-2 pair over a 21^3 grid: 9,261 points, five field-map blocks
GRID21 = (
    "[meta]\nschema_version = 1\n"
    "[coil]\nside_mm = 840.4\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
    "[grid]\nx_mm = -210.5,190.3,21\ny_mm = -200,200,21\nz_mm = -220,220,21\n"
)

# the table-2 pair over 21^3 points, and over lines of WRITE_ROWS - 1 to
# 2 * WRITE_ROWS + 1 points, on either side of the CSV writer's write edges
GRIDS = {
    "grid21": GRID21,
    **{f"{name}-points": GRID21.split("[grid]")[0] + f"[grid]\nx_mm = 0,0,1\ny_mm = 50,50,1\nz_mm = -220,220,{n}\n"
       for name, n in (("WRITE_ROWS-1", _table.WRITE_ROWS - 1), ("WRITE_ROWS", _table.WRITE_ROWS),
                       ("WRITE_ROWS+1", _table.WRITE_ROWS + 1), ("2*WRITE_ROWS+1", 2 * _table.WRITE_ROWS + 1))},
}


class TestMagneticsGoldens:
    # digests of the outputs of the per-point implementation the array
    # kernel replaced; the kernel must reproduce them byte for byte
    @pytest.mark.parametrize(
        "preset, digest",
        [
            ("table2", "7674bd8112bc3f67e6766d42a5a8f0102617c6c1d823f31720e748cb714a7500"),
            ("table2-plane25", "fd2cd9afc2a2541f3866d828555bd76d3fb4a831900d7e40635ef72265a4b7f1"),
        ],
    )
    def test_field_map_csv(self, tmp_path, preset, digest):
        assert main(["field-map", "--preset", preset, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert sha256(tmp_path / "field_map.csv") == digest

    def test_multi_block_field_map_csv(self, tmp_path):
        # 21^3 = 9,261 rows, five field-map blocks; captured from the map
        # that ran one kernel call over all points and wrote row by row
        cfg = tmp_path / "grid21.cfg"
        cfg.write_text(GRID21)
        assert main(["field-map", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert sha256(tmp_path / "field_map.csv") == (
            "5936d6c46114e330e80a94a2b03ce3bba7ab2f3ccf088b6465f65e752e453bcc"
        )

    @pytest.mark.parametrize("source", ["table2", "table2-plane25", *GRIDS])
    def test_field_map_takes_the_center_once(self, tmp_path, capsys, monkeypatch, source):
        # one center call, then one call per write of the CSV writer, whose
        # bytes are those of the map in one block; the printed center is
        # that first call's bz
        if source in GRIDS:
            (tmp_path / "grid.cfg").write_text(GRIDS[source])
            cfg, argv = load_config(tmp_path / "grid.cfg"), ["--config", str(tmp_path / "grid.cfg")]
        else:
            cfg, argv = load_preset(source), ["--preset", source]
        calls = []
        real = magnetics.pair_field

        def counted(pair, pts):
            calls.append(len(pts))
            return real(pair, pts)

        monkeypatch.setattr(magnetics, "pair_field", counted)
        assert main(["field-map", *argv, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        n = cfg.grid().size
        n_full, rest = divmod(n, _table.WRITE_ROWS)
        assert calls == [1] + [_table.WRITE_ROWS] * n_full + [rest] * (rest > 0)
        center = real(cfg.pair(), np.zeros((1, 3)))[0, 2]
        assert f"{n} grid points; center bz = {center * 1e6:.2f} uT" in capsys.readouterr().out
        monkeypatch.setattr(_table, "WRITE_ROWS", n)
        assert main(["field-map", *argv, "--out-dir", str(tmp_path / "one")]) == EXIT_OK
        assert sha256(tmp_path / "out" / "field_map.csv") == sha256(tmp_path / "one" / "field_map.csv")

    def test_optimize_csv(self, tmp_path):
        argv = ["optimize", "--side-mm", "840.4", "--csv", "u.csv", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert sha256(tmp_path / "u.csv") == (
            "07b92766c4ac878abea2fbdecfadb9cda5983dd937844a9434f64087460efcb0"
        )

    @pytest.mark.parametrize("threshold, edge", [(0.1, 92), (1.0, 161)])
    def test_optimize_csv_edge_is_the_uniform_region(self, tmp_path, threshold, edge):
        # the CSV and uniform_region walk the same positions through
        # uniformity: the row before the first |uniformity| > threshold is
        # the region's extent, bit for bit
        argv = ["optimize", "--side-mm", "840.4", "--csv", "u.csv", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        with open(tmp_path / "u.csv", newline="") as fh:
            rows = [(float(pos), float(h)) for pos, h in list(csv.reader(fh))[1:]]
        k = next(i for i, (_, h) in enumerate(rows) if abs(h) > threshold)
        side = 840.4 / 1000.0
        pair = magnetics.HelmholtzPair(side=side, spacing=side / coilopt.solve_optimal_ratio().n, turns=1,
                                       current=1.0)
        region = coilopt.uniform_region(pair, threshold)
        assert k - 1 == edge and rows[k - 1][0] == region.extent_x_over_d

    def test_optimize_csv_is_one_field_call(self, tmp_path, monkeypatch):
        # the scan's positions and the center, together
        calls = []
        real = magnetics.pair_field

        def counted(pair, pts):
            calls.append(len(pts))
            return real(pair, pts)

        monkeypatch.setattr(magnetics, "pair_field", counted)
        argv = ["optimize", "--side-mm", "840.4", "--csv", "u.csv", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        rows = len((tmp_path / "u.csv").read_text().splitlines()) - 1
        assert rows == 367 and calls == [1 + rows]

    @pytest.mark.parametrize("side_mm, code", [("0.001", EXIT_OK), ("840.4", EXIT_OK), ("100000", EXIT_OK),
                                               ("1e300", EXIT_USAGE)])
    def test_optimize_csv_under_a_memory_cap(self, tmp_path, side_mm, code):
        # --side-mm 1e300 --csv once built a list of every 1 mm position out
        # to 0.8 spacing until the OS killed it.  Run in a child whose address
        # space is capped (the cap is set in the child only), a regression
        # fails here instead of exhausting the machine.  With BLAS on one
        # thread a run takes about 120 MB of address space at either end of
        # the side range; the cap leaves four times that.
        cap = 512 << 20
        out = tmp_path / "out"
        done = run_child("-m", "coilsim.cli", "optimize", "--side-mm", side_mm, "--csv", "u.csv",
                         "--out-dir", str(out), env=ONE_THREAD, preexec_fn=address_space_cap(cap), timeout=120)
        assert done.returncode == code, done.stderr.decode()
        assert b"Traceback" not in done.stderr
        assert (out / "u.csv").exists() == (code == EXIT_OK)
        if code != EXIT_OK:
            assert b"argument --side-mm: must be within 0.001 to 100000 mm" in done.stderr

    def test_grid_point_on_wire_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "wire.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            "[coil]\nside_mm = 840.4\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
            "[grid]\nx_mm = 420.2,420.2,1\ny_mm = 0,0,1\nz_mm = 228.8,228.8,1\n"
        )
        rc = main(["field-map", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        point = (420.2 / 1000.0, 0.0, 228.8 / 1000.0)
        assert f"point {point}" in capsys.readouterr().err
        assert not (tmp_path / "field_map.csv").exists()

    def test_grid_points_on_wires_name_the_first_row(self, tmp_path, capsys):
        # every grid point lies on a side at x = -/+ side/2: row 0 on the
        # lower loop's, row 7 first on the upper loop's first side; the map
        # named row 7, the point a per-side evaluation met first
        cfg = tmp_path / "wire.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            "[coil]\nside_mm = 840.4\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
            "[grid]\nx_mm = -420.2,420.2,2\ny_mm = -100,100,3\nz_mm = -228.8,228.8,2\n"
        )
        out = tmp_path / "out"
        rc = main(["field-map", "--config", str(cfg), "--out-dir", str(out / "new")])
        assert rc == EXIT_RUNTIME
        point = (-420.2 / 1000.0, -100 / 1000.0, -228.8 / 1000.0)
        err = capsys.readouterr().err
        assert err == f"error: point {point} is within {magnetics.WIRE_GUARD_M} m of a wire line\n"
        assert not out.exists()

    def test_wire_point_in_second_block_leaves_no_file(self, tmp_path, capsys):
        # the WRITE_ROWS points of the x = 0 plane fill the first block; the
        # first point of the x = side/2 plane lies on the wire and opens the
        # second block
        cfg = tmp_path / "wire.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            "[coil]\nside_mm = 840.4\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
            f"[grid]\nx_mm = 0,420.2,2\ny_mm = -100,100,{_table.WRITE_ROWS}\nz_mm = 228.8,228.8,1\n"
        )
        out = tmp_path / "out"
        rc = main(["field-map", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_RUNTIME
        point = (420.2 / 1000.0, -100 / 1000.0, 228.8 / 1000.0)
        assert f"point {point}" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_map_removes_only_the_directories_it_made(self, tmp_path):
        cfg = tmp_path / "wire.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            "[coil]\nside_mm = 840.4\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
            "[grid]\nx_mm = 420.2,420.2,1\ny_mm = 0,0,1\nz_mm = 228.8,228.8,1\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        argv = ["field-map", "--config", str(cfg), "--out-dir", str(out / "new" / "deeper")]
        assert main(argv) == EXIT_RUNTIME
        assert out.is_dir() and list(out.iterdir()) == []

    @pytest.mark.parametrize("side_mm", ["inf", "nan"])
    def test_nonfinite_side_exits_1(self, tmp_path, capsys, side_mm):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            f"[coil]\nside_mm = {side_mm}\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
            "[grid]\nx_mm = 0,0,1\ny_mm = 0,0,1\nz_mm = 0,0,1\n"
        )
        rc = main(["field-map", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "[coil] side must be finite" in capsys.readouterr().err
        assert not (tmp_path / "field_map.csv").exists()

    @pytest.mark.parametrize("validate_only", [False, True], ids=["run", "validate-only"])
    @pytest.mark.parametrize("x_mm", ["nan,0,1", "0,inf,3"])
    def test_nonfinite_grid_end_exits_1(self, tmp_path, capsys, x_mm, validate_only):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            "[coil]\nside_mm = 840.4\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
            f"[grid]\nx_mm = {x_mm}\ny_mm = 0,0,1\nz_mm = 0,0,1\n"
        )
        argv = ["field-map", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert main(argv + ["--validate-only"] * validate_only) == EXIT_USAGE
        assert "[grid] x axis ends must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_step_metrics_cells_are_plain_floats(tmp_path, capsys):
    argv = ["step", "--preset", "table7-up", "--method", "all", "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == ["lms", "svs", "atlms", "convex"]
    for row in rows:
        for cell in row[1:]:
            if cell:
                float(cell)
    assert "nans" not in capsys.readouterr().out


METHODS = ("lms", "svs", "atlms", "convex")


def noiseless_ambient_config(tmp_path, preset):
    """The preset with its Gaussian disturbance switched off: the loop then
    draws only from the sensor stream, which the run-level draws kept."""
    text = resources.files("coilsim").joinpath("presets", f"{preset}.cfg").read_text()
    text, n = re.subn(r"(?m)^gaussian_sigma_nt = \d+$", "gaussian_sigma_nt = 0", text)
    assert n == 1
    cfg = tmp_path / f"{preset}-sigma0.cfg"
    cfg.write_text(text)
    return cfg


class TestStepGoldens:
    # `step --method all --seed 5` with gaussian_sigma_nt = 0, captured from
    # the loop that drew its sensor noise one reading at a time; drawing it
    # once per run must reproduce them byte for byte
    SIGMA0 = {
        "table7-up": {
            "metrics.csv": "b9744e65be32e3fe0704153418747c52b1cc5fe5b852ba84fd6ea21df59a1880",
            "trace_lms.csv": "cbd86fd8a83507b6bce3a8be5ef526c74794c4553b30e0236da3cfc294a3715e",
            "trace_svs.csv": "2ffab8396a0331c3c9e3330933f87d7bd295de0b7496bfa1900f61e76dc50a33",
            "trace_atlms.csv": "735438f8e2496567b3fe2277f82c46a984f44adcd66812410538469d783019c5",
            "trace_convex.csv": "106ca9448ac26fe0cdfa48f81c572be079a6423322842356db3b156f6f2ed162",
        },
        "table7-down": {
            "metrics.csv": "043f54f6138e3d78054250a23d0b3d52e40d0fdac729663a64650ab3603e28cb",
            "trace_lms.csv": "60c01007f86aa520c35c7214a815b0b9c139ceac08de4d44d974a249f03cc864",
            "trace_svs.csv": "f4de4d0d842ad88b6419aab08e3243a226864d4914a34e3d48a78e2eedae6b6f",
            "trace_atlms.csv": "85ae943224b96e5f8617ada409f7da99f83379dafa22188dc871386a59526cea",
            "trace_convex.csv": "808cc686caed6229bee629709011dbcc373a36ecf8b4d5402a2fdd898f557c6e",
        },
        "location-field": {
            "metrics.csv": "74b6504b80e104b5abe94264a0e2d4406905de99903b36111946e8ca0947fa06",
            "trace_lms.csv": "3d35c797d35c4019b84c42058c26eac4dd8c463d38132b447fe51cf342c3ef87",
            "trace_svs.csv": "fadc1222ca06ef5d81138365e7490ab66c76c248d6d6ebd92d76c46b17551126",
            "trace_atlms.csv": "af65326d421b5a337ef4a25965896900861e4d9953f8347477bf411ad7a2dc7b",
            "trace_convex.csv": "e50f80a02996444ae4fcc31ae5f0222d6a77c179f953997f63f88f2861a16b03",
        },
    }

    # the shipped presets at their shipped seed, Gaussian disturbance on
    PRESETS = {
        "table7-up": {
            "metrics.csv": "90085c18034903c92b968de792a3735b34bcfb69c861ede5025180ff83fa88f4",
            "trace_lms.csv": "0283290548c50eb39d8ad1423feac5d0c904b5abfb64ddd6dcf47ab4eadf1775",
            "trace_svs.csv": "5f8a02b24edc97586999b7deef045bd9399ad5f16e087afaeba816416444db63",
            "trace_atlms.csv": "be03c15d144b53dd25b8d69fbd01a19984276fe0e056e58e5888b99894b92a34",
            "trace_convex.csv": "d96ba3d13d31c09e2e27b4031187de6f699caaaeff5b7e0ab833034da8dacfda",
        },
        "table7-down": {
            "metrics.csv": "800deb670719cbf5a525422c4b8997ad8bf33ebd60abe9ddcd2cd8c05e36ffbd",
            "trace_lms.csv": "b534448058ce694b1de794ebcba457504dd185db0a64b484c36861da325596b1",
            "trace_svs.csv": "aee57cf48a2200d253b76d0b2ee5e80471f0ad64df45626c82eb420ffbf290dd",
            "trace_atlms.csv": "cf6f7bc5cb153fc86787b6c5e3259cdcb7c7280926bc1cda2dd925ecd5f16abb",
            "trace_convex.csv": "c0d4aea3103190ef836c8c831d634e536fcc43bf8d21eb9c78664979e21bd351",
        },
        "location-field": {
            "metrics.csv": "5555d326b908bf85a2fc07bb7e36b68a0844a1d385afd8ef6ed9197aa7ebdaf0",
            "trace_lms.csv": "0acb8534f72ea2d013e1564b7d97ec62fd954f4bcf3c34a1da2da3276f255118",
            "trace_svs.csv": "50d24aa2c3761f828b1c5cb5459af2c3b48f156192d40afda8b7166fef7e6707",
            "trace_atlms.csv": "6ff3505461b57387b2fb8943580ef8210477661913a4f3c2c82432a6518bf01c",
            "trace_convex.csv": "3e14eb2785f0ec9183ef21745d13b7eb75f4416f770a38c33094724517121d46",
        },
    }

    # per-method `--sensor-log` files of the table7-up sigma-0 run, captured
    # from single-method runs of the per-reading loop
    SIGMA0_SENSOR_LOG = {
        "lms": "0e6c29975df19eb522e7282d2aa5ac78f2f07d69b58807e33b2bcdbe615e3a09",
        "svs": "6ee0d2c7757ac7cc4e580df1db3ab3ba51357e6002870c7a6b1868d3ee249118",
        "atlms": "30d61289c3e7d4fa8f29d048167132e556f912ba810258e12ca328f82c5e9b52",
        "convex": "71ca4eff87c24b46e5e64c6e7c353e2fcf9cb3336b667d4e4be00b4ba4bc7490",
    }

    @pytest.mark.parametrize("preset", list(SIGMA0))
    def test_sigma0_outputs_match_per_reading_loop(self, tmp_path, preset):
        cfg = noiseless_ambient_config(tmp_path, preset)
        out = tmp_path / "out"
        argv = ["step", "--config", str(cfg), "--method", "all", "--seed", "5", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert {p.name: sha256(p) for p in out.iterdir()} == self.SIGMA0[preset]

    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_preset_outputs(self, tmp_path, preset):
        argv = ["step", "--preset", preset, "--method", "all", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert {p.name: sha256(p) for p in tmp_path.iterdir()} == self.PRESETS[preset]

    def test_sensor_log_one_file_per_method(self, tmp_path):
        cfg = noiseless_ambient_config(tmp_path, "table7-up")
        out = tmp_path / "out"
        argv = ["step", "--config", str(cfg), "--method", "all", "--seed", "5",
                "--sensor-log", "sensor.csv", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert not (out / "sensor.csv").exists()
        logs = {m: sha256(out / f"sensor_{m}.csv") for m in METHODS}
        assert logs == self.SIGMA0_SENSOR_LOG

    def test_sensor_log_single_method_keeps_its_name(self, tmp_path):
        cfg = noiseless_ambient_config(tmp_path, "table7-up")
        argv = ["step", "--config", str(cfg), "--method", "convex", "--seed", "5",
                "--sensor-log", "sensor.csv", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert sha256(tmp_path / "sensor.csv") == self.SIGMA0_SENSOR_LOG["convex"]


def linked_to_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def cpu_features() -> dict:
    """numpy's CPU features, each True when its dispatch is on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        return {}
    return __cpu_features__


class TestSysidGoldens:
    # captured from the runs whose trials draw from SeedSequence(seed,
    # spawn_key=(t, k)) child streams and whose targets and runners add the
    # taps in plain order; no BLAS call lies on the path, so the digests
    # hold on any CPU
    GOLDENS = {
        "table4-30db": {
            "metrics.csv": "7dbcb410f00f1517b6133663a0e6c18e3ec95cc20a87ef928da4dddfd50f76df",
            "mse_curve.csv": "7969116ce247148714c3ac4e9c11475bcb14ab94dd65115d48124b9fc446f55a",
        },
        "table4-10db": {
            "metrics.csv": "141615caef24800ff2ba04c2cb63cf7f27d7a0b8579d10d1bbf0b003e8ce79ff",
            "mse_curve.csv": "94890d2b19c305d455a0582b343d85a2e122c78e2eb740be44bb314755efa7fc",
        },
        "table4-10db --methods lms,convex": {
            "metrics.csv": "d8885553222bee8bb1678cae0849448b42d76293244e8468650c6fb3e8a84b22",
            "mse_curve.csv": "19603885a18b2ca97e249bd0f56b89f3c0f6808d0845c2644b91d2aea88f54a5",
        },
    }

    @pytest.mark.parametrize("args", list(GOLDENS))
    def test_outputs(self, tmp_path, args):
        argv = ["sysid", "--preset", *args.split(), "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert {p.name: sha256(p) for p in tmp_path.iterdir()} == self.GOLDENS[args]

    @pytest.mark.skipif(not linked_to_openblas(), reason="numpy is not linked to OpenBLAS")
    def test_outputs_under_another_blas_kernel(self, tmp_path):
        # Prescott is OpenBLAS's SSE3 kernel set, with no FMA
        run_child("-m", "coilsim.cli", "sysid", "--preset", "table4-30db", "--out-dir", str(tmp_path),
                  env={"OPENBLAS_CORETYPE": "Prescott"}, check=True, timeout=300)
        assert {p.name: sha256(p) for p in tmp_path.iterdir()} == self.GOLDENS["table4-30db"]

    @pytest.mark.skipif(not cpu_features().get("X86_V4"), reason="numpy dispatches no X86_V4 kernels here")
    def test_outputs_under_another_simd_dispatch(self, tmp_path):
        # exp and arctan take numpy's SIMD kernels, whose bits follow the
        # dispatch; with X86_V4 off they run the AVX2 ones
        code = ("import sys; from numpy._core._multiarray_umath import __cpu_features__ as f; "
                "print(f['AVX512_SKX']); from coilsim.cli import main; sys.exit(main(sys.argv[1:]))")
        done = run_child("-c", code, "sysid", "--preset", "table4-30db", "--out-dir", str(tmp_path),
                         env={"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, timeout=300)
        assert done.returncode == EXIT_OK, done.stderr.decode()
        assert done.stdout.startswith(b"False\n")
        assert {p.name: sha256(p) for p in tmp_path.iterdir()} == self.GOLDENS["table4-30db"]


@pytest.mark.parametrize("method, key", [("lms", "mu"), ("svs", "beta"), ("atlms", "beta"), ("convex", "c")])
def test_sysid_diverged_filter_exits_2_and_names_it(tmp_path, capsys, method, key):
    # a finite rate far beyond any stable one: sysid wrote final_mse = nan
    # and exited 0
    cfg = edited_preset("table4-30db", f"method.{method}", key, "1e300")(tmp_path)
    cfg.write_text(cfg.read_text().replace("trials = 200\n", "trials = 4\n"))
    out = tmp_path / "out"
    argv = ["sysid", "--config", str(cfg), "--methods", method, "--out-dir", str(out)]
    assert main([*argv, "--validate-only"]) == EXIT_OK
    assert main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {method}: non-finite mean-square error; the filter diverged\n"
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new-out-dir", "existing-out-dir"])
def test_step_failure_names_the_method_and_removes_its_files(tmp_path, capsys, existing):
    # svs runs and writes its trace and sensor log before lms diverges: step
    # left them behind, and its message did not say which method failed
    cfg = edited_preset("table7-up", "method.lms", "mu", "1e300")(tmp_path)
    out = tmp_path / "out" / "deeper"
    if existing:
        out.mkdir(parents=True)
        (out / "other.txt").write_text("kept")
    log = tmp_path / "log.csv"  # an absolute path, outside --out-dir
    argv = ["step", "--config", str(cfg), "--method", "svs,lms", "--out-dir", str(out), "--sensor-log", str(log)]
    assert main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: lms: non-finite input sample nan\n"
    assert not (tmp_path / "log_svs.csv").exists()
    if existing:
        assert list(out.iterdir()) == [out / "other.txt"]
    else:
        assert not (tmp_path / "out").exists()


def test_step_failed_write_removes_finished_files_and_keeps_the_target(tmp_path, capsys, monkeypatch):
    # the disk fills while lms's trace is written, after svs's is finished:
    # step truncated that trace, then deleted it with svs's
    out = tmp_path / "out"
    out.mkdir()
    (out / "trace_lms.csv").write_text("kept\n")
    rows, calls = _table._rows, []

    def full_in_the_second_file(columns):
        # a table7-up trace is under WRITE_ROWS rows: one call per file
        calls.append(len(columns[0]))
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return rows(columns)

    monkeypatch.setattr(_table, "_rows", full_in_the_second_file)
    argv = ["step", "--preset", "table7-up", "--method", "svs,lms", "--out-dir", str(out)]
    assert main(argv) == EXIT_USAGE
    assert len(calls) == 2 and calls[0] < _table.WRITE_ROWS
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert list(out.iterdir()) == [out / "trace_lms.csv"]
    assert (out / "trace_lms.csv").read_text() == "kept\n"


def test_sysid_failed_write_removes_the_files_it_finished(tmp_path, capsys):
    # mse_curve.csv names a directory, so its write fails after metrics.csv
    # is finished: sysid exited 1 and left the new metrics.csv behind
    cfg = SHORT_SYSID(tmp_path)
    out = tmp_path / "out"
    (out / "mse_curve.csv").mkdir(parents=True)
    assert main(["sysid", "--config", str(cfg), "--methods", "lms,convex", "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.EISDIR}] ") and err.count("\n") == 1
    assert list(out.iterdir()) == [out / "mse_curve.csv"]
    assert list((out / "mse_curve.csv").iterdir()) == []


def test_optimize_failed_csv_removes_the_directories_it_made(tmp_path, capsys):
    # an --csv naming a directory: optimize exited 1 and left the new
    # --out-dir behind
    target = tmp_path / "target"
    target.mkdir()
    argv = ["optimize", "--side-mm", "700", "--csv", str(target), "--out-dir", str(tmp_path / "new" / "deeper")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.EISDIR}] ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_sigterm_removes_the_parts_and_the_directories_made(tmp_path):
    # a field map ended by SIGTERM left field_map.csv.part.part and the new
    # --out-dir behind, and the command exited -15
    cfg = tmp_path / "grid121.cfg"
    cfg.write_text(GRID21.replace(",21\n", ",121\n"))  # 1.77 million points: seconds of writing
    out = tmp_path / "new" / "deeper"
    child = subprocess.Popen([sys.executable, "-m", "coilsim.cli", "field-map", "--config", str(cfg),
                              "--out-dir", str(out)], env=child_env(ONE_THREAD),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob("*.part")):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        child.kill()
        _, err = child.communicate()
    assert b"Traceback" not in err, err.decode()
    assert list(tmp_path.iterdir()) == [cfg]


def test_failed_step_rerun_keeps_the_previous_run(tmp_path, capsys):
    # svs writes its trace before lms diverges: the rerun left the previous
    # metrics.csv and trace_lms.csv, and removed trace_svs.csv
    out = tmp_path / "q"
    assert main(["step", "--preset", "table7-up", "--method", "svs,lms", "--out-dir", str(out)]) == EXIT_OK
    before = {p.name: sha256(p) for p in out.iterdir()}
    assert sorted(before) == ["metrics.csv", "trace_lms.csv", "trace_svs.csv"]
    cfg = edited_preset("table7-up", "method.lms", "mu", "1e300")(tmp_path)
    capsys.readouterr()
    assert main(["step", "--config", str(cfg), "--method", "svs,lms", "--out-dir", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: lms: non-finite input sample nan\n"
    assert {p.name: sha256(p) for p in out.iterdir()} == before


def test_failed_sysid_rerun_keeps_the_previous_run(tmp_path, capsys):
    # mse_curve.csv made a directory after a good run: the rerun exited 1
    # and removed the good metrics.csv
    cfg = SHORT_SYSID(tmp_path)
    out = tmp_path / "q"
    argv = ["sysid", "--config", str(cfg), "--methods", "lms,convex", "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    metrics = sha256(out / "metrics.csv")
    (out / "mse_curve.csv").unlink()
    (out / "mse_curve.csv").mkdir()
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "mse_curve.csv"]
    assert sha256(out / "metrics.csv") == metrics
    assert list((out / "mse_curve.csv").iterdir()) == []
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out / 'mse_curve.csv'}'\n"


# step options that put two of its outputs on one path, as (options, the
# path named); each replaced one output with the other and exited 0
ONE_PATH = {
    "diag-csv-on-the-trace": (["--method", "convex", "--diag-csv", "trace.csv"], "trace.csv"),
    "sensor-log-on-the-metrics": (["--method", "lms", "--sensor-log", "metrics.csv"], "metrics.csv"),
    "sensor-logs-on-the-traces": (["--method", "lms,svs", "--sensor-log", "trace.csv"], "trace_lms.csv"),
    "absolute-sensor-log-on-the-metrics": (["--method", "lms", "--sensor-log", "{cwd}/out/metrics.csv"],
                                           "metrics.csv"),
}


@pytest.mark.parametrize("case", list(ONE_PATH))
def test_two_outputs_on_one_path_exit_1_and_publish_nothing(tmp_path, capsys, monkeypatch, case):
    options, name = ONE_PATH[case]
    monkeypatch.chdir(tmp_path)
    argv = ["step", "--preset", "table7-up", *(o.format(cwd=tmp_path) for o in options), "--out-dir", "out"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: two outputs of one command on one path: out/{name}\n"
    assert list(tmp_path.iterdir()) == []


def test_two_outputs_on_one_path_exit_before_any_run(tmp_path, capsys, monkeypatch):
    # every method ran, and its files were staged, before the last one,
    # metrics.csv, met the diagnostics on its path
    calls = []
    monkeypatch.setattr(cli.experiments, "run_step_response", lambda scn: calls.append(scn))
    argv = ["step", "--preset", "location-field", "--method", "all", "--diag-csv", "metrics.csv",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"config error: two outputs of one command on one path: {tmp_path / 'out' / 'metrics.csv'}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_sysid_output_on_a_directory_exits_before_the_run(tmp_path, capsys, monkeypatch):
    # the directory was found only once every trial had run
    calls = []
    monkeypatch.setattr(cli.experiments, "run_sysid", lambda *args: calls.append(args))
    (tmp_path / "mse_curve.csv").mkdir()
    assert main(["sysid", "--preset", "table4-30db", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EISDIR}] ")
    assert calls == []


# commands whose output names no run can use, as (argv, the output made a
# directory first or None); each printed "config OK" under --validate-only
# and exited 0
BAD_NAMES = {
    "step-diag-csv-on-the-metrics": (["step", "--preset", "location-field", "--method", "convex",
                                      "--diag-csv", "metrics.csv"], None),
    "sysid-metrics-on-a-directory": (["sysid", "--preset", "table4-30db"], "metrics.csv"),
    "field-map-on-a-directory": (["field-map", "--preset", "table2"], "field_map.csv"),
}


@pytest.mark.parametrize("case", list(BAD_NAMES))
def test_validate_only_checks_output_names(tmp_path, capsys, monkeypatch, case):
    argv, directory = BAD_NAMES[case]
    monkeypatch.chdir(tmp_path)
    if directory:
        (tmp_path / "out" / directory).mkdir(parents=True)
    argv = [*argv, "--out-dir", "out"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert main([*argv, "--validate-only"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", err)
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == (
        ["out", f"out/{directory}"] if directory else [])


@pytest.mark.parametrize("argv", [
    ["field-map", "--preset", "table2"],
    ["sysid", "--preset", "table4-30db"],
    ["step", "--preset", "location-field", "--method", "all", "--diag-csv", "diag.csv", "--sensor-log", "log.csv"],
    ["check", "--preset", "table4-30db"],
], ids=lambda argv: argv[0])
def test_validate_only_makes_nothing(tmp_path, capsys, argv):
    assert main([*argv, "--out-dir", str(tmp_path / "a" / "out"), "--validate-only"]) == EXIT_OK
    assert capsys.readouterr().out == "config OK\n"
    assert list(tmp_path.iterdir()) == []


def test_sysid_out_of_memory_exits_2(tmp_path):
    # n_iters = STEP_MAX: the four methods' per-step sums of e^2 alone are
    # 320 MB, more than the address space the child is capped to
    cfg = edited_preset("table4-30db", "sysid", "n_iters", str(STEP_MAX))(tmp_path)
    out = tmp_path / "out"
    done = run_child("-m", "coilsim.cli", "sysid", "--config", str(cfg), "--out-dir", str(out),
                     env=ONE_THREAD, preexec_fn=address_space_cap(256 << 20), timeout=120)
    assert done.returncode == EXIT_RUNTIME, done.stderr.decode()
    assert done.stderr.startswith(b"error: out of memory: ")
    assert b"Traceback" not in done.stderr
    assert not out.exists()


def test_sysid_signals_beyond_the_memory_cap_run(tmp_path):
    # one chunk of TRIAL_CHUNK trials over 40,000 steps: 655 MB of signals
    # were the run to hold them whole, 2.5 times the child's address space
    cfg = edited_preset("table4-30db", "sysid", "n_iters", "40000")(tmp_path)
    cfg.write_text(cfg.read_text().replace("trials = 200\n", f"trials = {TRIAL_CHUNK}\n"))
    assert 16 * TRIAL_CHUNK * 40000 >= 2 * (256 << 20)
    out = tmp_path / "out"
    done = run_child("-m", "coilsim.cli", "sysid", "--config", str(cfg), "--methods", "lms", "--out-dir", str(out),
                     env=ONE_THREAD, preexec_fn=address_space_cap(256 << 20), timeout=120)
    assert done.returncode == EXIT_OK, done.stderr.decode()
    with open(out / "mse_curve.csv", newline="") as fh:
        assert sum(1 for _ in fh) == 1 + 40000


def test_sysid_methods_run_together_as_if_alone(tmp_path):
    # the methods step in one loop; each column is that of the all-method run
    curves = {}
    for methods in ("convex,lms", "all"):
        out = tmp_path / methods
        argv = ["sysid", "--preset", "table4-30db", "--methods", methods, "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        with open(out / "mse_curve.csv", newline="") as fh:
            curves[methods] = list(zip(*csv.reader(fh)))  # the file's columns
    columns = {col[0]: col for col in curves["all"]}
    assert [col[0] for col in curves["convex,lms"]] == ["iter", "mse_convex", "mse_lms"]
    for col in curves["convex,lms"]:
        assert col == columns[col[0]]


def test_convex_init_weights_start_only_convex(tmp_path):
    # [method.convex] init_weights = 0,0 moves the convex run, and leaves lms
    # on StepScenario's default (0.8, 0.5), which the preset also gives convex
    cfg = edited_preset("table7-up", "method.convex", "init_weights", "0,0")(tmp_path)
    metrics = {}
    for name, source in (("preset", ["--preset", "table7-up"]), ("edited", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main(["step", *source, "--method", "lms,convex", "--out-dir", str(out)]) == EXIT_OK
        with open(out / "metrics.csv", newline="") as fh:
            metrics[name] = {row[0]: row for row in csv.reader(fh)}
    assert metrics["edited"]["lms"] == metrics["preset"]["lms"]
    assert metrics["edited"]["convex"] != metrics["preset"]["convex"]


def test_convex_diagnostics_csv(tmp_path):
    # captured from the csv.writer-based writer the shared row writer replaced
    argv = ["step", "--preset", "table7-up", "--method", "convex", "--diag-csv", "diag.csv",
            "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert sha256(tmp_path / "diag.csv") == (
        "10becef6626055b292f8ec01c9ad05a6c546ebc5d3ceafeb7e65c935698eefce"
    )


def test_step_trace_header_and_rows(tmp_path):
    # the trace is columns of the step record, one row per step; the sensor
    # log and the diagnostics are checked in test_plant and test_control
    argv = ["step", "--preset", "table7-up", "--method", "convex", "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    record = run_step_response(load_preset("table7-up").step_scenario("convex")).columns
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t_s,target_nT,measured_nT,control_V"
    assert len(lines) == 1 + len(record["t_s"])
    last = ",".join(repr(float(record[k][-1])) for k in lines[0].split(","))
    assert lines[-1] == last


@pytest.mark.parametrize("closed", ["after-one-line", "before-any-line"])
def test_closed_stdout_exits_0_after_writing_every_file(tmp_path, closed):
    # `coilsim step ... | head -1`: every file is written before the first
    # line is printed, and the broken pipe ends the command quietly.
    # Unbuffered, the second print meets the closed pipe; buffered, the
    # flush at the end of main does.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "coilsim.cli", "step", "--preset", "table7-up", "--out-dir", str(tmp_path)]
    if closed == "after-one-line":
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"lms ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        rc = proc.wait(timeout=120)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        rc, err = done.returncode, done.stderr
    assert (rc, err) == (EXIT_OK, b"")
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == TestStepGoldens.PRESETS["table7-up"]


def edited_preset(preset, section, key, value=None):
    """A writer of the preset's config with `key` deleted from [section],
    or set to `value` when one is given."""
    def write(tmp_path):
        lines = resources.files("coilsim").joinpath("presets", f"{preset}.cfg").read_text().splitlines(True)
        start = lines.index(f"[{section}]\n")
        i = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} = "))
        lines[i:i + 1] = [] if value is None else [f"{key} = {value}\n"]
        cfg = tmp_path / f"{preset}-{key}.cfg"
        cfg.write_text("".join(lines))
        return cfg
    return write


def config_text(text, preset=None):
    """A writer of `text`, after the preset's config when one is named."""
    def write(tmp_path):
        base = resources.files("coilsim").joinpath("presets", f"{preset}.cfg").read_text() if preset else ""
        cfg = tmp_path / "case.cfg"
        cfg.write_text(base + text)
        return cfg
    return write


META = "[meta]\nschema_version = 1\n"
MINIMAL_STEP = META + "[step]\nprofile = step_up\nlevel_nt = 120000\n[method.lms]\nmu = 0.05\n"
# a sensor model fixes the rate, so an explicit one would be ignored
SENSOR_MODEL_WITH_RATE = config_text(MINIMAL_STEP + "[sensor]\nmodel = rm3100\nsample_rate_hz = 10\n")

# a sysid run shorter than the MSE curve's smoothing window (20 steps)
SHORT_SYSID = config_text(META + "[sysid]\nsnr_db = 30\nn_iters = 10\nreinjection_at = 5\ntrials = 4\n"
                          "[method.lms]\nmu = 0.005\n[method.convex]\nalpha = 500\nbeta = 0.01\n")

# (argv with {cfg} and {out} placeholders, config writer or None, exit code)
EXIT_CODES = {
    "presets": (["presets"], None, EXIT_OK),
    "check-passes": (["check", "--preset", "table4-30db", "--strict"], None, EXIT_OK),
    "unknown-preset": (["field-map", "--preset", "no-such-preset", "--out-dir", "{out}"], None, EXIT_USAGE),
    # [location] was parsed but never read, and is no longer a section
    "unknown-section": (["step", "--config", "{cfg}", "--out-dir", "{out}"],
                        config_text("[location]\nby_nt = 21290.2\n", "table7-up"), EXIT_USAGE),
    "unknown-key": (["field-map", "--config", "{cfg}", "--out-dir", "{out}"],
                    config_text(META + "[coil]\nradius_mm = 400\n"), EXIT_USAGE),
    "bad-value": (["field-map", "--config", "{cfg}", "--out-dir", "{out}"],
                  config_text(META + "[coil]\nside_mm = wide\n"), EXIT_USAGE),
    # a [coil] or [grid] value the pair or grid rejects exited 2 with a bare
    # error; a side_mm alone takes the optimal spacing, which rejects it first
    **{f"field-map-{name}": (["field-map", "--config", "{cfg}", "--out-dir", "{out}"],
                             edited_preset("table2", section, key, value), EXIT_USAGE)
       for name, section, key, value in (("coil-side-negative", "coil", "side_mm", "-5"),
                                         ("coil-turns-0", "coil", "turns", "0"),
                                         ("coil-current-inf", "coil", "current_a", "inf"),
                                         ("coil-spacing-0", "coil", "spacing_mm", "0"),
                                         ("grid-axis-count-0", "grid", "z_mm", "-300,300,0"),
                                         # a center field below 1e-15 T passed --validate-only,
                                         # then exited 2
                                         ("coil-current-0", "coil", "current_a", "0"),
                                         ("coil-current-subnormal", "coil", "current_a", "5e-324"),
                                         ("coil-side-1e300", "coil", "side_mm", "1e300"),
                                         # beyond the float range: an OverflowError traceback
                                         ("coil-turns-1e400", "coil", "turns", str(10**400)),
                                         # exited 2 with numpy's "Maximum allowed size exceeded";
                                         # beyond GRID_MAX_POINTS
                                         ("grid-axis-count-1e30", "grid", "z_mm", f"-300,300,{10**30}"))},
    "field-map-coil-side-negative-optimal-spacing": (
        ["field-map", "--config", "{cfg}", "--out-dir", "{out}"],
        config_text(META + "[coil]\nside_mm = -5\n[grid]\nx_mm = 0,0,1\ny_mm = 0,0,1\nz_mm = 0,0,1\n"),
        EXIT_USAGE),
    "missing-schema-version": (["field-map", "--config", "{cfg}", "--out-dir", "{out}"],
                               config_text("[coil]\nside_mm = 840.4\n"), EXIT_USAGE),
    "wrong-schema-version": (["field-map", "--config", "{cfg}", "--out-dir", "{out}"],
                             config_text("[meta]\nschema_version = 2\n"), EXIT_USAGE),
    "missing-method-section": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                               config_text(META + "[step]\nprofile = step_up\nlevel_nt = 120000\n"),
                               EXIT_USAGE),
    "missing-method-key": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                           edited_preset("table7-up", "method.lms", "mu"), EXIT_USAGE),
    # values ConvexParams rejects are config errors, not runtime failures
    "convex-beta-0-sysid": (["sysid", "--config", "{cfg}", "--methods", "convex", "--out-dir", "{out}"],
                            edited_preset("table4-30db", "method.convex", "beta", "0"), EXIT_USAGE),
    "convex-beta-0-check": (["check", "--config", "{cfg}", "--out-dir", "{out}"],
                            edited_preset("table4-30db", "method.convex", "beta", "0"), EXIT_USAGE),
    "convex-beta-0-step": (["step", "--config", "{cfg}", "--method", "all", "--out-dir", "{out}"],
                           edited_preset("table7-up", "method.convex", "beta", "0"), EXIT_USAGE),
    # NaN used to pass, and check then printed a VIOLATION verdict on it
    **{f"check-convex-{key}-nan": (["check", "--config", "{cfg}", "--out-dir", "{out}"],
                                   edited_preset("table4-30db", "method.convex", key, "nan"), EXIT_USAGE)
       for key in ("beta", "phi", "c")},
    # values the scenario checks reject are config errors naming the section
    "sysid-trials-0": (["sysid", "--config", "{cfg}", "--out-dir", "{out}"],
                       edited_preset("table4-30db", "sysid", "trials", "0"), EXIT_USAGE),
    # ran without end: the trials' memory is bounded, their time is not
    "sysid-trials-1e30": (["sysid", "--config", "{cfg}", "--out-dir", "{out}"],
                          edited_preset("table4-30db", "sysid", "trials", str(10**30)), EXIT_USAGE),
    "sysid-order-0": (["sysid", "--config", "{cfg}", "--out-dir", "{out}"],
                      edited_preset("table4-30db", "sysid", "order", "0"), EXIT_USAGE),
    "sysid-reinjection-negative": (["sysid", "--config", "{cfg}", "--out-dir", "{out}"],
                                   edited_preset("table4-30db", "sysid", "reinjection_at", "-20"), EXIT_USAGE),
    # a seed keys numpy's SeedSequence, which takes no negative entropy
    "sysid-seed-negative": (["sysid", "--config", "{cfg}", "--out-dir", "{out}"],
                            edited_preset("table4-30db", "sysid", "seed", "-1"), EXIT_USAGE),
    "step-seed-negative": (["step", "--preset", "table7-up", "--seed", "-3", "--out-dir", "{out}"],
                           None, EXIT_USAGE),
    "step-duration-at-settle": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                                edited_preset("table7-up", "step", "duration_s", "1.5"), EXIT_USAGE),
    "unknown-method": (["sysid", "--preset", "table4-30db", "--methods", "bogus", "--out-dir", "{out}"],
                       None, EXIT_USAGE),
    # a method list must name at least one method, each once
    "step-no-method": (["step", "--preset", "table7-up", "--method", ",", "--out-dir", "{out}"],
                       None, EXIT_USAGE),
    "sysid-no-method": (["sysid", "--preset", "table4-30db", "--methods", ",", "--out-dir", "{out}"],
                        None, EXIT_USAGE),
    "step-method-twice": (["step", "--preset", "table7-up", "--method", "lms,lms", "--out-dir", "{out}"],
                          None, EXIT_USAGE),
    # only a convex run has diagnostics to write
    "step-diag-csv-without-convex": (["step", "--preset", "table7-up", "--method", "lms",
                                      "--diag-csv", "d.csv", "--out-dir", "{out}"], None, EXIT_USAGE),
    "zero-side": (["optimize", "--side-mm", "0", "--out-dir", "{out}"], None, EXIT_USAGE),
    # a side outside SIDE_MM: NaN and inf exited 2, 1e-320 ended in a
    # ZeroDivisionError traceback, and the rest exited 0 (1e300 with a zero
    # curvature); 1e300 with --csv is test_optimize_csv_under_a_memory_cap
    **{f"optimize-side-{name}": (["optimize", "--side-mm", value, "--out-dir", "{out}"], None, EXIT_USAGE)
       for name, value in (("nan", "nan"), ("inf", "inf"), ("1e-320", "1e-320"), ("1e300", "1e300"),
                           ("below-range", "0.0009"), ("above-range", "100001"))},
    "no-config-source": (["sysid", "--out-dir", "{out}"], None, EXIT_USAGE),
    "check-violation": (["check", "--preset", "table4-30db", "--strict", "--c-scale", "100"],
                        None, EXIT_RUNTIME),
    "check-beta-scale-0": (["check", "--preset", "table4-30db", "--beta-scale", "0", "--out-dir", "{out}"],
                           None, EXIT_USAGE),
    "check-c-scale-nan": (["check", "--preset", "table4-30db", "--c-scale", "nan", "--out-dir", "{out}"],
                          None, EXIT_USAGE),
    # a finite scale whose product overflowed exited 2 with a bare error
    "check-beta-scale-overflow": (["check", "--config", "{cfg}", "--beta-scale", "1e308", "--out-dir", "{out}"],
                                  edited_preset("table4-30db", "method.convex", "beta", "2"), EXIT_USAGE),
    "step-sensor-model-with-rate": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                                    SENSOR_MODEL_WITH_RATE, EXIT_USAGE),
    "sysid-shorter-than-smoothing-window": (["sysid", "--config", "{cfg}", "--methods", "lms,convex",
                                             "--out-dir", "{out}"], SHORT_SYSID, EXIT_OK),
    # a run length that is not finite, or leaves no steady sample, used to
    # end in an OverflowError, an IndexError or exit 2
    **{f"step-{name}": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                        edited_preset("table7-up", "step", key, value), EXIT_USAGE)
       for name, key, value in (("duration-inf", "duration_s", "inf"), ("duration-nan", "duration_s", "nan"),
                                ("switch-time-inf", "switch_time_s", "inf"))},
    "step-sample-rate-tiny": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                              config_text(MINIMAL_STEP + "[sensor]\nsample_rate_hz = 1e-9\n"), EXIT_USAGE),
    "step-sample-count-overflows": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                                    config_text(MINIMAL_STEP.replace("[method", "duration_s = 1e300\n[method")
                                                + "[sensor]\nsample_rate_hz = 1e300\n"), EXIT_USAGE),
    "sysid-snr-minus-inf": (["sysid", "--config", "{cfg}", "--out-dir", "{out}"],
                            edited_preset("table4-30db", "sysid", "snr_db", "-inf"), EXIT_USAGE),
    # NaN used to switch a noise term off, and a negative or infinite value
    # to exit 2
    **{f"step-{section}-{short}-{name}": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                                         config_text(MINIMAL_STEP + f"[{section}]\n{key} = {value}\n"), EXIT_USAGE)
       for section, key, short in (("sensor", "noise_sigma_nt", "sigma"), ("disturbance", "gaussian_sigma_nt", "sigma"),
                                   ("sensor", "quantization_step_nt", "quantization"))
       for name, value in (("nan", "nan"), ("negative", "-1"), ("inf", "inf"))},
    "step-v-max-nan": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                       edited_preset("table7-up", "plant", "v_max_v", "nan"), EXIT_USAGE),
    # the loop runs two taps: a wrong count exited 2 from a per-step length
    # check, and a NaN weight from the per-step non-finite check
    **{f"step-convex-init-weights-{name}": (["step", "--config", "{cfg}", "--method", "convex", "--out-dir", "{out}"],
                                            edited_preset("table7-up", "method.convex", "init_weights", value),
                                            EXIT_USAGE)
       for name, value in (("three", "0.8,0.5,0.1"), ("one", "0.8"), ("nan", "nan,0.5"))},
    # non-finite config values that passed --validate-only, then exited 2
    # from the loop's non-finite check, or exited 0 on a NaN or zero band,
    # a negative settling time or an infinite control unit
    **{f"step-{name}": (["step", "--config", "{cfg}", "--method", method, "--out-dir", "{out}"],
                        edited_preset("table7-up", section, key, value), EXIT_USAGE)
       for name, method, section, key, value in (
           ("lms-mu-nan", "lms", "method.lms", "mu", "nan"),
           ("svs-alpha-nan", "svs", "method.svs", "alpha", "nan"),
           ("atlms-beta-nan", "atlms", "method.atlms", "beta", "nan"),
           ("convex-alpha-nan", "convex", "method.convex", "alpha", "nan"),
           ("level-nan", "lms", "step", "level_nt", "nan"),
           # exited 0 with rmse=inf and an overflow warning
           ("level-1e308", "lms", "step", "level_nt", "1e308"),
           ("level-beyond-bound", "lms", "step", "level_nt", "-2e9"),
           ("band-fraction-nan", "lms", "step", "band_fraction", "nan"),
           ("band-fraction-0", "lms", "step", "band_fraction", "0"),
           ("settle-time-negative", "lms", "step", "settle_time_s", "-1"),
           ("ctrl-unit-inf", "lms", "step", "ctrl_unit_nt", "inf"),
       )},
    **{f"step-{name}": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                        config_text(MINIMAL_STEP + f"[disturbance]\n{line}\n"), EXIT_USAGE)
       for name, line in (("dc-offset-nan", "dc_offset_nt = nan"), ("ac-phase-nan", "ac_components = 500:0.5:nan"),
                          ("ac-amplitude-inf", "ac_components = inf:0.5:0"),
                          ("ac-frequency-inf", "ac_components = 500:inf:0"))},
    # sysid wrote final_mse = nan and exited 0; at 1e300 it exited 2, naming
    # a filter that had not diverged
    **{f"sysid-true-weights-{name}": (["sysid", "--config", "{cfg}", "--out-dir", "{out}"],
                                      edited_preset("table4-30db", "sysid", "true_weights", value), EXIT_USAGE)
       for name, value in (("nan", "nan,0.5"), ("inf", "inf,0.5"), ("1e300", "1e300,0.5"))},
    **{f"sysid-{name}": (["sysid", "--config", "{cfg}", "--methods", method, "--out-dir", "{out}"],
                         edited_preset("table4-30db", f"method.{method}", key, "nan"), EXIT_USAGE)
       for name, method, key in (("lms-mu-nan", "lms", "mu"), ("svs-beta-nan", "svs", "beta"),
                                 ("atlms-n-scale-nan", "atlms", "n_scale"))},
    # rates no run can use passed --validate-only, then exited 2 from the
    # loop's non-finite check
    **{f"step-{method}-{key}-{name}": (["step", "--config", "{cfg}", "--method", method, "--out-dir", "{out}"],
                                       edited_preset("table7-up", f"method.{method}", key, value), EXIT_USAGE)
       for method, key, name, value in (("lms", "mu", "negative", "-1"), ("svs", "alpha", "negative", "-1"),
                                        ("atlms", "alpha", "negative", "-1"), ("atlms", "beta", "negative", "-1"),
                                        ("atlms", "m", "0", "0"), ("convex", "beta", "inf", "inf"),
                                        ("convex", "c", "inf", "inf"))},
    # runs longer than STEP_MAX steps passed --validate-only, then ended in a
    # MemoryError traceback
    **{f"step-{name}-1e9": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                            edited_preset("table7-up", "step", key, "1e9"), EXIT_USAGE)
       for name, key in (("duration", "duration_s"), ("switch-time", "switch_time_s"))},
    "sysid-n-iters-1e9": (["sysid", "--config", "{cfg}", "--methods", "lms", "--out-dir", "{out}"],
                          edited_preset("table4-30db", "sysid", "n_iters", "1000000000"), EXIT_USAGE),
    # disturbances beyond LEVEL_MAX_NT passed --validate-only, then exited 2
    **{f"step-{name}-1e300": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{out}"],
                              config_text(MINIMAL_STEP + f"[disturbance]\n{line}\n"), EXIT_USAGE)
       for name, line in (("dc-offset", "dc_offset_nt = 1e300"), ("gaussian-sigma", "gaussian_sigma_nt = 1e300"),
                          ("ac-amplitude", "ac_components = 1e300:0.5:0"))},
}
# commands that take --validate-only; it runs the command's own checks, not
# only the schema's, so every case of theirs that exits 1 exits 1 with the
# flag too
VALIDATING = ("field-map", "sysid", "step", "check")
EXIT_CODES.update({
    f"{argv[0]}-validate-only-{name.removeprefix(argv[0] + '-')}": ([*argv, "--validate-only"], cfg, code)
    for name, (argv, cfg, code) in list(EXIT_CODES.items()) if code == EXIT_USAGE and argv[0] in VALIDATING
})


@pytest.mark.parametrize("case", list(EXIT_CODES))
def test_exit_code_contract(tmp_path, case):
    argv, write_cfg, code = EXIT_CODES[case]
    cfg = write_cfg(tmp_path) if write_cfg else None
    out = tmp_path / "out"
    assert main([a.format(cfg=cfg, out=out) for a in argv]) == code
    if code != EXIT_OK:
        assert not out.exists()
    elif case == "sysid-shorter-than-smoothing-window":
        with open(out / "mse_curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "mse_lms", "mse_convex"] and len(rows) == 1 + 10


# paths the OS refuses, as (argv with {cfg}, {file} and {out} placeholders,
# config writer or None, errno); each ended in a traceback, and an --out-dir
# that names a file or lies under one passed --validate-only
UNUSABLE_PATHS = {
    "field-map-out-dir-is-a-file": (["field-map", "--preset", "table2", "--out-dir", "{file}"],
                                    None, errno.EEXIST),
    "step-out-dir-is-a-file": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{file}"],
                               config_text(MINIMAL_STEP), errno.EEXIST),
    "sysid-out-dir-is-a-file": (["sysid", "--config", "{cfg}", "--methods", "lms", "--out-dir", "{file}"],
                                SHORT_SYSID, errno.EEXIST),
    "step-out-dir-under-a-file": (["step", "--config", "{cfg}", "--method", "lms", "--out-dir", "{file}/sub"],
                                  config_text(MINIMAL_STEP), errno.ENOTDIR),
    "optimize-csv-under-a-file": (["optimize", "--side-mm", "840.4", "--csv", "{file}/u.csv", "--out-dir", "{out}"],
                                  None, errno.ENOTDIR),
    "config-is-a-directory": (["field-map", "--config", "{out}", "--out-dir", "{out}"],
                              None, errno.EISDIR),
}
UNUSABLE_PATHS.update({
    f"{argv[0]}-validate-only-{name.removeprefix(argv[0] + '-')}": ([*argv, "--validate-only"], cfg, code)
    for name, (argv, cfg, code) in list(UNUSABLE_PATHS.items()) if argv[0] in VALIDATING
})


@pytest.mark.parametrize("case", list(UNUSABLE_PATHS))
def test_unusable_path_exits_1_with_one_line(tmp_path, capsys, case):
    argv, write_cfg, code = UNUSABLE_PATHS[case]
    cfg = write_cfg(tmp_path) if write_cfg else None
    file = tmp_path / "file"
    file.write_text("kept\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main([a.format(cfg=cfg, file=file, out=out) for a in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {code}] {os.strerror(code)}") and err.count("\n") == 1
    assert file.read_text() == "kept\n"


def test_output_in_a_symlink_loop_exits_1_with_one_line(tmp_path, capsys):
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    argv = ["step", "--preset", "table7-up", "--method", "lms", "--sensor-log", str(tmp_path / "a" / "log.csv"),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


@pytest.mark.parametrize(
    "argv, preset, section, key",
    [
        (["step", "--method", "lms"], "table7-up", "method.lms", "mu"),
        (["sysid", "--methods", "svs"], "table4-30db", "method.svs", "beta"),
        (["sysid", "--methods", "convex"], "table4-30db", "method.convex", "beta"),
    ],
    ids=["step-lms-mu", "sysid-svs-beta", "sysid-convex-beta"],
)
def test_missing_method_key_exits_1_and_names_it(tmp_path, capsys, argv, preset, section, key):
    cfg = edited_preset(preset, section, key)(tmp_path)
    assert main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"missing required [{section}] {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, preset, section, key, value, message",
    [
        (["sysid"], "table4-30db", "sysid", "trials", "0", "trials must be >= 1"),
        (["sysid"], "table4-30db", "sysid", "reinjection_at", "-20", "reinjection_at must be >= 0"),
        (["step", "--method", "lms"], "table7-up", "step", "duration_s", "1.0",
         "duration_s must exceed settle_time_s"),
        (["sysid"], "table4-30db", "sysid", "seed", "-1", "seed must be >= 0"),
        (["step", "--method", "lms"], "table7-up", "step", "seed", "-1", "seed must be >= 0"),
        (["step", "--method", "lms"], "table7-up", "step", "duration_s", "inf",
         "switch_time_s, duration_s and sample_rate_hz must be finite"),
        (["sysid"], "table4-30db", "sysid", "snr_db", "-inf", "snr_db must be finite"),
        (["step", "--method", "lms"], "table7-up", "disturbance", "gaussian_sigma_nt", "nan",
         "gaussian_sigma_nt must be >= 0"),
        (["step", "--method", "lms"], "table7-up", "plant", "v_max_v", "nan",
         "v_min_v and v_max_v must be finite, with v_min_v < v_max_v"),
        (["step", "--method", "convex"], "table7-up", "method.convex", "init_weights", "0.8",
         "init_weights must be two finite values"),
        (["sysid", "--methods", "lms"], "table4-30db", "method.lms", "mu", "nan", "mu must be finite"),
        (["field-map"], "table2", "coil", "turns", "0", "turns must be a positive integer"),
        (["field-map"], "table2", "grid", "z_mm", "-300,300,0", "z axis count must be >= 1"),
        (["step", "--method", "lms"], "table7-up", "method.lms", "mu", "-1", "mu must be finite and >= 0"),
        (["step", "--method", "lms"], "table7-up", "step", "duration_s", "1e9",
         "switch_time_s, duration_s and sample_rate_hz must be finite, as must the run's sample count, "
         "which must be <= STEP_MAX = 10000000"),
        (["sysid"], "table4-30db", "sysid", "n_iters", "1000000000",
         "n_iters must exceed reinjection_at and be <= STEP_MAX = 10000000"),
        (["sysid"], "table4-30db", "sysid", "true_weights", "0.8,-1e300",
         "true_weights must be finite and within +/-1e+100"),
    ],
    ids=["sysid-trials", "sysid-reinjection", "step-duration", "sysid-seed", "step-seed", "step-duration-inf",
         "sysid-snr-minus-inf", "disturbance-gaussian-sigma-nan", "plant-v-max-nan", "convex-init-weights",
         "lms-mu-nan", "coil-turns-0", "grid-axis-count-0", "lms-mu-negative", "step-duration-1e9",
         "sysid-n-iters-1e9", "sysid-true-weights-1e300"],
)
def test_scenario_value_error_exits_1_and_names_the_section(tmp_path, capsys, argv, preset, section, key,
                                                              value, message):
    cfg = edited_preset(preset, section, key, value)(tmp_path)
    assert main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"[{section}] {message}" in capsys.readouterr().err


def preset_text(name):
    return resources.files("coilsim").joinpath("presets", f"{name}.cfg").read_text()


# the commands that read each section (method for [method.*]), and the
# config each runs on; a sensor model would reject the sensor's own keys
READERS = {"coil": ["field-map"], "grid": ["field-map"], "sysid": ["sysid"], "plant": ["step"], "sensor": ["step"],
           "disturbance": ["step"], "step": ["step"], "method": ["step", "sysid"]}
READER_CONFIGS = {"field-map": preset_text("table2"), "sysid": preset_text("table4-30db"),
                  "step": preset_text("table7-up").replace("model = hmc5883l\n", "")}
FLOAT_KEYS = [(command, section, key) for section, keys in SCHEMA.items() for key, parse in keys.items()
              if parse is float for command in READERS[section.partition(".")[0]]]


@pytest.mark.parametrize("command, section, key", FLOAT_KEYS, ids=["-".join(case) for case in FLOAT_KEYS])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_float_key_exits_1_with_one_line(tmp_path, capsys, command, section, key, value):
    # [method.convex] phi = inf and [plant] v_min_v = -inf or v_max_v = inf
    # passed --validate-only, and their runs exited 0
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(READER_CONFIGS[command])
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    cfg = tmp_path / "case.cfg"
    with open(cfg, "w") as fh:
        parser.write(fh)
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    for flags in ([], ["--validate-only"]):
        assert main([*argv, *flags]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
        assert f"[{section}] " in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, exit_2", [
    ("field-map", ["[grid] point on a wire"]),
    ("sysid", ["[method.*] rate whose filter diverges", "n_iters or order"]),
    ("step", ["[method.*] rate whose filter diverges", "x_scale_nt or ctrl_unit_nt", "duration_s",
              "[sensor] sample_rate_hz"]),
    ("check", ["under --strict"]),
])
def test_help_names_the_values_that_exit_2(capsys, command, exit_2):
    assert main([command, "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    epilog = text[text.index("Exit status: "):]
    assert epilog.startswith("Exit status: 0 on success; 2 from a run ")
    assert epilog.endswith("; 1 on any other bad option, config value or path, under --validate-only too.")
    assert all(words in epilog for words in exit_2), epilog


@pytest.mark.parametrize("key", ["beta", "c"])
def test_check_scale_beyond_the_float_range_exits_1_and_names_it(tmp_path, capsys, key):
    cfg = edited_preset("table4-30db", "method.convex", key, "2")(tmp_path)
    for flags in ([], ["--validate-only"]):
        assert main(["check", "--config", str(cfg), f"--{key}-scale", "1e308", *flags]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: --{key}-scale 1e+308: {key} must be finite and > 0\n")


# every preset with [method.convex] -> its slow (beta/phi) and fast (c) rates
CHECK_RATES = {"location-field": ("0.500000", "1.200000"), "table4-0-30db": ("0.100000", "0.060000"),
               "table4-10db": ("1.500000", "0.100000"), "table4-30db": ("0.100000", "0.060000"),
               "table7-down": ("0.500000", "1.200000"), "table7-up": ("0.500000", "1.200000")}


def test_check_covers_every_convex_preset():
    assert {p for p in preset_names() if load_preset(p).has_section("method.convex")} == set(CHECK_RATES)


@pytest.mark.parametrize("preset", list(CHECK_RATES))
def test_check_output(capsys, preset):
    # white unit-variance input has R = I: lambda_max is exactly 1, where a
    # sampled estimate read 1.0196 or 1.0227
    slow, fast = CHECK_RATES[preset]
    assert main(["check", "--preset", preset, "--strict"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "lambda_max            : 1.000000\n"
        "rate bound 2/lambda   : 2.000000\n"
        f"slow-branch rate      : {slow}  [ok]\n"
        f"fast-branch rate (c)  : {fast}  [ok]\n"
        "overall               : pass\n"
    )


@pytest.mark.parametrize("preset, section", [("table4-30db", "sysid"), ("table7-up", "step")])
def test_check_output_does_not_depend_on_the_seed(tmp_path, capsys, preset, section):
    outputs = []
    for seed in ("1", "2"):
        cfg = edited_preset(preset, section, "seed", seed)(tmp_path)
        assert main(["check", "--config", str(cfg)]) == EXIT_OK
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]


def test_check_strict_phi_0_exits_2_with_an_unbounded_slow_rate(tmp_path, capsys):
    cfg = edited_preset("table4-30db", "method.convex", "phi", "0")(tmp_path)
    assert main(["check", "--config", str(cfg), "--strict"]) == EXIT_RUNTIME
    out = capsys.readouterr().out
    assert "slow-branch rate      : inf  [VIOLATION]\n" in out
    assert "overall               : FAIL\n" in out


def test_parser_built_once_across_commands(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    assert main(["presets"]) == EXIT_OK
    assert main(["optimize", "--side-mm", "100", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert main(["check", "--preset", "table4-30db"]) == EXIT_OK
    assert main(["step", "--preset", "table7-up", "--seed", "5", "--validate-only"]) == EXIT_OK
    assert main(["sysid", "--preset", "table4-30db", "--validate-only"]) == EXIT_OK
    assert main(["bogus"]) == EXIT_USAGE
    assert len(built) == 1
    # one parse leaves nothing behind for the next
    parser = cli._parser()
    assert parser.parse_args(["step", "--preset", "table7-up", "--seed", "5"]).seed == 5
    assert parser.parse_args(["step", "--preset", "table7-up"]).seed is None


# -- every key of SCHEMA at its edge values ------------------------------------

# the edge values of a key, or of one value of a list, an axis or AC
# components: NaN, +-inf, 0, -1, the least subnormal, a huge float and a
# huge integer, beyond the float range
EDGES = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e300", str(10**400))
HUGE = EDGES[-2:]
# a key's value where the preset sets none, by the name of its parser
ABSENT = {"float": "1", "int": "1", "str": "x", "_floats": "0.8,0.5", "_axis": "0,0,1",
          "_ac_components": "500:0.5:0"}
# the commands that read each section (method for [method.*])
EDGE_READERS = {**READERS, "meta": ["field-map", "sysid", "step", "check"], "method": ["step", "sysid", "check"]}
# the presets each command runs, by the section it needs
PRESETS_OF = {command: [p for p in preset_names() if section in preset_text(p).splitlines()]
              for command, section in (("field-map", "[grid]"), ("sysid", "[sysid]"), ("step", "[step]"),
                                       ("check", "[method.convex]"))}
# the keys that size a run, as does an axis's count: their huge values run
# in a child whose memory is capped (test_huge_run_size_exits_1_or_out_of_memory)
SIZE_KEYS = {("sysid", "trials"), ("sysid", "n_iters"), ("sysid", "order"), ("step", "duration_s"),
             ("step", "switch_time_s"), ("sensor", "sample_rate_hz")}
OUTPUTS = {"field-map": ["field_map.csv"], "sysid": ["metrics.csv", "mse_curve.csv"],
           "step": ["metrics.csv", "trace_lms.csv"], "check": []}
# --diag-csv and --sensor-log names: their own, another output's (a sensor
# log trace.csv writes trace_lms.csv among others) and "taken", which a case
# makes a directory
STEP_NAMES = ("diag.csv", "log.csv", "metrics.csv", "trace.csv", "trace_lms.csv", "taken")
# the messages of the only exits 2 a config value may give
EXIT_2_MESSAGES = ("non-finite", "diverged", "out of memory")


def edge_case(preset, section, key, sizes):
    """A parser of the preset's config with the run sizes of its sections
    set, and the values of its [section] key split from their separators
    (',' and ':') into every other token.  An edited [sensor] key takes out
    the sensor's model, which would reject it, and takes a sample rate."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(preset_text(preset))
    if not parser.has_section(section):
        parser.add_section(section)
    if section == "sensor" and key != "model":
        parser.remove_option("sensor", "model")
    for (sec, name), size in sizes.items():
        if parser.has_section(sec) and not parser.has_option(sec, "model"):
            parser[sec][name] = size
    raw = parser[section].get(key, ABSENT[getattr(SCHEMA[section][key], "__name__", "")])
    return parser, re.split(r"([,:])", raw)


def assert_finite_outputs(out):
    """Every number in the CSVs of `out` is finite, but a NaN reach time."""
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            for row in rows:
                for name, cell in zip(header, row):
                    with suppress(ValueError):
                        value = float(cell)
                        assert math.isfinite(value) or (name == "reach_target_time_s" and math.isnan(value)), (
                            path.name, name, cell)


@pytest.mark.filterwarnings("ignore::coilsim.experiments.ActuatorSaturationWarning")
@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items() for k in keys],
                         ids=lambda v: v)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_edge_value_fails_only_as_documented(tmp_path_factory, section, key, data):
    # one value of one key at an edge, in a preset the command runs: no
    # traceback; exit 2 only with a message of EXIT_2_MESSAGES;
    # --validate-only exits 1 just when the run does; an exit 0 writes
    # finite numbers, but a NaN reach time
    command = data.draw(st.sampled_from(EDGE_READERS[section.partition(".")[0]]), label="command")
    preset = data.draw(st.sampled_from(PRESETS_OF[command]), label="preset")
    n_iters = data.draw(st.integers(22, 64), label="n_iters")
    sizes = {("sysid", "trials"): str(data.draw(st.integers(1, 3), label="trials")),
             ("sysid", "n_iters"): str(n_iters), ("sysid", "reinjection_at"): str(n_iters // 2),
             ("step", "duration_s"): repr(data.draw(st.floats(1.6, 3.0), label="duration_s")),
             ("sensor", "sample_rate_hz"): repr(data.draw(st.floats(10.0, 200.0), label="sample_rate_hz"))}
    parser, tokens = edge_case(preset, section, key, sizes)
    i = 2 * data.draw(st.integers(0, len(tokens) // 2), label="value index")
    sizes_a_run = (section, key) in SIZE_KEYS or (section == "grid" and i == 4)
    tokens[i] = data.draw(st.sampled_from(EDGES[:-len(HUGE)] if sizes_a_run else EDGES), label="value")
    parser[section][key] = "".join(tokens)
    argv = [command]
    if command == "step":
        for option in ("--diag-csv", "--sensor-log"):
            name = data.draw(st.none() | st.sampled_from(STEP_NAMES), label=option)
            argv += [option, name] if name else []
    taken = data.draw(st.none() | st.sampled_from(["taken", *OUTPUTS[command]]), label="taken")

    case = tmp_path_factory.mktemp("edge")
    with open(case / "case.cfg", "w") as fh:
        parser.write(fh)
    out = case / "out"
    if taken:
        (out / taken).mkdir(parents=True)
    argv += ["--config", str(case / "case.cfg"), "--out-dir", str(out)]
    codes = []
    for flags in (["--validate-only"], []):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            codes.append(main([*argv, *flags]))
        assert "Traceback" not in err.getvalue()
    validated, code = codes
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RUNTIME) and validated in (EXIT_OK, EXIT_USAGE)
    assert (validated == EXIT_USAGE) == (code == EXIT_USAGE), err.getvalue()
    if code == EXIT_RUNTIME:
        assert any(message in err.getvalue() for message in EXIT_2_MESSAGES), err.getvalue()
    if code == EXIT_OK:
        assert_finite_outputs(out)


# (command, preset, section, key, value) for each key that sizes a run,
# at its huge value
HUGE_SIZES = [
    *(("sysid", "table4-30db", "sysid", key, HUGE[1]) for key in ("trials", "n_iters", "order")),
    *(("step", "table7-up", "step", key, HUGE[0]) for key in ("duration_s", "switch_time_s")),
    ("step", "table7-up", "sensor", "sample_rate_hz", HUGE[0]),
    ("field-map", "table2", "grid", "z_mm", f"-300,300,{HUGE[1]}"),
]


@pytest.mark.parametrize("command, preset, section, key, value", HUGE_SIZES,
                         ids=[f"{section}-{key}" for _, _, section, key, _ in HUGE_SIZES])
def test_huge_run_size_exits_1_or_out_of_memory(tmp_path, command, preset, section, key, value):
    # a run too large to finish exits 1, or 2 once it runs out of memory,
    # without a traceback; --validate-only exits 1 whenever the run does
    parser, _ = edge_case(preset, section, key, {})
    parser[section][key] = value
    with open(tmp_path / "case.cfg", "w") as fh:
        parser.write(fh)
    argv = [command, "--config", str(tmp_path / "case.cfg"), "--out-dir", str(tmp_path / "out")]
    code = ("import sys; from coilsim.cli import main; argv = sys.argv[1:]; "
            "print(main([*argv, '--validate-only']), main(argv), flush=True)")
    done = run_child("-c", code, *argv, env=ONE_THREAD, preexec_fn=address_space_cap(256 << 20), timeout=120)
    assert b"Traceback" not in done.stderr, done.stderr.decode()
    validated, run = map(int, done.stdout.split()[-2:])
    assert run in (EXIT_USAGE, EXIT_RUNTIME)
    assert (validated == EXIT_USAGE) == (run == EXIT_USAGE)
    if run == EXIT_RUNTIME:
        assert b"error: out of memory: " in done.stderr
    assert not (tmp_path / "out").exists()


def test_grid_beyond_the_point_bound_exits_1_at_once(tmp_path):
    # 10^18 points passed both checks, and the run then streamed without end
    cfg = tmp_path / "case.cfg"
    cfg.write_text(GRID21.split("[grid]")[0] + "[grid]\n" + "".join(f"{a}_mm = -100,100,1000000\n" for a in "xyz"))
    argv = ["field-map", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    code = ("import sys; from coilsim.cli import main; argv = sys.argv[1:]; "
            "print(main([*argv, '--validate-only']), main(argv), flush=True)")
    done = run_child("-c", code, *argv, env=ONE_THREAD, timeout=30)
    assert done.stdout.split() == [b"1", b"1"]
    message = (f"config error: {cfg}: [grid] grid has 1000000 x 1000000 x 1000000 points; "
               "a field map takes at most GRID_MAX_POINTS = 100,000,000")
    assert done.stderr.decode().splitlines() == [message, message]
    assert not (tmp_path / "out").exists()
