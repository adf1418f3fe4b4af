import csv
import hashlib

import pytest

from coilsim.cli import EXIT_OK, EXIT_RUNTIME, main


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_optimize_csv(self, tmp_path):
        argv = ["optimize", "--side-mm", "840.4", "--csv", "u.csv", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert sha256(tmp_path / "u.csv") == (
            "07b92766c4ac878abea2fbdecfadb9cda5983dd937844a9434f64087460efcb0"
        )

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

    @pytest.mark.parametrize("side_mm", ["inf", "nan"])
    def test_nonfinite_side_exits_2(self, tmp_path, capsys, side_mm):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[meta]\nschema_version = 1\n"
            f"[coil]\nside_mm = {side_mm}\nspacing_mm = 457.6\nturns = 24\ncurrent_a = 2.94\n"
            "[grid]\nx_mm = 0,0,1\ny_mm = 0,0,1\nz_mm = 0,0,1\n"
        )
        rc = main(["field-map", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        assert "side must be finite" in capsys.readouterr().err
        assert not (tmp_path / "field_map.csv").exists()


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
