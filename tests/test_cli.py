import os
import re
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsync import (AxisBox, Ball, InputRange, LinearObservation, OrbitConstants, PowerSine,
                   certify, cli, contraction, observe_trajectory, psi_iterate_gs, write_gs_csv)
from gsync.cli import main, section_iv_config
from gsync import config
from gsync import gs as gs_module
from gsync.config import _KEYS, parse_config_text
from gsync.dynsys import DiscreteSystem
from gsync.errors import ConfigError

from conftest import gs_columns

SMALL_LORENZ = """
system.kind = lorenz
system.initial = 0 1 1.05
system.n_steps = 60
observation.kind = projection
observation.indices = 0
"""

SMALL_IV = """
system.kind = lorenz
system.initial = 0 1 1.05
observation.indices = 0
statemap.kind = power_sine
statemap.alpha = 0.9
statemap.lambda = 0.009
statemap.k = 0.1
region.1.kind = box
region.1.lo = 0.9 0.9 0.9
region.1.hi = 1.1 1.1 1.1
region.1.label = V1
run.washout = 400
run.record = 200
system.n_steps = 600
"""

TORUS = """
system.kind = torus_rotation
system.angles = 0.41421356 0.31662479
system.initial = 0.1 0.2
system.n_steps = 50
observation.indices = 0
"""

CAT_ESN = """
system.kind = cat_map
system.initial = 0.1234 0.5678
system.n_steps = 400
observation.indices = 0
statemap.kind = esn
statemap.A = {a} 0; 0 {a}
statemap.C = 0.1; 0.1
region.1.kind = box
region.1.lo = -1 -1
region.1.hi = 1 1
run.grid_resolution = 8
run.input_samples = 40
"""

# a depth-3 delay line driven by a torus rotation
TORUS_DELAY = """
system.kind = torus_rotation
system.angles = 0.41421356 0.31662479
system.initial = 0.1 0.2
system.n_steps = 200
observation.indices = 0
statemap.kind = linear_delay
statemap.q = 1
region.1.kind = box
region.1.lo = -1 -1 -1
region.1.hi = 1 1 1
run.grid_resolution = 4
run.input_samples = 20
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_data_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


# every accessor once, keys in an order unlike the resolved one, no system.n_steps
EVERY_ACCESSOR = """
run.psi_record_from = 20
system.kind = lorenz
system.literal_sign = yes
system.initial = 0.1 1 1.05
system.beta = 2.5
system.h = 0.005
system.substeps = 4
region.2.label = inner
region.2.radius = 0.5
region.2.center = 0 0 0
region.2.kind = ball
region.1.hi = 1 1 1
region.1.lo = -1 -1 -1
statemap.squashing = logistic
statemap.zeta = 0.01 0 -0.01
statemap.C = 0.1; 0.2; 0.3
statemap.A = csv:A.csv
statemap.kind = esn
observation.matrix = 1 0.5 0
observation.kind = linear
run.forgetting_k = 3 1
run.tol = 1e-9
run.seed = 7
run.record = 50
run.washout = 100
"""

RESOLVED_SECTION_IV = """# resolved run configuration (reproduces this run)
system.kind = lorenz
system.h = 0.01
system.substeps = 8
system.sigma = 10
system.rho = 28
system.beta = 2.6666666666666665
system.literal_sign = false
system.initial = 0 1 1.05
observation.kind = projection
observation.indices = 0
statemap.kind = power_sine
statemap.alpha = 0.90000000000000002
statemap.lambda = 0.0089999999999999993
statemap.k = 0.10000000000000001
region.1.kind = box
region.1.lo = 0.90000000000000002 0.90000000000000002 0.90000000000000002
region.1.hi = 1.1000000000000001 1.1000000000000001 1.1000000000000001
region.1.label = V1
region.2.kind = box
region.2.lo = -1.1000000000000001 0.90000000000000002 0.90000000000000002
region.2.hi = -0.90000000000000002 1.1000000000000001 1.1000000000000001
region.2.label = V2
system.n_steps = 4000
run.washout = 2000
run.record = 2000
run.method = drive
run.tol = 9.9999999999999998e-13
run.max_iters = 500
run.grid_resolution = 20
run.input_samples = 200
run.forgetting_k = 1 5 20 100 200
run.forgetting_trials = 100
run.pair_budget = 4000
run.seed = 0
"""

RESOLVED_EVERY_ACCESSOR = """# resolved run configuration (reproduces this run)
system.kind = lorenz
system.h = 0.0050000000000000001
system.substeps = 4
system.sigma = 10
system.rho = 28
system.beta = 2.5
system.literal_sign = true
system.initial = 0.10000000000000001 1 1.05
observation.kind = linear
observation.matrix = 1 0.5 0
statemap.kind = esn
statemap.A = 0.20000000000000001 0.10000000000000001 0; 0 0.29999999999999999 0.10000000000000001; 0.10000000000000001 0 0.25
statemap.C = 0.10000000000000001; 0.20000000000000001; 0.29999999999999999
statemap.squashing = logistic
statemap.zeta = 0.01 0 -0.01
region.1.kind = box
region.1.lo = -1 -1 -1
region.1.hi = 1 1 1
region.1.label = V1
region.2.kind = ball
region.2.center = 0 0 0
region.2.radius = 0.5
region.2.label = inner
system.n_steps = 150
run.washout = 100
run.record = 50
run.method = drive
run.tol = 1.0000000000000001e-09
run.max_iters = 500
run.grid_resolution = 20
run.input_samples = 200
run.forgetting_k = 3 1
run.forgetting_trials = 100
run.pair_budget = 4000
run.seed = 7
run.psi_record_from = 20
"""


class TestResolvedText:
    def test_section_iv_pinned(self):
        text = section_iv_config().resolved_text()
        assert text == RESOLVED_SECTION_IV
        assert parse_config_text(text).resolved_text() == text

    def test_every_accessor_pinned(self, tmp_path):
        A = np.array([[0.2, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.25]])
        np.savetxt(tmp_path / "A.csv", A, delimiter=",")
        text = parse_config_text(EVERY_ACCESSOR, base_dir=str(tmp_path)).resolved_text()
        assert text == RESOLVED_EVERY_ACCESSOR
        assert parse_config_text(text).resolved_text() == text


class TestSimulate:
    def test_row_count_and_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_LORENZ)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        header, rows = read_data_rows(os.path.join(out, "trajectory.csv"))
        assert header == ["t", "u", "v", "w", "obs"]
        assert len(rows) == 61
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(0.6)

    def test_two_rows_minimum(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_LORENZ.replace("n_steps = 60", "n_steps = 1"))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        _, rows = read_data_rows(os.path.join(out, "trajectory.csv"))
        assert len(rows) == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_LORENZ)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", cfg, "--out", out1, "--seed", "3"]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2, "--seed", "3"]) == 0
        b1 = Path(out1, "trajectory.csv").read_bytes()
        b2 = Path(out2, "trajectory.csv").read_bytes()
        assert b1 == b2

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_LORENZ)
        out1 = str(tmp_path / "a")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        resolved = os.path.join(out1, "resolved_config.cfg")
        out2 = str(tmp_path / "b")
        assert main(["simulate", "--config", resolved, "--out", out2]) == 0
        b1 = Path(out1, "trajectory.csv").read_bytes()
        b2 = Path(out2, "trajectory.csv").read_bytes()
        assert b1 == b2

    def test_literal_sign_distinct_from_butterfly(self, tmp_path):
        # the printed-form equations spiral outward and diverge, so a short
        # window is finite but a longer horizon fails numerically (exit 3)
        lit = SMALL_LORENZ + "system.literal_sign = true\n"
        cfg = write_cfg(tmp_path, lit.replace("n_steps = 60", "n_steps = 100"))
        out = str(tmp_path / "short")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        cfg_long = write_cfg(tmp_path, lit.replace("n_steps = 60", "n_steps = 2000"),
                             name="long.cfg")
        assert main(["simulate", "--config", cfg_long,
                     "--out", str(tmp_path / "long")]) == 3


class TestMatrixLoading:
    def test_statemap_matrix_from_csv(self, tmp_path):
        np.savetxt(tmp_path / "A.csv", 0.3 * np.eye(2), delimiter=",")
        np.savetxt(tmp_path / "C.csv", np.array([[0.1], [0.1]]), delimiter=",")
        text = CAT_ESN.format(a="0.3").replace(
            "statemap.A = 0.3 0; 0 0.3", "statemap.A = csv:A.csv").replace(
            "statemap.C = 0.1; 0.1", "statemap.C = csv:C.csv")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["certify", "--config", cfg, "--out", out, "--require", "diff"]) == 0
        # the resolved copy inlines the matrices and still reproduces the run
        resolved = Path(out, "resolved_config.cfg").read_text()
        assert "csv:" not in resolved

    def test_matrix_csv_is_read_as_utf8(self, tmp_path):
        # under -X warn_default_encoding, as CI runs the suite, a text-mode
        # read of the matrix file with the locale's encoding warns
        np.savetxt(tmp_path / "A.csv", 0.3 * np.eye(2), delimiter=",")
        text = CAT_ESN.format(a="0.3").replace(
            "statemap.A = 0.3 0; 0 0.3", "statemap.A = csv:A.csv")
        path = write_cfg(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EncodingWarning)
            cfg = config.parse_config(path)
        assert np.array_equal(cfg.statemap.A, 0.3 * np.eye(2))

    def test_missing_matrix_file_exit_2(self, tmp_path):
        text = CAT_ESN.format(a="0.3").replace(
            "statemap.A = 0.3 0; 0 0.3", "statemap.A = csv:missing.csv")
        cfg = write_cfg(tmp_path, text)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestConfigErrors:
    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_LORENZ + "system.bogus = 1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_line_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "system.kind lorenz\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_dimension_cross_validation_exit_2(self, tmp_path):
        bad = SMALL_IV.replace("region.1.lo = 0.9 0.9 0.9", "region.1.lo = 0.9 0.9")
        bad = bad.replace("region.1.hi = 1.1 1.1 1.1", "region.1.hi = 1.1 1.1")
        cfg = write_cfg(tmp_path, bad)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_grid_resolution_below_two_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_IV + "run.grid_resolution = 1\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("k", ["-3", "nan", "2.5", "1e308", "1.0"])
    def test_bad_forgetting_k_exit_2(self, tmp_path, k):
        cfg = write_cfg(tmp_path, SMALL_IV + f"run.forgetting_k = 1 {k}\n")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_run_too_large_for_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # forgetting_k = 1e11 once asked numpy for 7.28 TiB; stand in for that
        # allocation rather than attempt it
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "input_forgetting", too_large)
        cfg = write_cfg(tmp_path, SMALL_IV + "run.forgetting_k = 1 100000000000\n")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "MemoryError: Unable to allocate 7.28 TiB" in err

    @pytest.mark.parametrize("indices", ["0.7", "inf"])
    def test_non_integer_observation_index_exit_2(self, tmp_path, capsys, indices):
        text = SMALL_LORENZ.replace("observation.indices = 0", f"observation.indices = {indices}")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "observation.indices" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [
        ("synchronize", "run.max_iters = 0"),
        ("synchronize", "run.tol = nan"),
        ("synchronize", "run.tol = inf"),
        ("synchronize", "run.tol = -1"),
        ("synchronize", "run.tol = 0"),
        ("diagnose", "run.pair_budget = 0"),
        ("diagnose", "run.forgetting_trials = 0"),
        ("certify", "run.input_samples = 0"),
        ("synchronize", "run.psi_record_from = -5"),
        ("synchronize", "run.psi_record_from = 600"),
        ("synchronize", "run.psi_record_from = 100000"),
        ("diagnose", "run.seed = -1"),
    ])
    def test_bad_run_value_exit_2(self, tmp_path, capsys, command, line):
        cfg = write_cfg(tmp_path, SMALL_IV + line + "\n")
        out = tmp_path / "o"
        argv = [command, "--config", cfg, "--out", str(out)]
        assert main(argv + (["--method", "both"] if command == "synchronize" else [])) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

    # the drive records steps 50..150 of a 400-step orbit, psi from 300 on
    DISJOINT_WINDOWS = """
system.kind = torus_rotation
system.angles = 0.41421356237309503 0.16227766016837952
system.initial = 0.3 0.6
system.n_steps = 400
observation.indices = 0
statemap.kind = power_sine
statemap.alpha = 0.9
statemap.lambda = 0.009
statemap.k = 0.1
region.1.kind = box
region.1.lo = 0.9 0.9 0.9
region.1.hi = 1.1 1.1 1.1
run.washout = 50
run.record = 100
run.psi_record_from = 300
"""

    @pytest.mark.parametrize("method", ["drive", "psi", "both", None])
    def test_psi_window_past_the_drive_window_exit_2(self, tmp_path, capsys, method):
        # any method: --method both could compare the two windows
        out = tmp_path / "o"
        argv = ["synchronize", "--config", write_cfg(tmp_path, self.DISJOINT_WINDOWS),
                "--out", str(out)] + (["--method", method] if method else [])
        assert main(argv) == 2
        assert "run.psi_record_from must lie in [0, 150]" in capsys.readouterr().err
        assert not out.exists()

    def test_psi_window_meeting_the_drive_window_at_its_last_step(self, tmp_path):
        text = self.DISJOINT_WINDOWS.replace("run.psi_record_from = 300", "run.psi_record_from = 150")
        out = tmp_path / "o"
        assert main(["synchronize", "--config", write_cfg(tmp_path, text), "--out", str(out),
                     "--method", "both"]) == 0
        _, rows = read_data_rows(out / "gs_V1_psi.csv")
        assert rows[0][0] == "150"  # the drive's last recorded step
        assert (out / "agreement.csv").exists()

    @pytest.mark.parametrize("system, line", [
        ("lorenz", "system.initial = 0 nan 1.05"),
        ("lorenz", "system.initial = 0 1 inf"),
        ("torus", "system.angles = 0.1 nan"),
        ("torus", "system.angles = inf 0.3"),
        ("torus", "system.initial = 0.1 nan"),
    ])
    def test_non_finite_system_vector_exit_2(self, tmp_path, capsys, system, line):
        key = line.split(" = ")[0]
        base = {"lorenz": SMALL_LORENZ, "torus": TORUS}[system]
        text = "\n".join(line if l.startswith(key + " ") else l for l in base.splitlines())
        assert line in text.splitlines()
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert f"{key}: expected finite numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, prefix", [
        ("statemap.lambda = nan", "statemap"),
        ("statemap.k = inf", "statemap"),
        ("statemap.alpha = nan", "statemap"),
        ("region.1.hi = 1.1 1.1 inf", "region.1"),
        ("region.1.lo = nan 0.9 0.9", "region.1"),
    ])
    def test_non_finite_statemap_or_region_exit_2(self, tmp_path, capsys, line, prefix):
        key = line.split(" = ")[0]
        text = "\n".join(line if l.startswith(key + " ") else l for l in SMALL_IV.splitlines())
        assert line in text.splitlines()
        out = tmp_path / "o"
        argv = ["certify", "--config", write_cfg(tmp_path, text), "--out", str(out)]
        assert main(argv + ["--require", "esp"]) == 2
        assert f"configuration error: {prefix}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_ball_radius_exit_2(self, tmp_path, capsys):
        text = SMALL_IV + ("region.2.kind = ball\nregion.2.center = 1 -1 1\n"
                           "region.2.radius = inf\n")
        out = tmp_path / "o"
        assert main(["certify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert "configuration error: region.2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, line, command", [
        ("iv", "system.h = nan", "synchronize"),
        ("iv", "system.h = inf", "synchronize"),
        ("iv", "system.sigma = nan", "synchronize"),
        ("iv", "system.rho = inf", "synchronize"),
        ("iv", "system.beta = nan", "synchronize"),
        ("esn", "statemap.zeta = nan 0", "certify"),
        ("esn", "statemap.zeta = inf 0", "synchronize"),
        ("esn", "statemap.A = nan 0; 0 0.1", "certify"),
        ("esn_linear", "observation.matrix = nan 1", "synchronize"),
        ("esn_linear", "observation.matrix = nan 1", "certify"),
    ])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, base, line, command):
        text = {"iv": SMALL_IV, "esn": CAT_ESN.format(a="0.3"),
                "esn_linear": CAT_ESN.format(a="0.3").replace(
                    "observation.indices = 0",
                    "observation.kind = linear\nobservation.matrix = 1 0")}[base]
        key = line.split(" = ")[0]
        text = "\n".join([l for l in text.splitlines() if not l.startswith(key + " ")] + [line])
        out = tmp_path / "o"
        argv = [command, "--config", write_cfg(tmp_path, text + "\n"), "--out", str(out)]
        assert main(argv) == 2
        assert f"{key}: expected finite numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, base, lines", [
        ("diagnose", "iv", ["run.forgetting_k = ,"]),
        ("simulate", "lorenz", ["observation.indices = ,"]),
        ("simulate", "torus", ["system.angles = ,", "observation.indices = ,"]),
        ("simulate", "torus", ["system.initial = ,"]),
        ("simulate", "torus", ["region.1.kind = box", "region.1.lo = ,", "region.1.hi = ,"]),
        ("simulate", "torus", ["region.1.kind = box", "region.1.lo = 0 0", "region.1.hi = ,"]),
        ("certify", "esn", ["statemap.zeta = ,"]),
    ], ids=["forgetting_k", "indices", "angles_and_indices", "initial", "lo_and_hi", "hi",
            "zeta"])
    def test_empty_list_exit_2(self, tmp_path, capsys, command, base, lines):
        # an empty list would resolve to "key = ", a line that does not parse
        text = {"iv": SMALL_IV, "lorenz": SMALL_LORENZ, "torus": TORUS,
                "esn": CAT_ESN.format(a="0.3")}[base]
        keys = [l.split(" = ")[0] for l in lines]
        text = "\n".join([l for l in text.splitlines() if l.split(" = ")[0] not in keys] + lines)
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, text + "\n"), "--out", str(out)]) == 2
        key = keys[[l.endswith(",") for l in lines].index(True)]
        assert f"{key}: expected at least one number, got ','" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["diagnose", "--config", write_cfg(tmp_path, SMALL_IV), "--out", str(out)]
        assert main(argv + ["--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_ball_lost_against_its_center_exit_2(self, tmp_path, capsys):
        text = SMALL_IV + ("region.2.kind = ball\nregion.2.center = 1e308 1 1\n"
                           "region.2.radius = 0.2\n")
        out = tmp_path / "o"
        assert main(["certify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert "configuration error: region.2" in capsys.readouterr().err
        assert not out.exists()

    def test_synchronize_without_regions_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_LORENZ + "statemap.kind = linear_delay\nstatemap.q = 1\n")
        assert main(["synchronize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_config_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file")
        assert str(tmp_path) in err and "IsADirectoryError" in err
        assert not out.exists()

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(SMALL_LORENZ.encode() + b"# caf\xe9\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "UnicodeDecodeError" in err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
    def test_out_names_a_file_exit_2(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = str(taken / below) if below else str(taken)
        assert main(["simulate", "--config", write_cfg(tmp_path, SMALL_LORENZ),
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write output {out!r}")
        assert taken.read_text() == "keep\n"

    def test_unwritable_resolved_config_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "resolved_config.cfg").mkdir(parents=True)
        assert main(["simulate", "--config", write_cfg(tmp_path, SMALL_LORENZ),
                     "--out", str(out)]) == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("command, taken", [
        (["simulate"], "trajectory.csv"),
        (["certify"], "certificates.txt"),
        (["certify"], "certificates.csv"),
        (["synchronize"], "gs_V1_drive.csv"),
        (["synchronize", "--method", "both"], "agreement.csv"),
        (["diagnose"], "forgetting.csv"),
        (["reproduce", "--figure", "fig3"], "fig3.csv"),
    ])
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, command, taken):
        # a directory in the place of one output file that the command writes
        out = tmp_path / "o"
        (out / taken).mkdir(parents=True)
        cfg = [] if command[0] == "reproduce" else ["--config", write_cfg(tmp_path, SMALL_IV)]
        assert main([*command, *cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write output {str(out / taken)!r}")
        assert "IsADirectoryError" in err and "Traceback" not in err

    @pytest.mark.parametrize("label", ["a/b", "a\\b", "a,b", ".", ".."])
    def test_label_unfit_for_file_names_exit_2(self, tmp_path, capsys, label):
        text = SMALL_IV.replace("region.1.label = V1", f"region.1.label = {label}")
        out = tmp_path / "o"
        assert main(["synchronize", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert f"region.1.label: label {label!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("first, second, key", [
        ("V1", "region.2.label = V1", "region.2.label"),
        ("V2", "", "region.2.label"),  # the default label of region 2 is V2
    ], ids=["explicit", "default"])
    def test_repeated_label_exit_2(self, tmp_path, capsys, first, second, key):
        text = SMALL_IV.replace("region.1.label = V1", f"region.1.label = {first}")
        text += ("region.2.kind = box\nregion.2.lo = -1.1 0.9 0.9\n"
                 f"region.2.hi = -0.9 1.1 1.1\n{second}\n")
        out = tmp_path / "o"
        assert main(["synchronize", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert f"{key}: label {first!r} repeats the label of region.1" in capsys.readouterr().err
        assert not out.exists()


class TestCertify:
    def test_esn_03_require_diff_exit_0(self, tmp_path):
        cfg = write_cfg(tmp_path, CAT_ESN.format(a="0.3"))
        out = str(tmp_path / "out")
        assert main(["certify", "--config", cfg, "--out", out, "--require", "diff"]) == 0
        assert os.path.exists(os.path.join(out, "certificates.csv"))
        assert os.path.exists(os.path.join(out, "certificates.txt"))

    def test_esn_05_require_diff_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, CAT_ESN.format(a="0.5"))
        out = str(tmp_path / "out")
        assert main(["certify", "--config", cfg, "--out", out, "--require", "diff"]) == 4
        assert main(["certify", "--config", cfg, "--out", out, "--require", "esp"]) == 0

    def test_unit_norm_delay_require_esp_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, TORUS_DELAY)
        out = str(tmp_path / "out")
        assert main(["certify", "--config", cfg, "--out", out, "--require", "esp"]) == 4
        header, rows = read_data_rows(os.path.join(out, "certificates.csv"))
        esp_col = header.index("esp_ok")
        assert rows[0][esp_col] == "False"


    # a PowerSine box that reaches a coordinate plane: its derivative is unbounded
    @pytest.mark.parametrize("lo, hi", [("-0.1 -0.1 -0.1", "0.1 0.1 0.1"),
                                        ("0 0.9 0.9", "0.2 1.1 1.1")])
    def test_box_reaching_a_plane_same_certificate_at_every_resolution(self, tmp_path, lo, hi):
        text = (TestOneOrbit.SHORT_IV + f"region.2.kind = box\nregion.2.lo = {lo}\n"
                f"region.2.hi = {hi}\nregion.2.label = Z\n")
        written = []
        for resolution in (20, 21):  # the grid of an odd resolution holds 0
            cfg = write_cfg(tmp_path, text + f"run.grid_resolution = {resolution}\n")
            out = tmp_path / f"out{resolution}"
            assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
            written.append((out / "certificates.csv").read_bytes())
        assert written[0] == written[1]
        header, rows = read_data_rows(tmp_path / "out20" / "certificates.csv")
        cert = dict(zip(header, rows[1]))
        assert (cert["region"], cert["l_fx"], cert["l_fxx"]) == ("Z", "inf", "inf")
        assert (cert["esp_ok"], cert["diff_ok"]) == ("False", "False")
        assert "method: analytic" in (tmp_path / "out20" / "certificates.txt").read_text()

    def test_region_independent_constants_once_per_command(self, tmp_path, monkeypatch):
        # three regions on one orbit: one input range, one set of tangent and
        # D omega norms, and each certificate the one certify gives alone
        text = (TestOneOrbit.SHORT_IV + "region.2.kind = box\nregion.2.lo = -1.1 0.9 0.9\n"
                "region.2.hi = -0.9 1.1 1.1\nregion.2.label = V2\nregion.3.kind = ball\n"
                "region.3.center = 1 1 1\nregion.3.radius = 0.1\nregion.3.label = B\n")
        cfg_path = write_cfg(tmp_path, text)
        cfg = parse_config_text(text)
        traj = cfg.system.trajectory(cfg.initial, cfg.n_steps)
        alone = [certify(cfg.statemap, region,
                         OrbitConstants.of(cfg.system, cfg.observation, traj.points),
                         resolution=cfg.grid_resolution, n_inputs=cfg.input_samples,
                         rng=cfg.seed) for region in cfg.regions]
        calls = []
        for owner, name in ((contraction, "tangent_norm_bounds"),
                            (LinearObservation, "norm_bound"),
                            (contraction.InputRange, "from_observations")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, name=name, original=original:
                                calls.append(name) or original(*a))
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
        # the hull cli._orbit takes is the one the certificates use
        assert sorted(calls) == ["from_observations", "norm_bound", "tangent_norm_bounds"]
        assert (out / "certificates.txt").read_text() == "".join(
            cert.report_text() + "\n\n" for cert in alone)
        assert [line for line in (out / "certificates.csv").read_text().splitlines()
                if not line.startswith("#")][1:] == [cert.csv_row() for cert in alone]

    def test_ball_holding_a_zero_coordinate_is_unbounded(self, tmp_path):
        # a PowerSine ball takes the grid path; its center is a grid point
        text = (TestOneOrbit.SHORT_IV + "region.2.kind = ball\nregion.2.center = 0 0 0\n"
                "region.2.radius = 0.5\nregion.2.label = Z\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        header, rows = read_data_rows(out / "certificates.csv")
        cert = dict(zip(header, rows[1]))
        assert (cert["region"], cert["l_fx"], cert["l_fxx"]) == ("Z", "inf", "inf")
        assert (cert["esp_ok"], cert["diff_ok"]) == ("False", "False")


class TestSynchronize:
    def test_both_methods_agree(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_IV)
        out = str(tmp_path / "out")
        assert main(["synchronize", "--config", cfg, "--out", out,
                     "--method", "both"]) == 0
        drive_path = os.path.join(out, "gs_V1_drive.csv")
        psi_path = os.path.join(out, "gs_V1_psi.csv")
        assert os.path.exists(drive_path) and os.path.exists(psi_path)
        header, rows = read_data_rows(drive_path)
        f_cols = [header.index(c) for c in ("f1", "f2", "f3")]
        vals = np.array([[float(r[c]) for c in f_cols] for r in rows])
        assert np.all(vals >= 0.9 - 1e-12) and np.all(vals <= 1.1 + 1e-12)
        _, agree_rows = read_data_rows(os.path.join(out, "agreement.csv"))
        assert float(agree_rows[0][1]) <= 1e-8

    @pytest.mark.parametrize("method", ["drive", "both"])
    def test_second_region_escape_keeps_first_region_files(self, tmp_path, capsys, method):
        # the drive from (0.6, 0.6, 0.6) runs to the fixed point (1, 1, 1), out of its box
        text = SMALL_IV + ("region.2.kind = box\nregion.2.lo = 0.5 0.5 0.5\n"
                           "region.2.hi = 0.7 0.7 0.7\nregion.2.label = V2\n")
        out = tmp_path / "out"
        assert main(["synchronize", "--config", write_cfg(tmp_path, text), "--out", str(out),
                     "--method", method]) == 3
        captured = capsys.readouterr()
        written = {"drive": ["gs_V1_drive.csv"],
                   "both": ["gs_V1_drive.csv", "gs_V1_psi.csv"]}[method]
        assert sorted(os.listdir(out)) == sorted(written + ["resolved_config.cfg"])
        assert [l.split(":")[0] for l in captured.out.splitlines()] == \
            [f"synchronize[V1/{name[6:-4]}]" for name in written] + \
            (["synchronize[V1]"] if method == "both" else [])
        assert "numerical failure: RegionEscape" in captured.err and "'V2'" in captured.err

        # the first region's file is the one a run on that region alone writes
        alone = tmp_path / "alone"
        assert main(["synchronize", "--config", write_cfg(tmp_path, SMALL_IV, "alone.cfg"),
                     "--out", str(alone), "--method", method]) == 0
        assert (out / "gs_V1_drive.csv").read_bytes() == (alone / "gs_V1_drive.csv").read_bytes()

    def test_unconverged_psi_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_IV + "run.max_iters = 3\n")
        out = tmp_path / "out"
        assert main(["synchronize", "--config", cfg, "--out", str(out),
                     "--method", "both"]) == 3
        err = capsys.readouterr().err
        assert "NotConverged" in err and "V1" in err
        assert not (out / "gs_V1_psi.csv").exists()


# the torus rotation driving the power-sine map near each of its eight fixed points
EIGHT_BOX_TORUS = """
system.kind = torus_rotation
system.angles = 0.41421356237309503 0.16227766016837952
system.initial = 0.3 0.6
observation.indices = 0
statemap.kind = power_sine
statemap.alpha = 0.9
statemap.lambda = 0.009
statemap.k = 0.1
run.washout = 100
run.record = 300
""" + "".join(
    f"region.{n}.kind = box\n"
    f"region.{n}.lo = {' '.join('0.9' if c > 0 else '-1.1' for c in signs)}\n"
    f"region.{n}.hi = {' '.join('1.1' if c > 0 else '-0.9' for c in signs)}\n"
    for n, signs in enumerate([(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)],
                              start=1))
SECOND_BOX = "region.2.kind = box\nregion.2.lo = -1.1 0.9 0.9\nregion.2.hi = -0.9 1.1 1.1\n"
# the drive from (0.6, 0.6, 0.6) runs to the fixed point (1, 1, 1), out of its box
ESCAPING_BOX = "region.2.kind = box\nregion.2.lo = 0.5 0.5 0.5\nregion.2.hi = 0.7 0.7 0.7\n"


class TestSharedColumns:
    # config, exit code, files written: psi with its own rows
    # (psi_record_from != washout) shares no column with the drive
    CASES = {
        "eight_box_torus": (EIGHT_BOX_TORUS, 0, 16),
        "psi_own_rows": (SMALL_IV + SECOND_BOX + "run.psi_record_from = 300\n", 0, 4),
        "section_iv_time": (SMALL_IV + SECOND_BOX, 0, 4),
        "failing_region": (SMALL_IV + ESCAPING_BOX, 3, 2),
    }

    @pytest.fixture
    def formatted(self, monkeypatch):
        """The number of values handed to the formatter so far, in a list."""
        from gsync import _csvtext
        count, original = [0], _csvtext._block_fields

        def counting(x, *args):
            count[0] += len(x)
            return original(x, *args)

        monkeypatch.setattr(_csvtext, "_block_fields", counting)
        return count

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of every write_gs_csv call of the CLI."""
        calls, original = [], cli.write_gs_csv
        monkeypatch.setattr(cli, "write_gs_csv",
                            lambda gs, path, **kwargs: calls.append((gs, path, kwargs))
                            or original(gs, path, **kwargs))
        return calls

    @staticmethod
    def distinct_values(calls) -> int:
        """The rows times the distinct columns of the files written."""
        columns = set().union(*(gs_columns(gs, kwargs["time_scale"]) for gs, _, kwargs in calls))
        return sum(rows for _, rows, _ in columns)

    @pytest.mark.parametrize("case", CASES)
    def test_each_file_is_one_standalone_write(self, tmp_path, formatted, calls, case):
        text, code, n_files = self.CASES[case]
        out = tmp_path / "out"
        assert main(["synchronize", "--config", write_cfg(tmp_path, text), "--out", str(out),
                     "--method", "both"]) == code
        names = sorted(os.path.basename(path) for _, path, _ in calls)
        assert names == sorted(p.name for p in out.glob("gs_*.csv"))
        assert len(names) == n_files
        assert formatted[0] == self.distinct_values(calls)
        for gs, path, kwargs in calls:
            assert kwargs.pop("shared") is not None
            alone = tmp_path / "alone.csv"
            write_gs_csv(gs, str(alone), **kwargs)
            assert Path(path).read_bytes() == alone.read_bytes(), path
        if case == "section_iv_time":  # t = step * h
            _, rows = read_data_rows(out / "gs_V1_drive.csv")
            assert rows[1][0] == "4.0099999999999998"

    def test_each_command_renders_the_shared_columns_once(self, tmp_path, formatted, calls):
        cfg = write_cfg(tmp_path, EIGHT_BOX_TORUS)
        for n in (1, 2):
            formatted[0] = 0
            calls.clear()
            assert main(["synchronize", "--config", cfg, "--out", str(tmp_path / f"out{n}"),
                         "--method", "both"]) == 0
            # the 16 files' rows times their distinct columns: the sign boxes
            # share t, m and each f_i of one sign (28 of the 112 columns here)
            assert len(calls) == 16
            every = sum(len(gs) * (2 + gs.points.shape[1] + gs.values.shape[1])
                        for gs, _, _ in calls)
            assert formatted[0] == self.distinct_values(calls) <= every // 2
        for path in (tmp_path / "out1").glob("gs_*.csv"):
            assert path.read_bytes() == (tmp_path / "out2" / path.name).read_bytes()


# SMALL_IV without its box V1, and the Esn of CAT_ESN without its box
IV_NO_REGION = SMALL_IV.replace("region.1.kind = box\nregion.1.lo = 0.9 0.9 0.9\n"
                                "region.1.hi = 1.1 1.1 1.1\nregion.1.label = V1\n", "")
ESN_NO_REGION = CAT_ESN.format(a="0.3").replace(
    "region.1.kind = box\nregion.1.lo = -1 -1\nregion.1.hi = 1 1\n", "")


def box(n, label, lo, hi):
    return (f"region.{n}.kind = box\nregion.{n}.lo = {lo}\nregion.{n}.hi = {hi}\n"
            f"region.{n}.label = {label}\n")


def ball(n, label, center, radius):
    return (f"region.{n}.kind = ball\nregion.{n}.center = {center}\n"
            f"region.{n}.radius = {radius}\nregion.{n}.label = {label}\n")


SIGNS = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]


def sign_box(n, signs):
    """Box n, labelled B<n>, of side 0.2 around the vertex ``signs`` of the cube."""
    return box(n, f"B{n}", " ".join(f"{c - 0.1:g}" for c in signs),
               " ".join(f"{c + 0.1:g}" for c in signs))


class TestSharedPsiRun:
    # regions with one start state share one psi run, and on an elementwise
    # map every start shares one set of sweeps over its distinct columns;
    # each region keeps its own checks, label and a-priori bound
    @pytest.fixture
    def runs(self, monkeypatch):
        """The start states of every run of the psi sweep loop in the CLI,
        one list per run."""
        runs, original = [], gs_module._psi_runs

        def counting(F, obs, traj, starts, *args):
            runs.append([np.array(f0) for f0 in starts])
            return original(F, obs, traj, starts, *args)

        monkeypatch.setattr(gs_module, "_psi_runs", counting)
        return runs

    @staticmethod
    def synchronize(tmp_path, name, text, method="psi"):
        out = tmp_path / name
        code = main(["synchronize", "--config", write_cfg(tmp_path, text, f"{name}.cfg"),
                     "--out", str(out), "--method", method])
        return code, out

    @pytest.mark.parametrize("method", ["psi", "both"])
    def test_box_and_ball_around_one_esn_center_run_once(self, tmp_path, runs, method):
        regions = {"box": lambda n: box(n, "box", "-1 -1", "1 1"),
                   "ball": lambda n: ball(n, "ball", "0 0", 1)}
        code, out = self.synchronize(tmp_path, "out", ESN_NO_REGION + regions["box"](1)
                                     + regions["ball"](2), method)
        assert code == 0 and len(runs) == 1
        for label, region in regions.items():  # each file is the one of its region alone
            code, alone = self.synchronize(tmp_path, label, ESN_NO_REGION + region(1), method)
            assert code == 0
            for path in alone.glob("gs_*.csv"):
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_power_sine_box_and_ball_keep_their_own_apriori_bound(self, tmp_path, runs,
                                                                  monkeypatch):
        written, original = {}, cli.write_gs_csv

        def recording(gs, path, **kwargs):
            written[os.path.basename(path)] = gs
            return original(gs, path, **kwargs)

        monkeypatch.setattr(cli, "write_gs_csv", recording)
        text = SMALL_IV + ball(2, "B", "1 1 1", 0.2)
        assert self.synchronize(tmp_path, "out", text)[0] == 0 and len(runs) == 1
        box_gs, ball_gs = written["gs_V1_psi.csv"], written["gs_B_psi.csv"]
        assert (box_gs.region_label, ball_gs.region_label) == ("V1", "B")
        assert 0 < box_gs.method["apriori_bound"] < np.inf  # closed-form l_fx on the box
        assert np.isnan(ball_gs.method["apriori_bound"])  # none on a ball
        assert ball_gs.values is box_gs.values and ball_gs.residuals is box_gs.residuals

    def test_region_the_shared_run_leaves_exits_3_with_its_own_escape(self, tmp_path, runs,
                                                                      capsys):
        tiny = "1 1 1", 0.01  # the run from (1, 1, 1) leaves this ball
        text = SMALL_IV + ball(2, "tiny", *tiny)
        code, out = self.synchronize(tmp_path, "out", text)
        err = capsys.readouterr().err
        assert code == 3 and len(runs) == 1
        assert sorted(p.name for p in out.iterdir()) == ["gs_V1_psi.csv", "resolved_config.cfg"]
        assert "numerical failure: RegionEscape: recorded state left region 'tiny'" in err
        # the message of the ball alone, from its own run
        assert self.synchronize(tmp_path, "alone", IV_NO_REGION + ball(1, "tiny", *tiny))[0] == 3
        assert capsys.readouterr().err == err

    def test_zero_and_negative_zero_starts_run_twice(self, tmp_path, runs):
        text = ESN_NO_REGION + box(1, "box", "-1 -1", "1 1") + ball(2, "ball", "-0 -0", 1)
        assert self.synchronize(tmp_path, "out", text)[0] == 0
        assert [[start.tobytes() for start in run] for run in runs] == [
            [np.zeros(2).tobytes()], [(-np.zeros(2)).tobytes()]]

    def test_a_run_goes_once_its_last_region_is_written(self, tmp_path, monkeypatch):
        # Esn runs each distinct start when its first region asks, so at
        # every write only the runs of regions still to come may be alive
        alive, refs = [], []
        run_psi, write = gs_module._psi_runs, cli.write_gs_csv

        def keeping(*args):
            made = run_psi(*args)
            refs.extend(weakref.ref(gs.values) for gs in made)
            return made

        def counting(gs, path, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return write(gs, path, **kwargs)

        monkeypatch.setattr(gs_module, "_psi_runs", keeping)
        monkeypatch.setattr(cli, "write_gs_csv", counting)
        text = ESN_NO_REGION + "".join(ball(n, f"b{n}", center, 1) for n, center in
                                       enumerate(["0 0", "0.1 0", "0 0.1", "0 0"], 1))
        assert self.synchronize(tmp_path, "out", text)[0] == 0
        # the run from (0, 0) stays for region 4, the others go once written
        assert len(refs) == 3 and alive == [1, 2, 2, 1]

    def test_eight_boxes_sweep_six_columns_once(self, tmp_path, runs, monkeypatch):
        shapes, prepare = [], PowerSine._kernel

        def recording(F, shape):
            shapes.append(shape)
            return prepare(F, shape)

        monkeypatch.setattr(PowerSine, "_kernel", recording)
        text = IV_NO_REGION + "".join(sign_box(n, signs) for n, signs in enumerate(SIGNS, 1))
        code, out = self.synchronize(tmp_path, "out", text)
        assert code == 0 and len(runs) == 1 and len(runs[0]) == 8
        # one iterate of the columns x_i = 1 and x_i = -1 of each axis, on
        # the 601 points of the orbit, narrowed to the columns still read
        # as boxes stop (213 to 235 sweeps): 5 with boxes 2, 3 and 4 left
        # after 233 sweeps, then box 4's own 3 after 234
        assert [shape for shape in shapes if len(shape) == 2][:3] == [(600, 6), (600, 5),
                                                                      (600, 3)]
        for n in (1, 4, 8):  # each file is the one of its box alone
            text = IV_NO_REGION + sign_box(n, SIGNS[n - 1])
            alone = self.synchronize(tmp_path, f"B{n}", text)[1]
            assert (out / f"gs_B{n}_psi.csv").read_bytes() == \
                (alone / f"gs_B{n}_psi.csv").read_bytes()


class TestDiagnose:
    def test_outputs_exist_and_bounds_hold(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_IV + "run.forgetting_k = 1 5 20\nrun.forgetting_trials = 30\n")
        out = str(tmp_path / "out")
        assert main(["diagnose", "--config", cfg, "--out", out]) == 0
        for name in ("esp.csv", "forgetting.csv", "slopes.csv", "holder.csv"):
            assert os.path.exists(os.path.join(out, name)), name
        header, rows = read_data_rows(os.path.join(out, "forgetting.csv"))
        for row in rows:
            assert float(row[1]) <= float(row[2])
        header, rows = read_data_rows(os.path.join(out, "esp.csv"))
        assert float(rows[-1][1]) < float(rows[0][1])


class TestReproduce:
    def test_fig2_covers_20_40(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["reproduce", "--figure", "fig2", "--out", out]) == 0
        header, rows = read_data_rows(os.path.join(out, "fig2.csv"))
        assert header == ["t", "obs"]
        assert len(rows) == 2000
        ts = np.array([float(r[0]) for r in rows])
        assert ts[0] > 20.0 and ts[-1] == pytest.approx(40.0)
        assert np.allclose(np.diff(ts), 0.01, atol=1e-9)

    def test_fig3_grid_and_fixed_points(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["reproduce", "--figure", "fig3", "--out", out]) == 0
        text = Path(out, "fig3.csv").read_text()
        assert "stable_fixed_points" in text
        header, rows = read_data_rows(os.path.join(out, "fig3.csv"))
        assert header == ["x1", "x2", "dx1", "dx2"]
        assert len(rows) == 41 * 41
        # displacement vanishes at the in-plane fixed points
        for r in rows:
            if abs(abs(float(r[0])) - 1.0) < 1e-12 and abs(abs(float(r[1])) - 1.0) < 1e-12:
                assert abs(float(r[2])) < 1e-12 and abs(float(r[3])) < 1e-12

    def test_fig3_takes_one_power_per_grid_value(self, tmp_path, monkeypatch):
        calls = []
        power = PowerSine._signed_power

        def counted(self, x):
            calls.append(x)
            return power(self, x)

        monkeypatch.setattr(PowerSine, "_signed_power", counted)
        assert main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == 0
        assert len(calls) == 41


def metadata_keys(path):
    return [l[2:].partition(":")[0] for l in Path(path).read_text().splitlines()
            if l.startswith("# ")]


COMMON_KEYS = ["tool", "command", "seed"]
GS_KEYS = ["method", "region", "residual_max", "residual_mean", "tool", "seed"]


class TestOutputFiles:
    """The files each command writes and the metadata keys of each CSV, in order."""

    @pytest.mark.parametrize("args, files", [
        (["simulate"], {"trajectory.csv": ["rows"]}),
        (["certify"], {"certificates.csv": ["require"], "certificates.txt": None}),
        (["synchronize", "--method", "both"],
         {"gs_V1_drive.csv": GS_KEYS, "gs_V1_psi.csv": GS_KEYS, "agreement.csv": ["method"]}),
        (["diagnose"], {"esp.csv": ["l_fx"], "forgetting.csv": ["trials"],
                        "slopes.csv": ["bin_edges", "bin_counts", "bin_max_slope"],
                        "holder.csv": []}),
        (["reproduce", "--figure", "fig1"], {"fig1.csv": ["figure", "rows"]}),
        (["reproduce", "--figure", "fig2"], {"fig2.csv": ["figure", "rows"]}),
        (["reproduce", "--figure", "fig3"],
         {"fig3.csv": ["figure", "cross_section", "lambda", "stable_fixed_points"]}),
        (["reproduce", "--figure", "fig4"], {"fig4.csv": ["figure", "branches"]}),
    ])
    def test_files_and_metadata_keys(self, tmp_path, args, files):
        out = tmp_path / "out"
        conf = [] if args[0] == "reproduce" else ["--config", write_cfg(tmp_path, SMALL_IV)]
        assert main(args + conf + ["--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted([*files, "resolved_config.cfg"])
        for name, keys in files.items():
            if keys is None:
                continue
            expected = keys if name.startswith("gs_") else COMMON_KEYS + keys
            assert metadata_keys(out / name) == expected, name
            if not name.startswith("gs_"):
                assert f"# command: {args[0]}\n" in (out / name).read_text()


class TestOneOrbit:
    # n_steps below washout + record, so the two orbit lengths differ
    SHORT_IV = SMALL_IV.replace("system.n_steps = 600", "system.n_steps = 100")

    @pytest.fixture
    def integrations(self, monkeypatch):
        calls = []
        original = DiscreteSystem.trajectory

        def counted(self, m0, n_steps, t0=0):
            calls.append(n_steps)
            return original(self, m0, n_steps, t0)

        monkeypatch.setattr(DiscreteSystem, "trajectory", counted)
        return calls

    @pytest.mark.parametrize("args, n_steps", [
        (["simulate"], 100), (["certify"], 100),
        (["synchronize", "--method", "both"], 600), (["diagnose"], 600)])
    def test_each_command_integrates_once(self, tmp_path, integrations, args, n_steps):
        cfg = write_cfg(tmp_path, self.SHORT_IV)
        assert main(args + ["--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert integrations == [n_steps]

    @pytest.mark.parametrize("figure, n_steps", [
        ("fig1", [4000]), ("fig2", [4000]), ("fig3", []), ("fig4", [4000])])
    def test_each_figure_integrates_at_most_once(self, tmp_path, integrations, figure,
                                                 n_steps):
        assert main(["reproduce", "--figure", figure, "--out", str(tmp_path)]) == 0
        assert integrations == n_steps

    def test_psi_ignores_an_l_fx_without_a_bound(self):
        # PowerSine at distance 0.1 from the planes: l_fx = 0.9 * 0.1**-0.1 > 1
        cfg = parse_config_text(SMALL_IV)
        box = AxisBox([0.1] * 3, [0.3] * 3)
        traj = cfg.system.trajectory(cfg.initial, 300)
        z = observe_trajectory(cfg.observation, traj)
        l_fx = cfg.statemap.analytic_lipschitz(box, InputRange.from_observations(z))["l_fx"]
        assert l_fx == pytest.approx(0.9 * 0.1 ** -0.1) and l_fx >= 1.0
        # nan is what cli._closed_form_l_fx gives for a map without a closed form
        runs = [psi_iterate_gs(cfg.statemap, cfg.system, cfg.observation, traj, box.center(),
                               max_iters=50, record_from=100, l_fx=value)
                for value in (None, l_fx, float("nan"))]
        methods = [dict(gs.method) for gs in runs]
        assert all(np.isnan(m.pop("apriori_bound")) for m in methods)
        assert methods[0] == methods[1] == methods[2]
        assert runs[0].values.tobytes() == runs[1].values.tobytes() == runs[2].values.tobytes()

    def test_closed_form_l_fx_else_nan(self):
        cfg = parse_config_text(SMALL_IV)
        _, _, input_range = cli._orbit(cfg, 100)
        box = cfg.regions[0]
        assert (cli._closed_form_l_fx(cfg, box, input_range)
                == cfg.statemap.analytic_lipschitz(box, input_range)["l_fx"] < 1.0)
        # PowerSine has no closed form on a ball
        assert np.isnan(cli._closed_form_l_fx(cfg, Ball([1.0] * 3, 0.1), input_range))


# (key, lowest accepted value) of every key with a lower bound in the key table
BOUNDS = [(key, row[-1]) for key, row in _KEYS.items() if row[-1] is not None]


def with_key(text, key, value):
    """The config text with key set to value: its line replaced, or one added."""
    lines = [l for l in text.splitlines() if l.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestBounds:
    @pytest.mark.parametrize("key, bound", BOUNDS)
    def test_one_below_the_bound_exits_2(self, tmp_path, capsys, key, bound):
        cfg = write_cfg(tmp_path, with_key(reading(key)[0], key, bound - 1))
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, bound", BOUNDS)
    def test_the_bound_itself_parses_and_resolves_again(self, key, bound):
        text = parse_config_text(with_key(reading(key)[0], key, bound)).resolved_text()
        assert f"\n{key} = {bound}\n" in text
        assert parse_config_text(text).resolved_text() == text

    @pytest.mark.parametrize("text, span, psi_from", [
        (None, 4000, 2000),
        (TestOneOrbit.SHORT_IV + "run.psi_record_from = 50\n", 600, 50)])
    def test_span_and_psi_from(self, text, span, psi_from):
        cfg = section_iv_config() if text is None else parse_config_text(text)
        assert cfg.span == max(cfg.n_steps, cfg.washout + cfg.record) == span
        old_psi_from = cfg.psi_record_from if cfg.psi_record_from is not None else cfg.washout
        assert cfg.psi_from == old_psi_from == psi_from


BALL_IV = SMALL_IV.replace(
    "region.1.kind = box\nregion.1.lo = 0.9 0.9 0.9\nregion.1.hi = 1.1 1.1 1.1\n",
    "region.1.kind = ball\nregion.1.center = 1 1 1\nregion.1.radius = 0.1\n")


class TestSizeCap:
    """No array a command holds may exceed 2**50 numbers: a config that asks
    for more exits 2 at parse time, naming the keys that set the size."""

    @pytest.mark.parametrize("command, text, key", [
        ("diagnose", SMALL_IV, "run.washout"), ("diagnose", SMALL_IV, "run.record"),
        ("diagnose", SMALL_IV, "system.n_steps"), ("diagnose", SMALL_IV, "run.forgetting_k"),
        ("diagnose", SMALL_IV, "run.forgetting_trials"),
        ("certify", BALL_IV, "run.input_samples"), ("certify", BALL_IV, "run.grid_resolution")])
    def test_size_key_of_10_to_the_20_exits_2(self, tmp_path, capsys, command, text, key):
        cfg = write_cfg(tmp_path, with_key(text, key, 10 ** 20))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err and "2**50" in err
        assert not out.exists()

    def test_two_keys_whose_product_is_too_large_exit_2(self, tmp_path, capsys):
        text = with_key(with_key(SMALL_IV, "run.forgetting_trials", 10 ** 10),
                        "run.forgetting_k", 10 ** 10)
        out = tmp_path / "o"
        assert main(["diagnose", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert "run.forgetting_k, run.forgetting_trials:" in capsys.readouterr().err
        assert not out.exists()

    def test_the_cap_itself_parses(self):
        # one input coordinate: run.input_samples numbers of certify's inputs
        parse_config_text(with_key(BALL_IV, "run.input_samples", 2 ** 50))
        with pytest.raises(ConfigError, match="^run.input_samples: .* at least 2\\*\\*50 "):
            parse_config_text(with_key(BALL_IV, "run.input_samples", 2 ** 50 + 1))

    def test_a_box_takes_any_grid_resolution(self):
        # only a ball tops its grid up with max(resolution, 8) samples
        assert parse_config_text(with_key(SMALL_IV, "run.grid_resolution", 10 ** 20))


class TestSubstepCap:
    """No command may integrate more than 2**33 RK4 substeps: a config that
    asks for more exits 2 at parse time, naming system.substeps and the keys
    that set the orbit's length.  Parsing integrates nothing, so each case
    runs in-process and at once."""

    FIVE_STEPS = SMALL_LORENZ.replace("system.n_steps = 60", "system.n_steps = 5")

    def test_10_to_the_20_substeps_exit_2_before_out_exists(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, with_key(self.FIVE_STEPS, "system.substeps", 10 ** 20))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: system.substeps, run.washout, run.record: the run would "
            "integrate at least 2**80 RK4 substeps, above the cap of 2**33\n")
        assert not out.exists()

    def test_the_cap_itself_parses(self):
        # (span + 1) orbit steps, span = washout + record by default, and
        # certify's 14 integrations for each of at most 1000 tangent samples
        most = config._SUBSTEP_CAP // (2000 + 2000 + 1 + 14 * 1000)
        parse_config_text(with_key(self.FIVE_STEPS, "system.substeps", most))
        with pytest.raises(ConfigError, match="^system.substeps, run.washout, run.record: "):
            parse_config_text(with_key(self.FIVE_STEPS, "system.substeps", most + 1))

    def test_a_long_orbit_names_system_n_steps(self):
        text = with_key(self.FIVE_STEPS, "system.n_steps", 2 * 10 ** 9)
        with pytest.raises(ConfigError, match="^system.substeps, system.n_steps: .* 2\\*\\*33$"):
            parse_config_text(text)

    def test_a_map_integrates_nothing(self):
        assert parse_config_text(with_key(TORUS, "system.n_steps", 10 ** 12))

    def test_readme_states_the_cap(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        base, power = re.search(r"(\d+)\*\*(\d+) RK4 substeps", text).groups()
        assert int(base) ** int(power) == config._SUBSTEP_CAP


# small configs for the exit-code property test; between them they set
# nearly every key that takes a number, so each can be mutated
_MUTABLE_RUN = """run.forgetting_k = 1 5
run.forgetting_trials = 10
run.pair_budget = 200
run.grid_resolution = 4
run.input_samples = 20
"""
MUTABLE_CONFIGS = {
    "lorenz": """
system.kind = lorenz
system.h = 0.01
system.substeps = 8
system.sigma = 10
system.rho = 28
system.beta = 2.6666666666666665
system.initial = 0 1 1.05
system.n_steps = 300
observation.kind = linear
observation.matrix = 1 0 0
statemap.kind = power_sine
statemap.alpha = 0.9
statemap.lambda = 0.009
statemap.k = 0.1
region.1.kind = box
region.1.lo = 0.9 0.9 0.9
region.1.hi = 1.1 1.1 1.1
run.washout = 200
run.record = 100
run.tol = 1e-10
run.max_iters = 400
run.psi_record_from = 50
""" + _MUTABLE_RUN,
    "torus": """
system.kind = torus_rotation
system.angles = 0.41421356 0.31662479
system.initial = 0.1 0.2
system.n_steps = 300
observation.indices = 1
statemap.kind = power_sine
statemap.alpha = 0.8
statemap.lambda = 0.01
statemap.k = 2
region.1.kind = ball
region.1.center = 1 1 1
region.1.radius = 0.2
run.washout = 200
run.record = 100
run.seed = 3
""" + _MUTABLE_RUN,
    "cat_esn": """
system.kind = cat_map
system.initial = 0.1234 0.5678
system.n_steps = 300
observation.kind = linear
observation.matrix = 1 0.5
statemap.kind = esn
statemap.A = 0.3 0; 0 0.2
statemap.C = 0.1; 0.1
statemap.zeta = 0.01 -0.02
region.1.kind = box
region.1.lo = -1 -1
region.1.hi = 1 1
run.washout = 200
run.record = 100
""" + _MUTABLE_RUN,
}
MUTANTS = ("nan", "inf", "-inf", "0", "-1", "2.5", "1e308")
COMMANDS = (("certify",), ("synchronize", "--method", "both"), ("diagnose",))


def _tokens(value):
    return value.replace(";", " ; ").split()


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


# (config, key, token index) of every numeric token of the mutable configs
SITES = [(name, key.strip(), j) for name in sorted(MUTABLE_CONFIGS)
         for key, _, value in (l.partition("=") for l in MUTABLE_CONFIGS[name].splitlines() if l)
         for j, token in enumerate(_tokens(value)) if _is_number(token)]


def mutate(name, key, j, token):
    lines = []
    for line in MUTABLE_CONFIGS[name].splitlines():
        k, _, value = line.partition("=")
        if k.strip() == key:
            tokens = _tokens(value)
            tokens[j] = token
            line = f"{key} = {' '.join(tokens)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def assert_resolved_text_parses_again(out_dir):
    text = Path(out_dir, "resolved_config.cfg").read_text()
    assert parse_config_text(text).resolved_text() == text


class TestExitCodeContract:
    @pytest.mark.parametrize("name", sorted(MUTABLE_CONFIGS))
    def test_unmutated_configs_succeed(self, tmp_path, name):
        cfg = write_cfg(tmp_path, MUTABLE_CONFIGS[name])
        for command in COMMANDS:
            out = str(tmp_path / command[0])
            assert main([*command, "--config", cfg, "--out", out]) == 0
            assert_resolved_text_parses_again(out)

    # 1e308-scale mutants overflow on purpose (an observation matmul, a cat-map
    # step, inf % 1); the exit code is what these two tests judge
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(site=st.sampled_from(SITES), token=st.sampled_from(MUTANTS),
           command=st.sampled_from(COMMANDS))
    @example(site=("lorenz", "observation.matrix", 0), token="nan", command=("certify",))
    def test_one_mutated_number_exits_0_2_3_or_4(self, site, token, command):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write(mutate(*site, token))
            code = main([*command, "--config", cfg, "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3, 4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(site=st.sampled_from(SITES), token=st.sampled_from(MUTANTS),
           command=st.sampled_from(COMMANDS))
    def test_accepted_config_resolves_to_text_that_parses_again(self, site, token, command):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write(mutate(*site, token))
            out = os.path.join(tmp, "out")
            if main([*command, "--config", cfg, "--out", out]) != 2:
                assert_resolved_text_parses_again(out)


# small configs of these tests; between them they resolve every key of the
# key table, SMALL_IV first so that the run keys are tried on it
TIER1_CONFIGS = [SMALL_IV, SMALL_LORENZ, TORUS, CAT_ESN.format(a="0.3"), BALL_IV, TORUS_DELAY,
                 *MUTABLE_CONFIGS.values()]


def reading(key):
    """The first of TIER1_CONFIGS whose resolved text holds key, and key as
    that text names it (region.N.* with the region's index), else None."""
    name = re.compile("^" + re.escape(key).replace(r"region\.N\.", r"region\.\d+\.") + "(?= = )",
                      re.M)
    for text in TIER1_CONFIGS:
        found = name.search(parse_config_text(text).resolved_text())
        if found:
            return text, found.group()
    return None


NUMBERS = (config._FLOAT, config._INT, config._VEC, config._INTS, config._MATRIX)
# (key, value) of every key that takes numbers set to a word, and of every
# key that takes floats set to nan
REJECTED = ([(key, "one") for key, row in _KEYS.items() if row[:3] in NUMBERS]
            + [(key, "nan") for key, row in _KEYS.items()
               if row[:3] in (config._FLOAT, config._VEC, config._MATRIX)])


def readme_key_rows():
    """{key: (default, admits)} of README's key table, backticks dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| key | default | admits | what it sets |\n|---|---|---|---|\n")[1]
    rows = {}
    for line in table.split("\n\n")[0].splitlines():
        key, default, admits, _ = (c.strip().replace("`", "") for c in line.strip("|").split("|"))
        rows[key] = (default, admits)
    return rows


class TestKeyTable:
    """The key table (config._KEYS) is the config schema: every row is read
    by some tier-1 config, every bad number exits 2 naming its key, and
    README's key table agrees with it."""

    def test_every_row_is_resolved_by_a_tier1_config(self):
        assert [key for key in _KEYS if reading(key) is None] == []

    @pytest.mark.parametrize("key, value", REJECTED)
    def test_a_word_or_nan_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        text, name = reading(key)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, with_key(text, name, value))
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        assert f"configuration error: {name}: " in capsys.readouterr().err
        assert not out.exists()

    def test_readme_defaults_and_bounds_are_the_tables(self):
        rows = readme_key_rows()
        assert set(rows) <= set(_KEYS)
        assert {key for key, bound in BOUNDS} <= set(rows)
        for key, (default, admits) in rows.items():
            parse, _, _, expected, at_least = _KEYS[key]
            if expected is config._REQUIRED:
                assert default == "required", key
            elif isinstance(expected, config._Derived):
                assert default == expected, key
            else:
                assert parse(default, key) == expected, key
            bound = re.search(r">= (\d+)", admits)
            assert (int(bound.group(1)) if bound else None) == at_least, key


def readme_kind_lists():
    """{section: its kinds} as the comments of README's config block list them."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return {section: kinds.split(" | ")
            for section, kinds in re.findall(r"^(\w+)(?:\.\d+)?\.kind = \w+ +# (.+)$", text, re.M)}


class TestKindTable:
    """The kind table (config._KINDS) states each section's kinds: an unknown
    kind exits 2 naming its key and listing them, and README lists them."""

    def test_readme_lists_the_kinds_of_every_section(self):
        assert readme_kind_lists() == {section: list(kinds)
                                       for section, kinds in config._KINDS.items()}

    @pytest.mark.parametrize("prefix", ["system", "observation", "statemap", "region.1"])
    def test_an_unknown_kind_exits_2_naming_its_key(self, tmp_path, capsys, prefix):
        cfg = write_cfg(tmp_path, with_key(SMALL_IV, f"{prefix}.kind", "spline"))
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        kinds = " | ".join(config._KINDS[prefix.split(".")[0]])
        assert capsys.readouterr().err == (f"configuration error: {prefix}.kind: unknown kind "
                                           f"'spline', expected {kinds}\n")
        assert not out.exists()

    @pytest.mark.parametrize("index", ["01", "+2", " 3", "-1"])
    def test_an_index_not_in_plain_digits_exits_2_naming_its_key(self, tmp_path, capsys, index):
        text = SMALL_IV.replace("region.1.", f"region.{index}.")
        out = tmp_path / "o"
        assert main(["certify", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: region.{index}.kind: region index {index!r} must be digits "
            "with no leading zero\n")
        assert not out.exists()

    @pytest.mark.parametrize("index", ["0", "10"])
    def test_plain_digits_name_the_region(self, index):
        cfg = parse_config_text(SMALL_IV.replace("region.1.", f"region.{index}.")
                                .replace(f"region.{index}.label = V1\n", ""))
        assert [r.label for r in cfg.regions] == [f"V{index}"]
        assert f"\nregion.{index}.lo = " in cfg.resolved_text()
