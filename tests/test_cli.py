import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsync import AxisBox, InputRange, cli, observe_trajectory, psi_iterate_gs
from gsync.cli import main, section_iv_config
from gsync.config import parse_config_text
from gsync.dynsys import DiscreteSystem

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
        cfg = write_cfg(tmp_path, """
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
""")
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
        runs = [psi_iterate_gs(cfg.statemap, cfg.system, cfg.observation, traj, box.center(),
                               max_iters=50, record_from=100, l_fx=value)
                for value in (None, l_fx)]
        methods = [dict(gs.method) for gs in runs]
        assert all(np.isnan(m.pop("apriori_bound")) for m in methods)
        assert methods[0] == methods[1]
        assert runs[0].values.tobytes() == runs[1].values.tobytes()


# (key, lowest accepted value) of every run key with a lower bound, and system.n_steps
BOUNDS = [("run.washout", 0), ("run.record", 1), ("system.n_steps", 1), ("run.max_iters", 1),
          ("run.input_samples", 1), ("run.forgetting_trials", 1), ("run.pair_budget", 1),
          ("run.grid_resolution", 2), ("run.seed", 0), ("run.forgetting_k", 0),
          ("run.psi_record_from", 0)]


def with_key(text, key, value):
    """The config text with key set to value: its line replaced, or one added."""
    lines = [l for l in text.splitlines() if l.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestBounds:
    @pytest.mark.parametrize("key, bound", BOUNDS)
    def test_one_below_the_bound_exits_2(self, tmp_path, capsys, key, bound):
        cfg = write_cfg(tmp_path, with_key(SMALL_IV, key, bound - 1))
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, bound", BOUNDS)
    def test_the_bound_itself_parses_and_resolves_again(self, key, bound):
        text = parse_config_text(with_key(SMALL_IV, key, bound)).resolved_text()
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
