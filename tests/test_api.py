import importlib.util
import os
import re
import subprocess
import sys

import pytest

import gsync
from gsync.config import parse_config_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def test_public_names():
    assert sorted(gsync.__all__) == [
        "AxisBox", "Ball", "CatMap", "ContractionCertificate", "CoordinateProjection",
        "CustomObservation", "CustomStateMap", "CustomSystem", "DerivativeProfile",
        "DiscreteSystem", "Esn", "HolderFit", "InputRange", "InvarianceCheck",
        "InvariantRegion", "LinearDelay", "LinearObservation", "LipschitzBounds",
        "ObservationMap", "OdeFlow", "OrbitConstants", "PowerSine", "RegionIntersection",
        "SampledGS", "StateMap", "SweepResult", "TorusRotation", "Trajectory", "WeightingSequence",
        "absorbing_set", "certify", "check_equivariance", "check_invariance",
        "compare_gs", "contraction", "cos_range", "delay_window", "derivative_profile",
        "diagnostics", "drive_gs", "dynsys", "errors", "esp_convergence", "gs",
        "holder_exponent", "input_forgetting", "lipschitz_bounds", "lorenz_field",
        "lorenz_system", "multistability_sweep", "observe_trajectory", "psi_iterate_gs",
        "recursion_residual", "regions", "run_recursion", "shift_matrix", "sin_range",
        "statemaps", "tangent_norm_bounds", "weighted_distance", "write_gs_csv",
    ]


def loaded_after(statements: str, module: str) -> bool:
    """Whether a fresh process that runs statements loads module."""
    code = f"import sys\n{statements}\nprint({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh process that imports gsync and gsync.cli loads module."""
    return loaded_after("import gsync, gsync.cli", module)


def test_cli_import_leaves_scipy_spatial_unloaded():
    # only the regularity probes use the KD-tree; every CLI process imports gsync
    assert not loaded_by_cli_import("scipy.spatial")


def test_diagnose_leaves_scipy_unloaded(tmp_path):
    # the regularity probes find their near pairs with numpy alone
    cfg, out = tmp_path / "iv.cfg", tmp_path / "out"
    statements = ("from gsync.cli import main, section_iv_config\n"
                  f"open({str(cfg)!r}, 'w').write(section_iv_config().resolved_text())\n"
                  f"argv = ['diagnose', '--config', {str(cfg)!r}, '--out', {str(out)!r}]\n"
                  "assert main(argv) == 0")
    assert not loaded_after(statements, "scipy")
    assert (out / "holder.csv").exists()


def test_cli_import_leaves_csv_formatter_unloaded():
    # only matrix CSV bodies need the formatter; set-up and commands that write
    # none skip loading it
    assert not loaded_by_cli_import("gsync._csvtext")


def load_script(monkeypatch, name, *path):
    """Import the repository file ``path`` as module ``name``, for this test only."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_and_restores_every_target(monkeypatch):
    # the benchmark wraps gsync's entry points by name, so a rename or a moved
    # method would leave its layer unmeasured without this check
    tracer = load_script(monkeypatch, "perfbench_tracer", "perfbench", "tracer.py")
    absent = object()
    targets = [(tracer._resolve(owner), attr)
               for owner, attr, *_ in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS]

    def own_attributes():
        return [obj.__dict__.get(attr, absent) for obj, attr in targets]

    before = own_attributes()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()
    assert all(a is b for a, b in zip(own_attributes(), before, strict=True))


DIGEST_CONFIG = """
system.kind = torus_rotation
system.angles = 0.41421356237309503 0.16227766016837952
system.n_steps = 300
observation.kind = linear
observation.matrix = 1 -0.5
statemap.kind = power_sine
statemap.alpha = 0.9
statemap.lambda = 0.009
statemap.k = 0.1
region.1.lo = 0.9 0.9 0.9
region.1.hi = 1.1 1.1 1.1
region.2.kind = ball
region.2.center = -1 1 1
region.2.radius = 0.1
run.washout = 100
run.record = 200
run.grid_resolution = 4
run.input_samples = 20
"""


def test_output_digest_records_repeat(monkeypatch):
    # the byte-identity tool imports gsync names, some private; a rename must
    # fail here rather than at the tool's next run
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src and perfbench
    load_script(monkeypatch, "workloads", "perfbench", "workloads.py")
    tool = load_script(monkeypatch, "output_digests", "tools", "output_digests.py")
    cfg = parse_config_text(DIGEST_CONFIG)
    assert list(tool.RECORDS) == ["sweep", "lipschitz", "psi", "grid", "recur", "pairs", "rows",
                                 "forgetting"]
    for name, record in tool.RECORDS.items():
        digest = record(cfg)
        assert re.fullmatch("[0-9a-f]{64}", digest) and record(cfg) == digest, name


def test_output_digests_match_the_committed_baseline(monkeypatch, tmp_path):
    # every file the CLI writes and every record, byte for byte as in
    # tools/output_digests.txt; its digests hold on the numpy, SIMD and BLAS it records
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src and perfbench
    load_script(monkeypatch, "workloads", "perfbench", "workloads.py")
    tool = load_script(monkeypatch, "output_digests", "tools", "output_digests.py")
    with open(os.path.join(ROOT, "tools", "output_digests.txt")) as fh:
        committed = fh.read().splitlines()
    recorded = committed[0].removeprefix("# machine: ")
    if recorded != tool.machine_record():
        pytest.skip(f"baseline taken on {recorded}; this machine has {tool.machine_record()}")
    (tmp_path / "inputs").mkdir()
    extra, failures = tool.run_all(str(tmp_path / "out"), str(tmp_path / "inputs"))
    assert failures == []
    listing = tool.digests(str(tmp_path / "out"), extra)

    def by_path(lines):
        return dict(line.split("  ", 1)[::-1] for line in lines)

    expected, got = by_path(committed[1:]), by_path(listing)
    moved = [path for path in sorted(expected.keys() | got.keys())
             if expected.get(path) != got.get(path)]
    assert moved == [], f"digests differ from tools/output_digests.txt at {moved}"


def test_digest_drift_names_outputs_moved_without_a_new_baseline(monkeypatch, tmp_path, capsys):
    # the CI check against the base commit: an output that moved fails it
    # unless the head's committed baseline moved its line too
    tool = load_script(monkeypatch, "digest_drift", "tools", "digest_drift.py")
    files = {"base": "1 a/x\n2 b/y\n3 c/z\n4 old", "head": "1 a/x\n5 b/y\n6 c/z\n7 new",
             "base_baseline": "0 b/y\n3 c/z", "head_baseline": "0 b/y\n6 c/z"}
    for name, text in files.items():
        (tmp_path / name).write_text("# machine: any\n" + text.replace(" ", "  ") + "\n")
    args = [str(tmp_path / name) for name in files]
    assert tool.main(args) == 1
    assert capsys.readouterr().out.splitlines() == [
        "output moved with no new line in tools/output_digests.txt: b/y"]
    (tmp_path / "head_baseline").write_text("5  b/y\n6  c/z\n")
    assert tool.main(args) == 0 and capsys.readouterr().out == ""
    assert tool.main(args[:3]) == 2
