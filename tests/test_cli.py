"""Config ingestion, mode dispatch, artifacts, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from passivebeam import assumptions, cli


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "beam": {
            "rho": 1.0,
            "lambda_rigidity": 1.0,
            "length": 1.0,
            "tip_inertia": 0.1,
            "tip_mass": 0.1,
        },
        "mesh": {"n_elements": 6},
        "rotational": {
            "damper": {"name": "tanh", "params": {"gain": 2.0}},
            "spring": {"name": "cubic", "params": {}},
            "block": {"name": "cubic-drift", "params": {}},
        },
        "translational": {
            "damper": {"name": "tanh", "params": {"gain": 2.0}},
            "spring": {"name": "cubic", "params": {}},
            "block": {"name": "cubic-drift", "params": {}},
        },
        "integrator": {"dt": 0.001, "t_end": 0.5, "record_every": 10},
        "initial": {"kind": "first-mode", "tip_fraction": 0.1},
        "certify": {"radius": 1.5, "samples": 300},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_certify_mode_all_pass(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.run("certify", path, out=out) == 0
    report = json.loads((out / "certification.json").read_text())
    assert report["passed"] is True
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_status"] == 0
    assert "certification.json" in summary["files"]


def test_certify_mode_broken_damper_exits_2(tmp_path):
    cfg = base_config()
    cfg["rotational"]["damper"] = {"name": "negative-linear", "params": {}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.run("certify", path, out=out) == 2
    report = json.loads((out / "certification.json").read_text())
    assert report["passed"] is False
    failed = [
        c for c in report["sd_rotational"]["checks"] if not c["passed"]
    ]
    assert failed and all(c["witness"] is not None for c in failed)


@pytest.mark.parametrize("radius", [1e-300, 1e-200])
def test_certify_at_a_tiny_radius_returns(tmp_path, radius):
    # the squared coordinates of such points underflow to 0; a child process
    # turns a hang into a failed test. The strict margins are absolute, so a
    # ball this small fails certification (exit 2)
    cfg = base_config()
    cfg["certify"]["radius"] = radius
    path = write_config(tmp_path, cfg)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-c", "import sys; from passivebeam import cli; sys.exit(cli.main())",
               "certify", "--config", str(path), "--out", str(tmp_path / "out")]
    done = subprocess.run(command, env=env, capture_output=True, timeout=10)
    assert done.returncode == 2, done.stderr.decode()


# the cubic laws overflow at the sample points; a check whose value is not
# finite fails, so certification exits 2 with no RuntimeWarning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e150, 1e300, assumptions.MAX_RADIUS])
def test_certify_at_an_overflowing_radius_exits_2(tmp_path, radius):
    cfg = base_config()
    cfg["certify"]["radius"] = radius
    out = tmp_path / "out"
    assert cli.run("certify", write_config(tmp_path, cfg), out=out) == 2
    report = json.loads((out / "certification.json").read_text())
    failed = {c["name"]: c for c in report["block_rotational"]["checks"] if not c["passed"]}
    assert failed["dissipation-strict"]["value"] == -np.inf
    assert failed["dissipation-strict"]["witness"] is not None
    assert not report["sd_rotational"]["passed"]


# the law samples span 2 radius, which overflows from about 9e307 on
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e308, 1.7e308])
def test_certify_above_the_radius_limit_exits_1(tmp_path, capsys, radius):
    cfg = base_config()
    cfg["certify"]["radius"] = radius
    assert cli.run("certify", write_config(tmp_path, cfg), out=tmp_path / "out") == 1
    assert "certify.radius" in capsys.readouterr().err


def test_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}')
    assert cli.run("certify", path) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_keys_rejected(tmp_path):
    cfg = base_config()
    cfg["unexpected"] = True
    path = write_config(tmp_path, cfg)
    assert cli.run("certify", path, out=tmp_path / "out") == 1


def test_wrong_schema_version_rejected(tmp_path):
    # true and 1.0 equal 1 in Python, but neither is the JSON integer 1
    for version in (99, True, 1.0):
        path = write_config(tmp_path, base_config(schema_version=version))
        assert cli.run("certify", path, out=tmp_path / "out") == 1


def test_mode_mismatch_rejected(tmp_path):
    cfg = base_config(mode="certify")
    path = write_config(tmp_path, cfg)
    assert cli.run("simulate", path, out=tmp_path / "out") == 1


def test_simulate_mode_artifacts_and_hashes(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.run("simulate", path, out=out) == 0
    for name in ("certification.json", "energy.csv", "trajectory.csv", "energy.svg", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    for name, digest in summary["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # energy column non-increasing within the per-step budget
    rows = (out / "energy.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    totals = np.array([float(r.split(",")[header.index("total")]) for r in rows[1:]])
    assert np.all(np.diff(totals) <= 1e-8 * totals[0])
    assert summary["metrics"]["h_flagged"] is False


@pytest.mark.parametrize("t_end", [0.3, 0.7])
def test_simulate_last_row_is_written_at_t_end(tmp_path, t_end):
    # 3 * 0.1 and 7 * 0.1 are 0.30000000000000004 and 0.7000000000000001
    cfg = base_config(integrator={"dt": 0.1, "t_end": t_end, "record_every": 3})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.run("simulate", path, out=out) == 0
    rows = (out / "energy.csv").read_text().strip().splitlines()
    assert float(rows[-1].split(",")[0]) == t_end


def test_simulate_outputs_deterministic(tmp_path):
    path = write_config(tmp_path, base_config())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.run("simulate", path, out=out_a) == 0
    assert cli.run("simulate", path, out=out_b) == 0
    for name in ("energy.csv", "trajectory.csv", "energy.svg", "certification.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_gates_on_certification(tmp_path):
    cfg = base_config()
    cfg["translational"]["block"] = {"name": "anti-stable", "params": {}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.run("simulate", path, out=out) == 2
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("mode", ["certify", "simulate", "spectrum"])
def test_block_beyond_certification_limit_exits_1(tmp_path, capsys, mode):
    cfg = base_config()
    cfg["rotational"]["block"] = {"name": "linear", "params": {"dim": 11}}
    path = write_config(tmp_path, cfg)
    assert cli.run(mode, path, out=tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "block_rotational" in err and "dimension 11" in err and "limit of 10" in err
    assert not (tmp_path / "out" / "certification.json").exists()


def test_spectrum_mode(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.run("spectrum", path, out=out) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "re,im"
    reals = [float(r.split(",")[0]) for r in rows[1:]]
    assert max(reals) < 0.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["n_unstable"] == 0


def test_skew_mode(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.run("skew", path, out=out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["skew_defect"] <= 1e-12


@pytest.mark.parametrize("slope", [-100.0, -1.0])
def test_skew_mode_rejects_an_indefinite_gram(tmp_path, slope):
    cfg = base_config(mesh={"n_elements": 256})
    for channel in ("rotational", "translational"):
        cfg[channel]["spring"] = {"name": "linear", "params": {"slope": slope}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.run("skew", path, out=out) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_status"] == 3
    assert summary["metrics"]["operation"] == "NotPositiveDefinite"


def test_skew_mode_non_finite_defect_exits_3(tmp_path):
    cfg = base_config(mesh={"n_elements": 8})
    cfg["beam"]["lambda_rigidity"] = 1e300
    out = tmp_path / "out"
    assert cli.run("skew", write_config(tmp_path, cfg), out=out) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["operation"] == "NonFiniteResult"
    assert "skew-adjointness defect" in summary["metrics"]["error"]


def run_failing(tmp_path, mode, cfg) -> dict:
    """Run ``mode`` on ``cfg``, expecting exit 3; the summary's metrics."""
    out = tmp_path / "out"
    assert cli.run(mode, write_config(tmp_path, cfg), out=out) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_status"] == 3
    return summary["metrics"]


@pytest.mark.filterwarnings("error")
def test_simulate_non_finite_records_exit_3(tmp_path):
    # a spring this stiff overflows the recorded tangent norms, not the steps
    cfg = base_config(mesh={"n_elements": 8}, integrator={"dt": 0.001, "t_end": 0.01})
    cfg["translational"]["spring"] = {"name": "linear", "params": {"slope": 1e300}}
    metrics = run_failing(tmp_path, "simulate", cfg)
    assert metrics["operation"] == "NonFiniteResult"
    assert "recorded tangent norm is not finite" in metrics["error"]


# the first step overflows: in the cubic spring at 1e150, in the energy norm
# at 1e300
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tip_fraction", [1e150, 1e300])
def test_simulate_overflowing_step_exits_3(tmp_path, tip_fraction):
    cfg = base_config(integrator={"dt": 0.001, "t_end": 0.01})
    cfg["initial"]["tip_fraction"] = tip_fraction
    metrics = run_failing(tmp_path, "simulate", cfg)
    assert metrics["operation"] == "NewtonDivergence"
    assert "step to t=0.001 failed: state is not finite" in metrics["error"]


# the element matrices of an element of length 2.5e299 overflow in assemble
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["simulate", "spectrum", "skew"])
def test_non_finite_bands_exit_3(tmp_path, mode):
    cfg = base_config(mesh={"n_elements": 4})
    cfg["beam"]["length"] = 1e300
    metrics = run_failing(tmp_path, mode, cfg)
    assert metrics["operation"] == "NonFiniteResult"
    assert "mass_band is not finite" in metrics["error"]


@pytest.mark.filterwarnings("error")
def test_convergence_mode_non_finite_bands_exit_3(tmp_path):
    cfg = base_config()
    cfg["beam"]["length"] = 1e300
    cfg["convergence"] = {"meshes": [4, 8]}
    metrics = run_failing(tmp_path, "convergence", cfg)
    assert metrics["operation"] == "NonFiniteResult"
    assert "mass_band is not finite" in metrics["error"]


def _extreme(section, key, value):
    """A modifier of the README config that sets one beam parameter or one
    translational law or block."""
    def modify(cfg):
        if section == "beam":
            cfg["beam"][key] = value
        else:
            cfg["translational"][section] = {"name": "linear", "params": {key: value}}
    modify.__name__ = f"{section}.{key}={value:g}"
    return modify


# the secular function's pieces and its root sweeps overflow or divide by zero
# before the roots are found not finite
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("modify", [
    _extreme("beam", "rho", 1e150), _extreme("beam", "rho", 1e300),
    _extreme("beam", "lambda_rigidity", 1e-300), _extreme("beam", "tip_mass", 1e150),
    _extreme("beam", "tip_inertia", 1e150), _extreme("spring", "slope", 1e300),
    _extreme("damper", "slope", 1e300), _extreme("block", "rate", 1e300),
    _extreme("block", "gain", 1e300),
], ids=lambda modify: modify.__name__)
def test_spectrum_at_extreme_parameters_exits_3(tmp_path, modify):
    cfg = base_config(mesh={"n_elements": 8})
    modify(cfg)
    metrics = run_failing(tmp_path, "spectrum", cfg)
    assert metrics["operation"] == "EigenSolverFailure"
    assert "eigenvalues are not finite" in metrics["error"]


# a linear damper or block gain this large overflows the recorded tangent
# norms after two steps, and a spring this large the skew defect's blocks
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode, modify, error", [
    pytest.param(mode, modify, error, id=f"{mode}-{modify.__name__}") for mode, modify, error in (
        ("simulate", _extreme("damper", "slope", 1e300), "recorded tangent norm is not finite (first at t=0.002)"),
        ("simulate", _extreme("block", "gain", 1e300), "recorded tangent norm is not finite (first at t=0.002)"),
        ("skew", _extreme("spring", "slope", 1e300), "skew-adjointness defect is nan"),
    )
])
def test_extreme_laws_and_blocks_exit_3(tmp_path, mode, modify, error):
    cfg = base_config(mesh={"n_elements": 8}, integrator={"dt": 0.001, "t_end": 0.01})
    modify(cfg)
    metrics = run_failing(tmp_path, mode, cfg)
    assert metrics["operation"] == "NonFiniteResult"
    assert error in metrics["error"]


# the bare beam's Rayleigh-Ritz projection overflows; at a vanishing length
# the reference frequency overflows before the bands do
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value, error", [
    ("rho", 1e150, "Rayleigh-Ritz step of the bare beam failed"),
    ("lambda_rigidity", 1e-300, "Rayleigh-Ritz step of the bare beam failed"),
    ("length", 1e-300, "stiffness_band is not finite"),
], ids=["rho", "lambda_rigidity", "length"])
def test_convergence_at_extreme_parameters_exits_3(tmp_path, key, value, error):
    cfg = base_config(mesh={"n_elements": 8}, convergence={"meshes": [4, 8]})
    cfg["beam"][key] = value
    metrics = run_failing(tmp_path, "convergence", cfg)
    assert error in metrics["error"]


# the Ritz values 1 / omega^2 underflow to 0: omega would be written as inf
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("rho", 1e-150)])
def test_convergence_with_an_infinite_frequency_exits_3(tmp_path, key, value):
    cfg = base_config(convergence={"meshes": [4, 8]})
    cfg["beam"][key] = value
    metrics = run_failing(tmp_path, "convergence", cfg)
    assert metrics["operation"] == "NonFiniteResult"
    assert "bare-beam frequency omega is not finite" in metrics["error"]
    assert not (tmp_path / "out" / "convergence.csv").exists()


# a rescaled stiffness rescales omega by its square root; the reference
# frequency and the errors relative to it do not move
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("lambda_rigidity", 1e150), ("lambda_rigidity", 1e-150)])
def test_convergence_of_a_rescaled_beam_exits_0(tmp_path, key, value):
    omegas = []
    for scale in (1.0, value):
        cfg = base_config(convergence={"meshes": [4, 8]})
        cfg["beam"][key] = scale
        out = tmp_path / f"out-{scale:g}"
        assert cli.run("convergence", write_config(tmp_path, cfg), out=out) == 0
        rows = (out / "convergence.csv").read_text().strip().splitlines()[1:]
        omegas.append(np.array([float(r.split(",")[1]) for r in rows]))
    unit, scaled = omegas
    assert np.abs(scaled / np.sqrt(value) - unit).max() <= 1e-12 * unit.max()


# h**2 of the element length 1.25e-301 underflows to 0 in the Hermite shapes
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["spectrum", "skew", "simulate"])
def test_vanishing_length_exits_3(tmp_path, mode):
    cfg = base_config(mesh={"n_elements": 8}, integrator={"dt": 0.001, "t_end": 0.01})
    cfg["beam"]["length"] = 1e-300
    metrics = run_failing(tmp_path, mode, cfg)
    assert metrics["operation"] == "NonFiniteResult"
    assert "stiffness_band is not finite" in metrics["error"]


def test_convergence_mode(tmp_path):
    cfg = base_config()
    cfg["convergence"] = {"meshes": [4, 8, 16]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.run("convergence", path, out=out) == 0
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    errs = [float(r.split(",")[3]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]
    orders = [float(r.split(",")[4]) for r in rows[2:]]
    assert all(o >= 2.0 for o in orders)


def test_seed_override_recorded(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.run("certify", path, out=out, seed=42) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 42


def test_missing_required_section(tmp_path):
    cfg = base_config()
    del cfg["rotational"]
    path = write_config(tmp_path, cfg)
    assert cli.run("certify", path, out=tmp_path / "out") == 1


def test_main_entry_point(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "key,value",
    [("samples", 50), ("samples", "many"), ("samples", 150.5), ("radius", -1), ("radius", 0),
     ("radius", "wide"), ("h_threshold", "low"), ("h_threshold", True)],
)
def test_bad_certify_values_exit_1(tmp_path, capsys, key, value):
    cfg = base_config()
    cfg["certify"][key] = value
    path = write_config(tmp_path, cfg)
    assert cli.run("certify", path, out=tmp_path / "out") == 1
    assert f"certify.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,value",
    [
        ("certify", 5),
        ("mesh", {"n_elements": "x"}),
        ("beam", {"rho": -1, "lambda_rigidity": 1.0, "length": 1.0, "tip_inertia": 0.1, "tip_mass": 0.1}),
        ("integrator", {"dt": 1.0, "t_end": 0.5}),
        ("integrator", {"dt": 0.003, "t_end": 0.01}),
        ("initial", {"tip_fraction": "a"}),
        ("initial", {"tip_fraction": float("nan")}),
        ("initial", {"tip_fraction": float("inf")}),
        ("integrator", {"dt": 0.001, "t_end": 0.5, "newton_tol": float("nan")}),
        ("integrator", {"dt": 0.001, "t_end": 0.5, "newton_max_iter": 2.9}),
        ("convergence", {"meshes": []}),
        ("convergence", {"meshes": [0, 4]}),
        ("convergence", {"meshes": [4.7, 8]}),
        ("convergence", {"meshes": ["4"]}),
        ("convergence", {"meshes": [True]}),
        ("seed", 1.7),
        ("seed", -1),
        ("integrator", {"dt": 0.001, "t_end": 0.5, "record_every": 2.5}),
        ("beam", {"rho": True, "lambda_rigidity": 1.0, "length": 1.0, "tip_inertia": 0.1, "tip_mass": 0.1}),
        ("convergence", {"meshes": [8, 8, 4]}),
    ],
)
def test_bad_section_values_exit_1(tmp_path, capsys, section, value):
    cfg = base_config()
    cfg[section] = value
    path = write_config(tmp_path, cfg)
    assert cli.run("simulate", path, out=tmp_path / "out") == 1
    assert section in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "mode,section,value,key",
    [
        ("simulate", "mesh", {"n_elements": 10**9}, "mesh.n_elements"),
        ("spectrum", "mesh", {"n_elements": cli.MAX_ELEMENTS + 1}, "mesh.n_elements"),
        ("convergence", "convergence", {"meshes": [16, 10**9]}, "convergence.meshes"),
        ("certify", "certify", {"radius": 1.5, "samples": 10**9}, "certify.samples"),
        ("certify", "certify", {"radius": 1.5, "samples": cli.MAX_SAMPLES + 1}, "certify.samples"),
        ("simulate", "integrator", {"dt": 1e-6, "t_end": 1e6}, "integrator.t_end"),
        ("simulate", "integrator", {"dt": 1e-300, "t_end": 1e300}, "integrator.t_end"),
    ],
)
def test_values_over_their_limit_exit_1_before_allocating(tmp_path, capsys, mode, section, value, key):
    cfg = base_config(convergence={"meshes": [4, 8]})
    cfg[section] = value
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert cli.run(mode, path, out=tmp_path / "out") == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("record_every, code", [(1, 1), (10**4, 2)])
def test_stored_records_are_bounded_before_allocating(tmp_path, capsys, monkeypatch, record_every, code):
    # 4,096 elements and 10^7 steps: 10^7 / record_every + 1 records of
    # 16,386 values. A run within the bound goes on to certification, which
    # fails here (exit 2) before the system is assembled.
    monkeypatch.setattr(cli, "_certify", lambda *args: False)
    cfg = base_config(mesh={"n_elements": cli.MAX_ELEMENTS},
                      integrator={"dt": 1e-3, "t_end": cli.MAX_STEPS * 1e-3, "record_every": record_every})
    path = write_config(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert cli.run("simulate", path, out=tmp_path / "out") == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ("integrator.record_every" in capsys.readouterr().err) == (code == 1)
    assert peak < 2**20


def test_values_at_their_limit_are_accepted():
    cfg = base_config(convergence={"meshes": [cli.MAX_ELEMENTS]})
    cfg["mesh"]["n_elements"] = cli.MAX_ELEMENTS
    cfg["certify"]["samples"] = cli.MAX_SAMPLES
    cfg["integrator"] = {"dt": 1e-3, "t_end": cli.MAX_STEPS * 1e-3}
    run = cli.RunConfig(cfg, "simulate")
    assert (run.n_elements, run.meshes) == (cli.MAX_ELEMENTS, [cli.MAX_ELEMENTS])
    assert run.certify["samples"] == cli.MAX_SAMPLES
    assert run.integrator.n_steps == cli.MAX_STEPS


def test_shared_objects_are_certified_once_with_the_same_report(tmp_path, monkeypatch):
    path = write_config(tmp_path, base_config())
    calls = []
    for name in ("certify_spring_damper", "certify_block"):
        original = getattr(cli.assumptions, name)
        monkeypatch.setattr(cli.assumptions, name,
                            lambda part, *a, _f=original, **k: calls.append(id(part)) or _f(part, *a, **k))
    assert cli.run("certify", path, out=tmp_path / "shared") == 0
    assert len(calls) == len(set(calls)) == 2
    # distinct objects of the same specs: four certifications, the same bytes
    monkeypatch.setattr(cli.RunConfig, "closed_loop", lambda self: cli.ClosedLoopConfig(
        self.beam, *(self.build_channel(c, {})[0] for c in ("rotational", "translational")),
        *(self.build_channel(c, {})[1] for c in ("rotational", "translational"))))
    assert cli.run("certify", path, out=tmp_path / "distinct") == 0
    assert len(calls) == 6
    assert (tmp_path / "shared" / "certification.json").read_bytes() == \
        (tmp_path / "distinct" / "certification.json").read_bytes()
