"""Config ingestion, mode dispatch, artifacts, exit codes, determinism."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from passivebeam import cli


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
