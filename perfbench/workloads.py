"""The benchmark's workloads: generated configs, the set-up phase, output checks.

A workload is a list of CLI operations. Each operation is one
``passivebeam.cli.run(mode, config, out=..., seed=...)`` call plus the checks
on what it wrote. The config files are fixed; the workload seed reaches the
program only as the CLI ``--seed``, which seeds certification sampling.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: README channels: tanh dampers, cubic springs, cubic-drift blocks.
_CHANNEL = {
    "damper": {"name": "tanh", "params": {"gain": 2.0}},
    "spring": {"name": "cubic", "params": {}},
    "block": {"name": "cubic-drift", "params": {}},
}
_BASE = {
    "schema_version": 1,
    "seed": 0,
    "beam": {"rho": 1.0, "lambda_rigidity": 1.0, "length": 1.0,
             "tip_inertia": 0.1, "tip_mass": 0.1},
    "rotational": _CHANNEL,
    "translational": _CHANNEL,
    "initial": {"kind": "first-mode", "tip_fraction": 0.1},
    "certify": {"radius": 1.5, "samples": 300, "h_threshold": 0.0},
}

#: Relative tolerance on H(t_end)/H(0). Halving dt moves the ratio by 4.1e-6
#: (sim-dense) and 3.3e-7 (sim-sparse); tightening the Newton tolerance from
#: 1e-10 to 1e-13 moves it by 3.3e-8 (sim-dense). The check sits between.
DECAY_RTOL = 1e-7
SKEW_MAX = 1e-12
MIN_ORDER = 2.0


def _config(**sections) -> dict:
    cfg = copy.deepcopy(_BASE)
    for key, value in sections.items():
        cfg[key] = copy.deepcopy(value)
    return cfg


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[Path], None]  # raises CheckFailed (or any error) on a bad output


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_not_flagged(out: Path):
    _require(_summary(out)["metrics"]["h_flagged"] is False, "h_flagged is set")


def _check_decay(reference: float):
    def run(out: Path):
        rows = _rows(out / "energy.csv")
        ratio = float(rows[-1]["total"]) / float(rows[0]["total"])
        _require(math.isclose(ratio, reference, rel_tol=DECAY_RTOL, abs_tol=0.0),
                 f"H(t_end)/H(0) = {ratio!r}, reference {reference!r}")
    return run


def _check_csv_rows(n_steps: int, record_every: int, t_end: float):
    records = n_steps // record_every + 1 + (1 if n_steps % record_every else 0)

    def run(out: Path):
        for name in ("energy.csv", "trajectory.csv"):
            rows = _rows(out / name)
            _require(len(rows) == records, f"{name}: {len(rows)} rows, expected {records}")
            _require(float(rows[-1]["t"]) == t_end, f"{name}: last t {rows[-1]['t']} != {t_end}")
    return run


def _check_certified(passed: bool):
    def run(out: Path):
        cert = json.loads((out / "certification.json").read_text(encoding="utf-8"))
        _require(cert["passed"] is passed, f"certification passed={cert['passed']}")
        if not passed:
            witnessed = [
                check["name"]
                for report in cert.values() if isinstance(report, dict)
                for check in report["checks"]
                if not check["passed"] and check["witness"] is not None
            ]
            _require(bool(witnessed), "failed certification carries no witness")
    return run


def _check_spectrum(n_elements: int):
    def run(out: Path):
        metrics = _summary(out)["metrics"]
        expected = 4 * n_elements + 4  # u, v: 2 DOFs per free node; two 2-state blocks
        rows = _rows(out / "spectrum.csv")
        _require(metrics["n_unstable"] == 0, f"n_unstable = {metrics['n_unstable']}")
        _require(len(rows) == expected and metrics["count"] == expected,
                 f"{len(rows)} eigenvalues, expected {expected}")
    return run


def _check_skew(out: Path):
    defect = _summary(out)["metrics"]["skew_defect"]
    _require(defect <= SKEW_MAX, f"skew defect {defect!r} > {SKEW_MAX}")


def _check_order(out: Path):
    # The order between the two coarsest meshes: finer meshes reach the
    # roundoff floor of the generalized eigensolve (rel. error ~1e-10 at
    # n=128, ~1e-7 at n=256), where an observed order means nothing.
    rows = _rows(out / "convergence.csv")
    order = float(rows[1]["observed_order"])
    _require(order >= MIN_ORDER, f"observed order {order!r} < {MIN_ORDER}")


@dataclass(frozen=True)
class Operation:
    """One CLI call: its config, the exit status it must return, its checks."""

    name: str
    mode: str
    config: dict
    expected_status: int
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def simulates(self) -> bool:
        return self.mode == "simulate"

    @property
    def uses_mesh(self) -> bool:
        return self.mode in ("simulate", "spectrum", "skew")

    @property
    def uses_loop(self) -> bool:
        return self.mode != "convergence"


def _simulate(name: str, n_elements: int, t_end: float, record_every: int,
              decay_reference: float) -> Operation:
    dt = 1e-3
    integ = {"dt": dt, "t_end": t_end, "record_every": record_every,
             "newton_tol": 1e-10, "newton_max_iter": 25}
    return Operation(
        name=name,
        mode="simulate",
        config=_config(mesh={"n_elements": n_elements}, integrator=integ),
        expected_status=0,
        checks=(
            Check("certified", _check_certified(True)),
            Check("not-flagged", _check_not_flagged),
            Check("decay-ratio", _check_decay(decay_reference)),
            Check("csv-rows", _check_csv_rows(round(t_end / dt), record_every, t_end)),
        ),
    )


_BROKEN_SPRING = dict(_CHANNEL, spring={"name": "softening-cubic", "params": {}})

#: Each workload stresses a different layer; README.md holds the reasons and
#: the prediction of which per-module metric each later change should move.
WORKLOADS: dict[str, tuple[Operation, ...]] = {
    "sim-dense-n16": (
        _simulate("simulate", 16, t_end=4.0, record_every=1,
                  decay_reference=0.003835169424018132),
    ),
    "sim-sparse-n128": (
        _simulate("simulate", 128, t_end=1.0, record_every=250,
                  decay_reference=0.23684156579218324),
    ),
    "verify-n256": (
        Operation("certify", "certify",
                  _config(certify={"radius": 1.5, "samples": 10000, "h_threshold": 0.0}),
                  0, (Check("certified", _check_certified(True)),)),
        Operation("spectrum", "spectrum", _config(mesh={"n_elements": 256}),
                  0, (Check("certified", _check_certified(True)),
                      Check("spectrum", _check_spectrum(256)))),
        Operation("skew", "skew", _config(mesh={"n_elements": 256}),
                  0, (Check("skew-defect", _check_skew),)),
        Operation("convergence", "convergence",
                  _config(convergence={"meshes": [16, 32, 64, 128, 256]}),
                  0, (Check("order", _check_order),)),
        Operation("certify-broken", "certify", _config(rotational=_BROKEN_SPRING),
                  2, (Check("witness", _check_certified(False)),)),
    ),
}


def write_configs(ops, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = directory / f"{op.name}.json"
        path.write_text(json.dumps(op.config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def set_up(cli, integrator, op: Operation, config_path: Path, seed: int, out: Path):
    """The public calls that prepare ``op``'s run, as ``cli.run`` makes them."""
    cfg = cli.load_config(config_path, op.mode, seed_override=seed, out_override=out)
    if not op.uses_loop:
        return
    loop = cfg.closed_loop()
    if not op.uses_mesh:
        return
    sys_d = cfg.system()
    if op.simulates:
        integrator.first_mode_initial_state(
            sys_d, loop, tip_fraction=float(cfg.initial["tip_fraction"]))
        integrator.MidpointStepper(sys_d, loop, cfg.integrator.dt)
