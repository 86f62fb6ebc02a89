"""Batch front-end: config ingestion, run orchestration, reports, plots.

One JSON config file drives one run. Modes: certify, simulate, spectrum,
skew, convergence. Exit codes: 0 success, 1 config error, 2 certification
failure, 3 numerical failure. All emitted files are listed with content
hashes in summary.json; identical config and seed give byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, assumptions, discretization, dynamics, integrator
from ._svg import line_plot_svg
from .beam_model import (
    BeamParams,
    ClosedLoopConfig,
    SpringDamperLaw,
    make_block,
    make_law,
)
from .errors import ConfigParseError, PassiveBeamError

MODES = ("certify", "simulate", "spectrum", "skew", "convergence")

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "mode",
    "seed",
    "output_dir",
    "beam",
    "mesh",
    "rotational",
    "translational",
    "integrator",
    "initial",
    "certify",
    "convergence",
}
_BEAM_KEYS = {"rho", "lambda_rigidity", "length", "tip_inertia", "tip_mass"}
_MESH_KEYS = {"n_elements"}
_CHANNEL_KEYS = {"damper", "spring", "block"}
_NAMED_KEYS = {"name", "params"}
_INTEGRATOR_KEYS = {"dt", "t_end", "newton_tol", "newton_max_iter", "record_every"}
_INITIAL_KEYS = {"kind", "tip_fraction"}
_CERTIFY_KEYS = {"radius", "samples", "h_threshold"}
_CONVERGENCE_KEYS = {"meshes"}

#: upper limits: elements of a mesh (``mesh.n_elements`` and each of
#: ``convergence.meshes``), ``certify.samples``, steps t_end / dt, and the
#: values simulate stores, records x packed state width (800 MB of doubles)
MAX_ELEMENTS = 4096
MAX_SAMPLES = 100_000
MAX_STEPS = 10_000_000
MAX_RECORD_VALUES = 100_000_000


def _number(value, where: str, expect: str = "a number", ok=lambda v: True):
    """``value`` if it is a finite JSON number that satisfies ``ok``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and np.isfinite(value) and ok(value)):
        raise ConfigParseError(f"{where} must be {expect}, got {value!r}")
    return value


def _count(value, where: str, least: int, most: int | None = None) -> int:
    """``value`` as an int if it is a whole JSON number >= ``least`` (and
    <= ``most``, when given)."""
    expect = f"an integer >= {least}" + ("" if most is None else f" and <= {most}")
    return int(_number(value, where, expect,
                       lambda v: float(v).is_integer() and v >= least and (most is None or v <= most)))


@contextlib.contextmanager
def _section(parent: dict, key: str | None, allowed: set, required=(), where: str | None = None):
    """The config section ``parent[key]`` (``parent`` itself for key None),
    checked for unknown and missing keys; a bad value met while parsing it is
    a ConfigParseError naming the section."""
    where = where or key
    section = parent if key is None else parent[key]
    if not isinstance(section, dict):
        raise ConfigParseError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigParseError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigParseError(f"missing keys in {where}: {missing}")
    try:
        yield section
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"bad value in {where}: {exc}") from exc


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict, mode: str, seed_override=None, out_override=None):
        with _section(raw, None, _TOP_KEYS, ["beam"], "config root"):
            version = raw.get("schema_version")
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ConfigParseError(f"schema_version must be the integer {SCHEMA_VERSION}, got {version!r}")
            if "mode" in raw and raw["mode"] != mode:
                raise ConfigParseError(
                    f"config mode {raw['mode']!r} does not match requested mode {mode!r}"
                )
            if mode not in MODES:
                raise ConfigParseError(f"mode must be one of {MODES}")
            self.seed = _count(seed_override if seed_override is not None else raw.get("seed", 0), "seed", 0)
            self.output_dir = Path(out_override if out_override is not None else raw.get("output_dir", "out"))
        self.mode = mode

        with _section(raw, "beam", _BEAM_KEYS, _BEAM_KEYS) as section:
            self.beam = BeamParams(**{k: float(_number(section[k], f"beam.{k}")) for k in _BEAM_KEYS})

        self.n_elements = None
        if "mesh" in raw:
            with _section(raw, "mesh", _MESH_KEYS, _MESH_KEYS) as section:
                self.n_elements = _count(section["n_elements"], "mesh.n_elements", 1, MAX_ELEMENTS)

        self.channels = {}
        for channel in ("rotational", "translational"):
            if channel not in raw:
                continue
            with _section(raw, channel, _CHANNEL_KEYS, _CHANNEL_KEYS) as section:
                self.channels[channel] = {}
                for part in _CHANNEL_KEYS:
                    with _section(section, part, _NAMED_KEYS, ["name"], f"{channel}.{part}") as entry:
                        self.channels[channel][part] = (str(entry["name"]), dict(entry.get("params", {})))

        self.integrator = None
        if "integrator" in raw:
            with _section(raw, "integrator", _INTEGRATOR_KEYS, ["dt", "t_end"]) as section:
                dt = float(_number(section["dt"], "integrator.dt"))
                t_end = float(_number(section["t_end"], "integrator.t_end"))
                if dt > 0.0 and t_end / dt > MAX_STEPS:
                    raise ConfigParseError(
                        f"integrator.t_end must be at most {MAX_STEPS} steps of integrator.dt, "
                        f"got t_end / dt = {t_end / dt:.6g}")
                self.integrator = integrator.IntegratorSettings(
                    dt=dt,
                    t_end=t_end,
                    newton_tol=float(_number(section.get("newton_tol", 1e-10), "integrator.newton_tol")),
                    newton_max_iter=_count(section.get("newton_max_iter", 25), "integrator.newton_max_iter", 1),
                    record_every=_count(section.get("record_every", 1), "integrator.record_every", 1),
                )

        self.initial = {"kind": "first-mode", "tip_fraction": 0.1}
        if "initial" in raw:
            with _section(raw, "initial", _INITIAL_KEYS) as section:
                self.initial.update(section)
                if self.initial["kind"] not in ("first-mode", "zero"):
                    raise ConfigParseError("initial.kind must be 'first-mode' or 'zero'")
                self.initial["tip_fraction"] = float(_number(self.initial["tip_fraction"], "initial.tip_fraction"))

        certify = {"radius": 2.0, "samples": 300, "h_threshold": 0.0}
        if "certify" in raw:
            with _section(raw, "certify", _CERTIFY_KEYS) as section:
                certify.update(section)
        self.certify = {
            "radius": float(_number(certify["radius"], "certify.radius",
                                    f"a number > 0 and <= {assumptions.MAX_RADIUS}",
                                    lambda v: 0 < v <= assumptions.MAX_RADIUS)),
            "samples": _count(certify["samples"], "certify.samples", 100, MAX_SAMPLES),
            "h_threshold": float(_number(certify["h_threshold"], "certify.h_threshold")),
        }

        self.meshes = None
        if "convergence" in raw:
            with _section(raw, "convergence", _CONVERGENCE_KEYS, ["meshes"]) as section:
                meshes = section["meshes"]
                if not isinstance(meshes, list) or not meshes:
                    raise ConfigParseError(f"convergence.meshes must be a non-empty list, got {meshes!r}")
                self.meshes = [_count(m, "convergence.meshes", 1, MAX_ELEMENTS) for m in meshes]
                if len(set(self.meshes)) != len(self.meshes):
                    raise ConfigParseError(f"convergence.meshes must be distinct, got {meshes!r}")

    # -- builders -----------------------------------------------------------
    def needs(self, *attrs):
        for attr in attrs:
            if getattr(self, attr) in (None, {}):
                raise ConfigParseError(f"mode {self.mode!r} requires the {attr!r} section")

    def build_channel(self, channel: str, built: dict):
        """The spring-damper law and block of ``channel``. ``built`` maps
        each spec already built, (kind, name, params), to its object, which
        is then handed out again; specs built here are added to it."""
        try:
            names = self.channels[channel]
        except KeyError:
            raise ConfigParseError(f"mode {self.mode!r} requires the {channel!r} section") from None

        def build(kind, part, make):
            name, params = names[part]
            key = (kind, name, json.dumps(params, sort_keys=True))
            if key not in built:
                built[key] = make(name, **params)
            return built[key]

        try:
            damper, spring = build("law", "damper", make_law), build("law", "spring", make_law)
            block = build("block", "block", make_block)
            key = ("spring-damper", id(damper), id(spring))  # both laws are held in built
            if key not in built:
                built[key] = SpringDamperLaw(damper=damper, spring=spring)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigParseError(f"bad {channel} channel: {exc}") from exc
        return built[key], block

    def closed_loop(self) -> ClosedLoopConfig:
        """The closed loop of the two channels. Equal specs, the same name
        and params, build one object within this call, which both channels
        share; the loop then evaluates them together."""
        built = {}
        sd1, blk1 = self.build_channel("rotational", built)
        sd2, blk2 = self.build_channel("translational", built)
        return ClosedLoopConfig(
            beam=self.beam,
            sd_rotational=sd1,
            sd_translational=sd2,
            block_rotational=blk1,
            block_translational=blk2,
        )

    def system(self) -> discretization.DiscreteSystem:
        self.needs("n_elements")
        mesh = discretization.build_mesh(self.beam, self.n_elements)
        return discretization.assemble(self.beam, mesh)


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------

def _csv_lines(rows) -> list[str]:
    """Rows of numbers as comma-separated lines, each value printed once
    with 17 significant digits."""
    rows = np.asarray(rows, dtype=float)
    template = ",".join(["%.17g"] * rows.shape[1])
    return [template % tuple(row) for row in rows.tolist()]


class ArtifactWriter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def _register(self, name: str):
        digest = hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest()
        self.files[name] = digest

    def write_csv(self, name: str, header, lines):
        """A header and the lines of ``_csv_lines``."""
        with open(self.out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join([",".join(header), *lines]) + "\n")
        self._register(name)

    def write_json(self, name: str, payload: dict, register: bool = True):
        with open(self.out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if register:
            self._register(name)

    def write_svg(self, name: str, series, title, xlabel, ylabel, logy=False):
        line_plot_svg(self.out_dir / name, series, title, xlabel, ylabel, logy=logy)
        self._register(name)

    def summary(self, mode: str, seed: int, exit_status: int, metrics: dict):
        payload = {
            "mode": mode,
            "seed": seed,
            "exit_status": exit_status,
            "files": dict(sorted(self.files.items())),
            "metrics": metrics,
        }
        self.write_json("summary.json", payload, register=False)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _certify(cfg: RunConfig, writer: ArtifactWriter, loop: ClosedLoopConfig) -> bool:
    """Certify the four channels and write certification.json; on a failure
    also write the summary of exit status 2. An object that two channels
    share is certified once and its report written under both names. An
    uncertifiable block exits 1."""
    radius, samples, threshold = (cfg.certify[k] for k in ("radius", "samples", "h_threshold"))
    reports, done = {}, {}  # done: id of each object certified -> its report
    for name in ("sd_rotational", "sd_translational", "block_rotational", "block_translational"):
        part = getattr(loop, name)
        if id(part) not in done:
            if name.startswith("sd_"):
                done[id(part)] = assumptions.certify_spring_damper(part, radius, samples, seed=cfg.seed)
            else:
                try:
                    done[id(part)] = assumptions.certify_block(
                        part, radius, max(samples, 100 * part.dim), h_threshold=threshold, seed=cfg.seed
                    )
                except ValueError as exc:
                    raise ConfigParseError(f"cannot certify {name}: {exc}") from exc
        reports[name] = done[id(part)]
    passed = all(r.passed for r in reports.values())
    payload = {name: rep.as_dict() for name, rep in reports.items()}
    payload["passed"] = passed
    writer.write_json("certification.json", payload)
    if not passed:
        writer.summary(cfg.mode, cfg.seed, 2, {"certification_passed": False})
    return passed


def _mode_certify(cfg: RunConfig, writer: ArtifactWriter) -> int:
    if not _certify(cfg, writer, cfg.closed_loop()):
        return 2
    writer.summary(cfg.mode, cfg.seed, 0, {"certification_passed": True})
    return 0


def _mode_simulate(cfg: RunConfig, writer: ArtifactWriter) -> int:
    loop = cfg.closed_loop()
    cfg.needs("integrator", "n_elements")
    # simulate stores every record, steps 0, record_every, ... and the last
    records = -(-cfg.integrator.n_steps // cfg.integrator.record_every) + 1
    width = 4 * cfg.n_elements + loop.block_rotational.dim + loop.block_translational.dim
    if records * width > MAX_RECORD_VALUES:
        raise ConfigParseError(
            f"integrator.record_every must keep the stored records within {MAX_RECORD_VALUES} values, "
            f"got {records} records of {width} values")
    if not _certify(cfg, writer, loop):
        return 2
    sys_d = cfg.system()
    if cfg.initial["kind"] == "zero":
        y0 = dynamics.zero_state(sys_d, loop)
    else:
        y0 = integrator.first_mode_initial_state(sys_d, loop, tip_fraction=cfg.initial["tip_fraction"])
    traj = integrator.simulate(y0, cfg.integrator, sys_d, loop)

    # energy.csv holds the leading columns of trajectory.csv: format them once
    table = traj.csv_table()
    width = len(dynamics.EnergyBreakdown.CSV_COLUMNS)
    energy_lines = _csv_lines(table[:, :width])
    writer.write_csv("energy.csv", dynamics.EnergyBreakdown.CSV_COLUMNS, energy_lines)
    writer.write_csv("trajectory.csv", integrator.Trajectory.CSV_COLUMNS,
                     [f"{head},{tail}" for head, tail in zip(energy_lines, _csv_lines(table[:, width:]))])

    totals = traj.totals()
    writer.write_svg(
        "energy.svg",
        [
            ("H(t)", list(traj.times), list(totals)),
            ("|y|_Q", list(traj.times), list(traj.state_norms)),
        ],
        "closed-loop energy decay",
        "t",
        "energy / norm",
        logy=True,
    )
    report = analysis.decay_metrics(traj)
    metrics = report.as_dict()
    metrics["h_flagged"] = bool(traj.h_flagged)
    metrics["h_increase_max"] = float(traj.h_increase_max)
    writer.summary(cfg.mode, cfg.seed, 0, metrics)
    return 0


def _mode_spectrum(cfg: RunConfig, writer: ArtifactWriter) -> int:
    loop = cfg.closed_loop()
    if not _certify(cfg, writer, loop):
        return 2
    sys_d = cfg.system()
    report = analysis.spectrum(sys_d, loop)
    eigs = report.eigenvalues
    writer.write_csv("spectrum.csv", ("re", "im"), _csv_lines(np.column_stack([eigs.real, eigs.imag])))
    writer.summary(cfg.mode, cfg.seed, 0, report.as_dict())
    return 0


def _mode_skew(cfg: RunConfig, writer: ArtifactWriter) -> int:
    loop = cfg.closed_loop()
    sys_d = cfg.system()
    k1 = loop.sd_rotational.spring_slope
    k2 = loop.sd_translational.spring_slope
    defect = analysis.skew_check(sys_d, (k1, k2))
    writer.summary(cfg.mode, cfg.seed, 0, {
        "skew_defect": defect,
        "n_elements": cfg.n_elements,
        "spring_constants": [k1, k2],
    })
    return 0


def _mode_convergence(cfg: RunConfig, writer: ArtifactWriter) -> int:
    cfg.needs("meshes")
    beta1 = analysis.clamped_free_wavenumbers(cfg.beam.length, count=1)[0]
    with np.errstate(over="ignore"):  # the first mesh raises where the reference overflows
        omega_ref = beta1**2 * np.sqrt(cfg.beam.lambda_rigidity / cfg.beam.rho)
    rows = []
    prev = None
    for n in cfg.meshes:
        mesh = discretization.build_mesh(cfg.beam, n)
        sys_d = discretization.assemble(cfg.beam, mesh)
        omega = analysis.beam_frequencies(sys_d, count=1)[0]
        err = abs(omega - omega_ref) / omega_ref
        order = float("nan") if prev is None else np.log(prev[1] / err) / np.log(n / prev[0])
        rows.append((n, omega, omega_ref, err, order))
        prev = (n, err)
    writer.write_csv(
        "convergence.csv", ("n_elements", "omega", "omega_ref", "rel_error", "observed_order"), _csv_lines(rows)
    )
    metrics = {"omega_ref": float(omega_ref), "final_rel_error": float(rows[-1][3])}
    writer.summary(cfg.mode, cfg.seed, 0, metrics)
    return 0


_MODE_RUNNERS = {
    "certify": _mode_certify,
    "simulate": _mode_simulate,
    "spectrum": _mode_spectrum,
    "skew": _mode_skew,
    "convergence": _mode_convergence,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_config(path, mode: str, seed_override=None, out_override=None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    return RunConfig(raw, mode, seed_override=seed_override, out_override=out_override)


def run(mode: str, config_path, out=None, seed=None) -> int:
    """Load a config and dispatch one mode; returns the process exit status."""
    try:
        cfg = load_config(config_path, mode, seed_override=seed, out_override=out)
    except ConfigParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    writer = ArtifactWriter(cfg.output_dir)
    try:
        return _MODE_RUNNERS[mode](cfg, writer)
    except ConfigParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PassiveBeamError as exc:
        operation = type(exc).__name__
        print(f"numerical failure ({operation}): {exc}", file=sys.stderr)
        writer.summary(mode, cfg.seed, 3, {"error": str(exc), "operation": operation})
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="passivebeam",
        description="Simulate and certify the beam with passive tip feedback.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed (overrides config)")
    args = parser.parse_args(argv)
    return run(args.mode, args.config, out=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
