"""Traced run: spans around the public functions of each passivebeam module.

The wrappers live here, not in the program. ``Tracer.installed()`` puts a
wrapper in place of each target function in every passivebeam module
namespace that holds it (class methods on their class, the two LU routines on
``scipy.linalg``) and restores the originals on exit. A target the program no
longer has is skipped, and every metric that needs it is reported absent with
the reason, so the traced run survives code removed by later changes.

Each span records its name, start, end and parent span. Calls of the law and
block callables (damper, spring, drift, ...) are counted, not spanned: the
``make_law``/``make_block`` wrappers swap each callable field of the built
object for a counting one, and every span records the calls made inside it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

_PKG = "passivebeam"


def _lu_bytes(tracer, args, kwargs, result):
    # computed, not measured: a solve reads the N x N float64 LU factor once
    n = args[0][0].shape[0]
    return {"bytes": 8 * n * n}


def _csv_bytes(tracer, args, kwargs, result):
    writer, name = args[0], args[1]
    return {"bytes": (writer.out_dir / name).stat().st_size}


def _cert_counts(tracer, args, kwargs, result):
    return {"points": result.sample_count,
            "failed": sum(1 for check in result.checks if not check.passed)}


def _count_callbacks(tracer, args, kwargs, result):
    tracer.count_callbacks(result)


#: (span name, module, attribute path, meter). A meter maps (tracer, args,
#: kwargs, result) to counters stored on the span, or to None.
TARGETS = (
    ("cli.load_config", "passivebeam.cli", "load_config", None),
    ("cli.write_csv", "passivebeam.cli", "ArtifactWriter.write_csv", _csv_bytes),
    ("cli.write_svg", "passivebeam.cli", "ArtifactWriter.write_svg", None),
    ("beam_model.make_law", "passivebeam.beam_model", "make_law", _count_callbacks),
    ("beam_model.make_block", "passivebeam.beam_model", "make_block", _count_callbacks),
    ("beam_model.SpringDamperLaw", "passivebeam.beam_model", "SpringDamperLaw.__post_init__", None),
    ("beam_model.linearize_block", "passivebeam.beam_model", "linearize_block", None),
    ("discretization.assemble", "passivebeam.discretization", "assemble", None),
    ("dynamics.linear_generator_matrix", "passivebeam.dynamics", "linear_generator_matrix", None),
    ("dynamics.eval_H", "passivebeam.dynamics", "eval_H", None),
    ("dynamics.eval_Hdot", "passivebeam.dynamics", "eval_Hdot", None),
    ("dynamics.spring_potential", "passivebeam.dynamics", "spring_potential", None),
    ("dynamics.jacobian_fd", "passivebeam.dynamics", "RemainderMap.jacobian_fd", None),
    ("dynamics.jacobian_analytic", "passivebeam.dynamics", "RemainderMap.jacobian_analytic", None),
    ("integrator.simulate", "passivebeam.integrator", "simulate", None),
    ("integrator.step", "passivebeam.integrator", "MidpointStepper.step_flat", None),
    ("integrator.rhs", "passivebeam.integrator", "MidpointStepper.rhs", None),
    ("integrator.qnorm", "passivebeam.integrator", "MidpointStepper.qnorm", None),
    ("integrator.nonlinear_norm", "passivebeam.integrator", "MidpointStepper.nonlinear_norm", None),
    ("integrator.generator_norm", "passivebeam.integrator", "MidpointStepper.generator_norm", None),
    ("integrator.lu_solve", "scipy.linalg", "lu_solve", _lu_bytes),
    ("integrator.lu_factor", "scipy.linalg", "lu_factor", None),
    ("assumptions.certify_spring_damper", "passivebeam.assumptions", "certify_spring_damper", _cert_counts),
    ("assumptions.certify_block", "passivebeam.assumptions", "certify_block", _cert_counts),
    ("analysis.spectrum", "passivebeam.analysis", "spectrum", None),
    ("analysis.skew_check", "passivebeam.analysis", "skew_check", None),
    ("analysis.beam_frequencies", "passivebeam.analysis", "beam_frequencies", None),
    ("analysis.decay_metrics", "passivebeam.analysis", "decay_metrics", None),
)


class Tracer:
    """Spans in memory, as parallel lists indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.calls: list[int] = []  # law/block callback calls made inside the span
        self.points: list[int] = []  # elements passed to those calls
        self.work: dict[int, dict] = {}
        self._stack = [-1]
        self._callback_calls = 0
        self._callback_points = 0
        self.missing: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, meter):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.calls.append(tracer._callback_calls)
            tracer.points.append(tracer._callback_points)
            tracer.end.append(0)
            tracer._stack.append(i)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                tracer._stack.pop()
                tracer.calls[i] = tracer._callback_calls - tracer.calls[i]
                tracer.points[i] = tracer._callback_points - tracer.points[i]
            if meter is not None:
                counters = meter(tracer, args, kwargs, result)
                if counters is not None:
                    tracer.work[i] = counters
            return result

        return wrapper

    def count_callbacks(self, obj):
        """Swap each callable field of a law or block for a counting one."""
        tracer = self

        def counting(fn):
            def wrapper(*args):
                tracer._callback_calls += 1
                tracer._callback_points += getattr(args[0], "size", 1) if args else 0
                return fn(*args)
            return wrapper

        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if callable(value):
                object.__setattr__(obj, f.name, counting(value))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        restore = []
        try:
            for name, module, path, meter in TARGETS:
                try:
                    owner = importlib.import_module(module)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError) as exc:
                    self.missing[name] = f"wrap target {module}.{path} not found ({exc})"
                    continue
                wrapper = self._span(name, original, meter)
                if isinstance(owner, type):
                    restore.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
                    continue
                holders = [owner] + [
                    mod for key, mod in sys.modules.items()
                    if (key == _PKG or key.startswith(_PKG + ".")) and mod is not owner
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,parent,start_ns,end_ns,callback_calls,callback_points\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.start[i]},"
                         f"{self.end[i]},{self.calls[i]},{self.points[i]}\n")


class Rep:
    """Queries over the spans of one traced repetition, [first, last)."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        self.t = tracer
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_ns = defaultdict(int)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i in range(first, last):
            self.by_name[tracer.names[tracer.name[i]]].append(i)
            p = tracer.parent[i]
            if p >= first:
                self.child_ns[p] += tracer.end[i] - tracer.start[i]
                self.children[p].append(i)

    def spans(self, name: str, under: str | None = None) -> list[int]:
        found = self.by_name.get(name, [])
        if under is None:
            return found
        t = self.t
        return [i for i in found
                if t.parent[i] >= 0 and t.names[t.name[t.parent[i]]] == under]

    def count(self, name, under=None) -> int:
        return len(self.spans(name, under))

    def ns(self, name, under=None) -> int:
        t = self.t
        return sum(t.end[i] - t.start[i] for i in self.spans(name, under))

    def self_ns(self, name, under=None) -> int:
        t = self.t
        return sum(t.end[i] - t.start[i] - self.child_ns[i] for i in self.spans(name, under))

    def calls(self, name, under=None) -> int:
        return sum(self.t.calls[i] for i in self.spans(name, under))

    def points(self, name, under=None) -> int:
        return sum(self.t.points[i] for i in self.spans(name, under))

    def work(self, name, key, under=None) -> float:
        return sum(self.t.work[i][key] for i in self.spans(name, under))

    def top_ns(self, names) -> int:
        """Duration of the spans in ``names`` not nested in another of them."""
        t = self.t
        total = 0
        for name in names:
            for i in self.spans(name):
                p = t.parent[i]
                if p < 0 or t.names[t.name[p]] not in names:
                    total += t.end[i] - t.start[i]
        return total


STEP = "integrator.step"
SIM = "integrator.simulate"
RECORD = ("dynamics.eval_H", "dynamics.eval_Hdot",
          "integrator.nonlinear_norm", "integrator.generator_norm")
LAW, BLOCK = "beam_model.make_law", "beam_model.make_block"
CONSTRUCT = (LAW, BLOCK, "beam_model.SpringDamperLaw")
CERTIFY = ("assumptions.certify_spring_damper", "assumptions.certify_block")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _per_step(r: Rep, value) -> float:
    return _ratio(value, r.count(STEP))


def _per_record(r: Rep, value) -> float:
    return _ratio(value, r.count("dynamics.eval_H", SIM))


def _newton_max(r: Rep) -> float:
    t = r.t
    rhs = t._ids.get("integrator.rhs")
    return float(max((sum(1 for c in r.children[i] if t.name[c] == rhs) - 1
                      for i in r.spans(STEP)), default=0))


_US, _S = 1e-3, 1e-9

#: name -> (unit, better, spans it needs, value from one repetition's spans).
#: *_us integrator/Jacobian metrics are per time step, *_us record metrics per
#: recorded sample, *_s metrics per workload repetition.
METRICS = {
    "integrator.lu_solve_us": ("us", "lower", (STEP, "integrator.lu_solve"),
                               lambda r: _per_step(r, r.ns("integrator.lu_solve", STEP)) * _US),
    "integrator.lu_solve_bytes_per_step": ("bytes", "lower", (STEP, "integrator.lu_solve"),
                                           lambda r: _per_step(r, r.work("integrator.lu_solve", "bytes", STEP))),
    "integrator.rhs_us": ("us", "lower", (STEP, "integrator.rhs"),
                          lambda r: _per_step(r, r.ns("integrator.rhs", STEP)) * _US),
    "integrator.qnorm_us": ("us", "lower", (STEP, "integrator.qnorm"),
                            lambda r: _per_step(r, r.ns("integrator.qnorm", STEP)) * _US),
    "integrator.step_us": ("us", "lower", (STEP,),
                           lambda r: _per_step(r, r.ns(STEP)) * _US),
    "integrator.step_self_us": ("us", "lower", (STEP,),
                                lambda r: _per_step(r, r.self_ns(STEP)) * _US),
    "integrator.factor_s": ("s", "lower", ("integrator.lu_factor",),
                            lambda r: r.ns("integrator.lu_factor") * _S),
    "dynamics.linear_generator_matrix_s": ("s", "lower", ("dynamics.linear_generator_matrix",),
                                           lambda r: r.ns("dynamics.linear_generator_matrix") * _S),
    "discretization.assemble_s": ("s", "lower", ("discretization.assemble",),
                                  lambda r: r.ns("discretization.assemble") * _S),
    "integrator.newton_iters_per_step": ("count", "lower", (STEP, "integrator.rhs"),
                                         lambda r: _per_step(r, r.count("integrator.rhs", STEP) - r.count(STEP))),
    "integrator.newton_iters_max": ("count", "lower", (STEP, "integrator.rhs"), _newton_max),
    "integrator.jacobian_refreshes_per_step": (
        "count", "lower", (STEP,),
        lambda r: _per_step(r, r.count("dynamics.jacobian_fd", STEP)
                            + r.count("dynamics.jacobian_analytic", STEP))),
    "dynamics.jacobian_fd_us": ("us", "lower", (STEP, "dynamics.jacobian_fd"),
                                lambda r: _per_step(r, r.ns("dynamics.jacobian_fd", STEP)) * _US),
    "beam_model.callback_calls_per_step": ("count", "lower", (STEP,) + (LAW, BLOCK),
                                           lambda r: _per_step(r, r.calls(STEP))),
    "integrator.record_us": ("us", "lower", (SIM,) + RECORD,
                             lambda r: _per_record(r, sum(r.ns(n, SIM) for n in RECORD)) * _US),
    "integrator.record_norms_us": ("us", "lower", (SIM,) + RECORD,
                                   lambda r: _per_record(r, sum(r.ns(n, SIM) for n in RECORD[2:])) * _US),
    "dynamics.eval_H_us": ("us", "lower", (SIM, "dynamics.eval_H"),
                           lambda r: _per_record(r, r.ns("dynamics.eval_H", SIM)) * _US),
    "dynamics.spring_potential_us": (
        "us", "lower", (SIM, "dynamics.eval_H", "dynamics.spring_potential"),
        lambda r: _per_record(r, r.ns("dynamics.spring_potential", "dynamics.eval_H")) * _US),
    "dynamics.spring_potential_points": (
        "count", "lower", (SIM, "dynamics.eval_H", "dynamics.spring_potential") + (LAW,),
        lambda r: _per_record(r, r.points("dynamics.spring_potential", "dynamics.eval_H"))),
    "dynamics.eval_Hdot_us": ("us", "lower", (SIM, "dynamics.eval_H", "dynamics.eval_Hdot"),
                              lambda r: _per_record(r, r.ns("dynamics.eval_Hdot", SIM)) * _US),
    "beam_model.callback_calls_per_record": (
        "count", "lower", (SIM,) + RECORD + (LAW, BLOCK),
        lambda r: _per_record(r, sum(r.calls(n, SIM) for n in RECORD))),
    "cli.write_csv_s": ("s", "lower", ("cli.write_csv",), lambda r: r.ns("cli.write_csv") * _S),
    "cli.csv_bytes": ("bytes", "lower", ("cli.write_csv",),
                      lambda r: r.work("cli.write_csv", "bytes")),
    "cli.write_svg_s": ("s", "lower", ("cli.write_svg",), lambda r: r.ns("cli.write_svg") * _S),
    "analysis.decay_metrics_s": ("s", "lower", ("analysis.decay_metrics",),
                                 lambda r: r.ns("analysis.decay_metrics") * _S),
    "assumptions.certify_spring_damper_s": ("s", "lower", CERTIFY[:1],
                                            lambda r: r.ns(CERTIFY[0]) * _S),
    "assumptions.certify_block_s": ("s", "lower", CERTIFY[1:], lambda r: r.ns(CERTIFY[1]) * _S),
    "assumptions.points_per_s": ("1/s", "higher", CERTIFY,
                                 lambda r: _ratio(sum(r.work(n, "points") for n in CERTIFY),
                                                  sum(r.ns(n) for n in CERTIFY) * _S)),
    "assumptions.failed_checks": ("count", "lower", CERTIFY,
                                  lambda r: sum(r.work(n, "failed") for n in CERTIFY)),
    "analysis.spectrum_s": ("s", "lower", ("analysis.spectrum",),
                            lambda r: r.ns("analysis.spectrum") * _S),
    "analysis.skew_check_s": ("s", "lower", ("analysis.skew_check",),
                              lambda r: r.ns("analysis.skew_check") * _S),
    "analysis.beam_frequencies_s": ("s", "lower", ("analysis.beam_frequencies",),
                                    lambda r: r.ns("analysis.beam_frequencies") * _S),
    "discretization.assemble_calls": ("count", "lower", ("discretization.assemble",),
                                      lambda r: r.count("discretization.assemble")),
    "cli.load_config_s": ("s", "lower", ("cli.load_config",), lambda r: r.ns("cli.load_config") * _S),
    "beam_model.construct_s": ("s", "lower", CONSTRUCT, lambda r: r.top_ns(CONSTRUCT) * _S),
    "beam_model.linearize_block_calls": ("count", "lower", ("beam_model.linearize_block",),
                                         lambda r: r.count("beam_model.linearize_block")),
    "integrator.steps": ("count", "higher", (STEP,), lambda r: r.count(STEP)),
}

#: Computed in run.py from paired traced and untraced repetitions.
OVERHEAD = ("trace.overhead_frac", "frac", "lower")


def rep_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Every metric whose spans were all wrapped, from one repetition."""
    r = Rep(tracer, first, last)
    return {name: float(fn(r)) for name, (_, _, needs, fn) in METRICS.items()
            if not any(n in tracer.missing for n in needs)}


def summarize(tracer: Tracer, reps: list[dict[str, float]]) -> dict[str, dict]:
    """Median over repetitions; a metric with a missing span is reported absent."""
    out = {}
    for name, (unit, _, needs, _) in METRICS.items():
        lost = [tracer.missing[n] for n in needs if n in tracer.missing]
        if lost:
            out[name] = {"value": None, "unit": unit, "absent": "; ".join(lost)}
        else:
            out[name] = {"value": statistics.median(rep[name] for rep in reps), "unit": unit}
    return out


def shares(tracer: Tracer, first: int, last: int, wall_ns: int) -> dict[str, float]:
    """Shares of the traced wall time that show what each workload stresses."""
    r = Rep(tracer, first, last)
    solve = sum(r.ns(n, STEP) for n in ("integrator.lu_solve", "integrator.rhs", "integrator.qnorm"))
    return {
        "lu_solve+rhs+qnorm": _ratio(solve, wall_ns),
        "record": _ratio(sum(r.ns(n, SIM) for n in RECORD), wall_ns),
        "certify": _ratio(sum(r.ns(n) for n in CERTIFY), wall_ns),
    }

