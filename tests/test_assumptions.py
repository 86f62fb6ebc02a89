"""Certification of laws and blocks: pass/fail outcomes and witnesses."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import passivebeam as pb
from passivebeam import assumptions
from passivebeam.beam_model import BLOCK_BUILDERS, LAW_BUILDERS

from conftest import linear_config


def make_sd(damper, spring):
    return pb.SpringDamperLaw(damper=pb.make_law(damper), spring=pb.make_law(spring))


def test_linear_laws_pass_wide_radius():
    report = pb.certify_spring_damper(make_sd("linear", "linear"), radius=10.0, samples=200)
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_sign_flipped_damper_fails_with_witness():
    report = pb.certify_spring_damper(make_sd("negative-linear", "linear"), radius=2.0, samples=200)
    assert not report.passed
    slope = report.check("damper-slope-positive")
    assert not slope.passed
    assert slope.value == -1.0
    mono = report.check("damper-derivative-nonnegative")
    assert not mono.passed
    # witness reproduces the violation
    law = pb.make_law("negative-linear")
    assert float(law.deriv(mono.witness[0])) < 0.0


def test_softening_spring_fails_outside_unit_interval():
    report = pb.certify_spring_damper(make_sd("linear", "softening-cubic"), radius=2.0, samples=200)
    assert not report.passed
    check = report.check("spring-potential-positive")
    assert not check.passed
    s = check.witness[0]
    assert abs(s) > 1.0
    # antiderivative of s - s^3 as the oracle for the reported value
    exact = s**2 / 2.0 - s**4 / 4.0
    assert check.value == pytest.approx(exact, abs=1e-9)
    assert exact < 0.0
    # the worst violation sits at the sampling radius, where the potential is -2
    assert abs(s) == pytest.approx(2.0)
    assert check.value == pytest.approx(-2.0, abs=1e-9)


def test_spring_without_closed_form_has_one_potential_in_energy_and_certificate(sys8, beam):
    # s - s^5 without its antiderivative (Simpson is not exact for it): the
    # certificate's worst potential is the energy's spring column at the witness
    spring = pb.ScalarLaw(eval=lambda s: s - s**5, deriv=lambda s: 1.0 - 5.0 * s**4)
    sd = pb.SpringDamperLaw(damper=pb.make_law("linear"), spring=spring)
    check = pb.certify_spring_damper(sd, radius=2.0, samples=200).check("spring-potential-positive")
    assert not check.passed
    config = dataclasses.replace(linear_config(beam), sd_translational=sd)
    flat = np.zeros(2 * sys8.n_dof + 2)
    flat[sys8.tip_value_index] = check.witness[0]
    assert pb.eval_H(flat, sys8, config).spring_potential_tr == check.value


def test_linear_block_passes_with_strict_margins():
    report = pb.certify_block(pb.make_block("linear"), radius=3.0, samples=150)
    assert report.passed
    assert report.check("dissipation-strict").value < -1e-6
    assert report.check("storage-positive").value > 1e-6


def test_anti_stable_block_fails_dissipation():
    report = pb.certify_block(pb.make_block("anti-stable"), radius=2.0, samples=150)
    assert not report.passed
    check = report.check("dissipation-strict")
    assert not check.passed
    z = np.array(check.witness)
    block = pb.make_block("anti-stable")
    assert float(np.asarray(block.storage_grad(z)) @ np.asarray(block.drift(z))) > 0.0
    assert check.value == pytest.approx(float(z @ z), rel=1e-12)


def test_cubic_drift_block_passes_with_unit_dissipation_rate():
    report = pb.certify_block(pb.make_block("cubic-drift"), radius=5.0, samples=300)
    assert report.passed
    # symmetric part of P A is -I; the quadratic-formula eigenvalues are both -1
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    sym = 0.5 * (a + a.T)
    tr, det = np.trace(sym), np.linalg.det(sym)
    eig_lo = tr / 2.0 - np.sqrt((tr / 2.0) ** 2 - det)
    assert eig_lo == pytest.approx(-1.0)
    assert report.check("pa-negative-semidefinite").value == pytest.approx(-1.0, abs=1e-9)


def test_saturating_block_passes():
    report = pb.certify_block(pb.make_block("saturating"), radius=3.0, samples=300)
    assert report.passed


def test_reports_deterministic_given_seed():
    a = pb.certify_block(pb.make_block("cubic-drift"), radius=4.0, samples=250, seed=11)
    b = pb.certify_block(pb.make_block("cubic-drift"), radius=4.0, samples=250, seed=11)
    assert a.as_dict() == b.as_dict()
    c = pb.certify_spring_damper(make_sd("tanh", "cubic"), radius=2.0, samples=150, seed=5)
    d = pb.certify_spring_damper(make_sd("tanh", "cubic"), radius=2.0, samples=150, seed=5)
    assert c.as_dict() == d.as_dict()


def test_enlarging_samples_never_flips_fail_to_pass():
    small = pb.certify_spring_damper(make_sd("linear", "softening-cubic"), radius=2.0, samples=150, seed=3)
    large = pb.certify_spring_damper(make_sd("linear", "softening-cubic"), radius=2.0, samples=600, seed=3)
    for check in small.checks:
        if not check.passed:
            assert not large.check(check.name).passed
    sb = pb.certify_block(pb.make_block("anti-stable"), radius=2.0, samples=120, seed=3)
    lb = pb.certify_block(pb.make_block("anti-stable"), radius=2.0, samples=480, seed=3)
    for check in sb.checks:
        if not check.passed:
            assert not lb.check(check.name).passed


def test_report_invariants():
    report = pb.certify_block(pb.make_block("anti-stable"), radius=2.0, samples=120)
    assert report.passed == all(c.passed for c in report.checks)
    for check in report.checks:
        if not check.passed:
            assert check.witness is not None
    names = [c.name for c in report.checks]
    assert names == sorted(names)


def test_radial_growth_threshold_respected():
    # storage on the sphere of radius 2 is 2 for |z|^2/2; a threshold above fails
    ok = pb.certify_block(pb.make_block("linear"), radius=2.0, samples=150, h_threshold=1.0)
    assert ok.check("radial-growth").passed
    bad = pb.certify_block(pb.make_block("linear"), radius=2.0, samples=150, h_threshold=3.0)
    assert not bad.check("radial-growth").passed
    assert bad.check("radial-growth").value == pytest.approx(2.0, rel=1e-9)


def test_preconditions_rejected():
    sd = make_sd("linear", "linear")
    with pytest.raises(ValueError):
        pb.certify_spring_damper(sd, radius=-1.0, samples=200)
    with pytest.raises(ValueError):
        pb.certify_spring_damper(sd, radius=1.0, samples=50)
    with pytest.raises(ValueError):
        pb.certify_block(pb.make_block("cubic-drift"), radius=1.0, samples=150)


# ---------------------------------------------------------------------------
# Batched evaluation: same reports as per-point evaluation
# ---------------------------------------------------------------------------

BATCHED_CALLBACKS = ("drift", "input_gain", "output", "storage", "storage_grad", "drift_jac", "input_jac",
                     "output_grad")
BLOCKS = {name: {} for name in BLOCK_BUILDERS} | {"linear-dim3": {"dim": 3}}


def _pointwise(f, max_ndim):
    def call(x):
        if np.ndim(x) > max_ndim:
            raise TypeError("batched input rejected")
        return f(x)
    return call


def pointwise_law(law):
    fields = {k: getattr(law, k) for k in ("eval", "deriv", "potential")}
    return pb.ScalarLaw(**{k: _pointwise(f, 0) for k, f in fields.items()})


def pointwise_block(block):
    return dataclasses.replace(block, **{k: _pointwise(getattr(block, k), 1) for k in BATCHED_CALLBACKS})


def assert_same_report(batched, per_point):
    assert (batched.passed, batched.sample_count) == (per_point.passed, per_point.sample_count)
    assert [c.name for c in batched.checks] == [c.name for c in per_point.checks]
    for a, b in zip(batched.checks, per_point.checks):
        assert (a.passed, a.witness) == (b.passed, b.witness), a.name
        assert a.value == pytest.approx(b.value, rel=1e-13, abs=0.0), a.name


@pytest.mark.parametrize("damper,spring", list(itertools.product(LAW_BUILDERS, repeat=2)))
def test_batched_law_report_equals_per_point(damper, spring):
    d, k = pb.make_law(damper), pb.make_law(spring)
    batched = pb.certify_spring_damper(pb.SpringDamperLaw(d, k), radius=2.0, samples=100, seed=4)
    per_point = pb.certify_spring_damper(
        pb.SpringDamperLaw(pointwise_law(d), pointwise_law(k)), radius=2.0, samples=100, seed=4
    )
    assert_same_report(batched, per_point)


@pytest.mark.parametrize("damper,spring", list(itertools.product(LAW_BUILDERS, repeat=2)))
def test_closed_form_potential_report_equals_simpson_report(damper, spring):
    d, k = pb.make_law(damper), pb.make_law(spring)
    simpson_spring = dataclasses.replace(k, potential=None)
    for radius, samples in itertools.product((1.5, 2.0), (300, 10_000)):
        closed = pb.certify_spring_damper(pb.SpringDamperLaw(d, k), radius, samples)
        simpson = pb.certify_spring_damper(pb.SpringDamperLaw(d, simpson_spring), radius, samples)
        assert (closed.passed, closed.sample_count) == (simpson.passed, simpson.sample_count)
        for a, b in zip(closed.checks, simpson.checks, strict=True):
            assert (a.name, a.passed, a.witness) == (b.name, b.passed, b.witness)
            if a.name != "spring-potential-positive":
                assert a.value == b.value, a.name
            else:
                assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_batched_block_report_equals_per_point(name):
    block = pb.make_block(name.removesuffix("-dim3"), **BLOCKS[name])
    kwargs = dict(radius=2.5, samples=100 * block.dim, h_threshold=0.5, seed=9)
    assert_same_report(pb.certify_block(block, **kwargs), pb.certify_block(pointwise_block(block), **kwargs))


def test_broadcasting_but_wrong_storage_is_evaluated_per_point():
    # the storage sums over every axis: right for one state, one number for a batch
    block = dataclasses.replace(
        pb.make_block("linear", dim=2), storage=lambda z: 0.5 * float(np.sum(np.square(z)))
    )
    batched = pb.certify_block(block, radius=2.0, samples=200, seed=2)
    per_point = pb.certify_block(pointwise_block(block), radius=2.0, samples=200, seed=2)
    assert_same_report(batched, per_point)
    pts = assumptions._ball_points(2, 2.0, 512, 200, 2)
    assert batched.check("storage-positive").value == pytest.approx(0.5 * np.min(np.sum(pts**2, axis=1)))


# ---------------------------------------------------------------------------
# The batch contract is settled at construction
# ---------------------------------------------------------------------------

def _non_elementwise_law():
    # eval sums an array to one number, so only scalar calls give s + s^3
    return pb.ScalarLaw(eval=lambda s: np.sum(s) + np.sum(s) ** 3, deriv=lambda s: 1.0 + 3.0 * np.sum(s) ** 2)


def _size_scaled_law():
    # the shape of its input, but the cubic term scales with the batch size
    return pb.ScalarLaw(
        eval=lambda s: s + np.size(s) * np.power(s, 3), deriv=lambda s: 1.0 + 3.0 * np.size(s) * np.square(s)
    )


LAW_STAND_IN_CASES = {
    "raises": lambda: pointwise_law(pb.make_law("tanh")),
    "wrong-shape": _non_elementwise_law,
    "wrong-value": _size_scaled_law,
}

BLOCK_STAND_IN_CASES = {
    "raises": lambda: pointwise_block(pb.make_block("cubic-drift")),
    # one row of a batch, not one entry per row
    "wrong-shape": lambda: dataclasses.replace(
        pb.make_block("cubic-drift"), output=lambda z: np.asarray(z, dtype=float)[1]
    ),
    # the storage sums over every axis: right for one state, one number for a batch
    "wrong-value": lambda: dataclasses.replace(
        pb.make_block("linear", dim=2), storage=lambda z: 0.5 * float(np.sum(np.square(z)))
    ),
}


@pytest.mark.parametrize("case", sorted(LAW_STAND_IN_CASES))
def test_law_that_does_not_batch_gets_per_point_stand_ins(case):
    law = LAW_STAND_IN_CASES[case]()
    s = np.random.default_rng(3).uniform(-1.5, 1.5, size=(3, 4))
    for name in ("eval", "deriv", "potential"):
        f = getattr(law, name)
        np.testing.assert_array_equal(f(s), [[float(f(x)) for x in row] for row in s.tolist()], err_msg=name)


@pytest.mark.parametrize("case", sorted(BLOCK_STAND_IN_CASES))
def test_block_that_does_not_batch_gets_per_point_stand_ins(case):
    block = BLOCK_STAND_IN_CASES[case]()
    z = np.random.default_rng(3).uniform(-1.5, 1.5, size=(7, block.dim))
    for name in BATCHED_CALLBACKS:
        f = getattr(block, name)
        rows = np.array([np.asarray(f(row), dtype=float) for row in z])
        np.testing.assert_array_equal(np.broadcast_to(f(z), rows.shape), rows, err_msg=name)


@pytest.mark.parametrize("name", sorted(LAW_BUILDERS))
def test_elementwise_law_keeps_its_callbacks(name):
    law = pb.make_law(name)
    rebuilt = dataclasses.replace(law)
    assert all(getattr(rebuilt, k) is getattr(law, k) for k in ("eval", "deriv", "potential"))


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_broadcasting_block_keeps_its_callbacks(name):
    block = pb.make_block(name.removesuffix("-dim3"), **BLOCKS[name])
    rebuilt = dataclasses.replace(block)
    assert all(getattr(rebuilt, k) is getattr(block, k) for k in BATCHED_CALLBACKS)


def test_certify_block_reports_on_broadcast_callback_values():
    # constant output and storage gradient broadcast over the batch, so the
    # KYP defect comes out as one number for all points
    block = pb.PassiveBlock(
        dim=1,
        drift=lambda z: -np.asarray(z, dtype=float),
        input_gain=lambda z: np.ones(1),
        output=lambda z: 0.0,
        storage=lambda z: np.asarray(z, dtype=float)[..., 0],
        storage_grad=lambda z: np.ones(1),
        drift_jac=lambda z: -np.eye(1),
        input_jac=lambda z: np.zeros((1, 1)),
        output_grad=lambda z: np.zeros(1),
    )
    report = pb.certify_block(block, radius=1.0, samples=100)
    kyp = report.check("kyp-output-match")
    assert (kyp.passed, kyp.value) == (False, 1.0)
    assert kyp.witness is not None
    assert not report.check("storage-positive").passed


def _ball_points_per_point(dim, radius, n_halton, n_uniform, seed):
    """The original one-point-at-a-time rejection sampler."""

    def halton(index, base):
        result, f, i = 0.0, 1.0, index
        while i > 0:
            f /= base
            result += f * (i % base)
            i //= base
        return result

    r_min = 1e-3 * radius
    accepted = []
    idx = 1
    while len(accepted) < n_halton and idx <= 100 * n_halton + 1000:
        point = np.array([2.0 * halton(idx, (2, 3, 5)[d]) - 1.0 for d in range(dim)]) * radius
        idx += 1
        if r_min <= np.linalg.norm(point) <= radius:
            accepted.append(point)
    rng = np.random.default_rng(seed)
    taken = 0
    while taken < n_uniform:
        point = rng.uniform(-radius, radius, size=dim)
        if r_min <= np.linalg.norm(point) <= radius:
            accepted.append(point)
            taken += 1
    return np.array(accepted)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 11, 101])
def test_ball_points_equal_per_point_sampler(dim, seed):
    fast = assumptions._ball_points(dim, 1.7, 512, 300 * dim, seed)
    reference = _ball_points_per_point(dim, 1.7, 512, 300 * dim, seed)
    assert fast.shape == reference.shape
    assert np.array_equal(fast, reference)


def _ball_points_one_shot(dim, radius, n_halton, n_uniform, seed):
    """The sampler that drew 2^dim uniform candidates per wanted point in one array."""
    r_min = 1e-3 * radius
    cap = 100 * n_halton + 1000
    count = min(2**dim * n_halton, cap)
    while True:
        cube = np.stack([2.0 * assumptions._halton(np.arange(1, count + 1), p) - 1.0
                         for p in assumptions._PRIMES[:dim]], axis=1) * radius
        halton = cube[assumptions._in_shell(cube, r_min, radius)][:n_halton]
        if len(halton) == n_halton or count == cap:
            break
        count = min(2 * count, cap)
    rng = np.random.default_rng(seed)
    uniform = np.empty((0, dim))
    while len(uniform) < n_uniform:
        draw = rng.uniform(-radius, radius, size=(2**dim * (n_uniform - len(uniform)), dim))
        uniform = np.concatenate([uniform, draw[assumptions._in_shell(draw, r_min, radius)]])
    return np.concatenate([halton, uniform[:n_uniform]])


@pytest.mark.parametrize("draw_rows", [7, assumptions._DRAW_ROWS])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 11, 101])
def test_bounded_rounds_accept_the_one_shot_points(monkeypatch, draw_rows, dim, seed):
    monkeypatch.setattr(assumptions, "_DRAW_ROWS", draw_rows)
    points = assumptions._ball_points(dim, 1.7, 512, 300 * dim, seed)
    assert np.array_equal(points, _ball_points_one_shot(dim, 1.7, 512, 300 * dim, seed))


def test_wide_block_certification_memory_is_bounded():
    # 2^10 candidates per wanted point in one array took 98 MB here
    block = pb.make_block("linear", dim=10)
    tracemalloc.start()
    try:
        report = pb.certify_block(block, radius=2.0, samples=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.sample_count > 1000
    assert peak < 16 * 2**20
