"""Domain types, linearization extraction, and the built-in registry."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import passivebeam as pb
from passivebeam.beam_model import BLOCK_BUILDERS, LAW_BUILDERS
from passivebeam.dynamics import spring_potential
from passivebeam.errors import SingularHessian


def test_beam_params_reject_nonpositive():
    for field in ("rho", "lambda_rigidity", "length", "tip_inertia", "tip_mass"):
        kwargs = dict(rho=1.0, lambda_rigidity=1.0, length=1.0, tip_inertia=0.1, tip_mass=0.1)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            pb.BeamParams(**kwargs)


def test_scalar_law_rejects_wrong_derivative():
    with pytest.raises(ValueError):
        pb.ScalarLaw(eval=lambda s: s**2, deriv=lambda s: 3.0 * s)


def cubic_law(potential):
    return pb.ScalarLaw(eval=lambda s: s + s**3, deriv=lambda s: 1.0 + 3.0 * s**2,
                        potential=potential)


def test_scalar_law_accepts_its_antiderivative_as_potential():
    law = cubic_law(lambda s: s**2 / 2 + s**4 / 4)
    assert law.potential(2.0) == 6.0


def test_scalar_law_rejects_potential_off_by_a_factor():
    with pytest.raises(ValueError, match="potential disagrees"):
        cubic_law(lambda s: 2.0 * (s**2 / 2 + s**4 / 4))


def test_scalar_law_rejects_potential_nonzero_at_origin():
    # the offset is far below the Simpson comparison, so only the exact rule catches it
    with pytest.raises(ValueError, match=r"potential\(0\) = 0"):
        cubic_law(lambda s: s**2 / 2 + s**4 / 4 + 1e-300)


#: random parameters of each registry law (the broken laws take none)
LAW_PARAMS = {
    "linear": st.fixed_dictionaries({"slope": st.floats(-5.0, 5.0)}),
    "cubic": st.fixed_dictionaries({"slope": st.floats(-5.0, 5.0), "cubic": st.floats(-5.0, 5.0)}),
    "tanh": st.fixed_dictionaries({"gain": st.floats(0.1, 5.0) | st.floats(-5.0, -0.1)}),
    "zero": st.just({}),
    "negative-linear": st.just({}),
    "softening-cubic": st.just({}),
}


def test_every_registry_law_has_a_potential():
    assert set(LAW_PARAMS) == set(LAW_BUILDERS)
    assert all(pb.make_law(name).potential is not None for name in LAW_BUILDERS)
    # a law built without one gets the adaptive rule
    assert cubic_law(None).potential(2.0) == pytest.approx(6.0, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(LAW_PARAMS)), s=st.floats(-3.0, 3.0))
def test_registry_potential_matches_adaptive_quadrature(data, name, s):
    law = pb.make_law(name, **data.draw(LAW_PARAMS[name]))
    reference = spring_potential(dataclasses.replace(law, potential=None), s)
    assert abs(float(law.potential(s)) - reference) <= 1e-12 * max(1.0, abs(reference))


def test_linearize_linear_laws():
    law = pb.SpringDamperLaw(damper=pb.make_law("linear"), spring=pb.make_law("linear"))
    assert (law.damper_slope, law.spring_slope) == (1.0, 1.0)


def test_linearize_cubic_laws():
    law = pb.SpringDamperLaw(damper=pb.make_law("cubic"), spring=pb.make_law("cubic"))
    assert (law.damper_slope, law.spring_slope) == (1.0, 1.0)


def test_linearize_tanh_damper_against_centered_difference():
    law = pb.SpringDamperLaw(damper=pb.make_law("tanh", gain=2.0), spring=pb.make_law("linear"))
    d_slope, k_slope = law.damper_slope, law.spring_slope
    assert d_slope == 2.0
    assert k_slope == 1.0
    h = 1e-6
    cd = (np.tanh(2.0 * h) - np.tanh(-2.0 * h)) / (2.0 * h)
    assert abs(d_slope - cd) <= 1e-9 * (1.0 + abs(d_slope))


def test_spring_damper_rejects_non_quadratic_remainder():
    # |s|^1.5 has a C1 kink in the remainder scaling and must be refused
    rough = pb.ScalarLaw(
        eval=lambda s: s + np.abs(s) ** 1.5,
        deriv=lambda s: 1.0 + 1.5 * np.sign(s) * np.abs(s) ** 0.5,
    )
    with pytest.raises(ValueError):
        pb.SpringDamperLaw(damper=rough, spring=pb.make_law("linear"))


def test_linearize_block_scalar_cubic():
    block = pb.PassiveBlock(
        dim=1,
        drift=lambda z: -z - z**3,
        input_gain=lambda z: np.ones(1),
        output=lambda z: float(z[0]),
        storage=lambda z: 0.5 * float(z @ z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=lambda z: np.atleast_2d(-1.0 - 3.0 * z**2),
        input_jac=lambda z: np.zeros((1, 1)),
        output_grad=lambda z: np.ones(1),
    )
    lin = pb.linearize_block(block)
    assert np.allclose(lin.A, [[-1.0]])
    assert np.allclose(lin.B, [1.0])
    assert np.allclose(lin.C, [1.0])
    assert np.allclose(lin.P, [[1.0]], atol=1e-9)


def test_linearize_linear_block_kyp_identity_exact():
    lin = pb.linearize_block(pb.make_block("linear"))
    assert np.allclose(lin.A, [[-1.0]])
    assert np.array_equal(lin.P @ lin.B, lin.C)


def test_linearize_cubic_drift_block():
    block = pb.make_block("cubic-drift")
    lin = pb.linearize_block(block)
    assert np.allclose(lin.A, [[-1.0, 1.0], [-1.0, -1.0]])
    assert np.allclose(lin.B, [0.0, 1.0])
    assert np.allclose(lin.C, [0.0, 1.0])
    assert np.allclose(lin.P, np.eye(2), atol=1e-9)
    # dissipation and output identities hold pointwise, not just at the origin
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(2)
        zz = float(z @ z)
        assert float(z @ block.drift(z)) == pytest.approx(-zz - zz**2, rel=1e-12)
        assert float(z @ block.input_gain(z)) == pytest.approx(float(block.output(z)), rel=1e-12)


def test_singular_storage_hessian_detected():
    degenerate = pb.PassiveBlock(
        dim=1,
        drift=lambda z: -np.asarray(z, dtype=float),
        input_gain=lambda z: np.ones(1),
        output=lambda z: float(z[0]),
        storage=lambda z: 0.25 * float(z[0]) ** 4,
        storage_grad=lambda z: np.asarray(z, dtype=float) ** 3,
        drift_jac=lambda z: -np.eye(1),
        input_jac=lambda z: np.zeros((1, 1)),
        output_grad=lambda z: np.ones(1),
    )
    with pytest.raises(SingularHessian):
        pb.linearize_block(degenerate)


@pytest.mark.parametrize("name", ["linear", "cubic-drift", "saturating"])
def test_registry_blocks_have_quadratic_drift_remainder(name):
    block = pb.make_block(name)
    lin = pb.linearize_block(block)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(block.dim)
    z /= np.linalg.norm(z)
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        rem = np.asarray(block.drift(eps * z)) - lin.A @ (eps * z)
        ratios.append(np.linalg.norm(rem) / eps**2)
    assert max(ratios) <= 4.0 * ratios[0] + 1.0


@pytest.mark.parametrize("name", ["linear", "cubic-drift", "saturating", "anti-stable"])
def test_registry_blocks_satisfy_pb_equals_c(name):
    lin = pb.linearize_block(pb.make_block(name))
    assert np.abs(lin.P @ lin.B - lin.C).max() <= 1e-12


@pytest.mark.parametrize("name,params", [("linear", {}), ("cubic", {}), ("tanh", {"gain": 2.0})])
def test_registry_spring_remainder_quadratically_bounded(name, params):
    law = pb.SpringDamperLaw(damper=pb.make_law("linear"), spring=pb.make_law(name, **params))
    slope = law.spring_slope
    ratios = [
        abs(float(law.spring.eval(s)) - slope * s) / s**2 for s in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    assert max(ratios) <= 4.0 * ratios[0] + 1.0


def test_unknown_registry_names_raise():
    with pytest.raises(KeyError):
        pb.make_law("does-not-exist")
    with pytest.raises(KeyError):
        pb.make_block("does-not-exist")


def test_block_rejects_nonzero_origin():
    with pytest.raises(ValueError):
        pb.PassiveBlock(
            dim=1,
            drift=lambda z: np.asarray(z, dtype=float) + 1.0,
            input_gain=lambda z: np.ones(1),
            output=lambda z: float(z[0]),
            storage=lambda z: 0.5 * float(z @ z),
            storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
            drift_jac=lambda z: np.eye(1),
            input_jac=lambda z: np.zeros((1, 1)),
            output_grad=lambda z: np.ones(1),
        )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BLOCK_BUILDERS)), count=st.integers(1, 6))
def test_registry_block_callbacks_broadcast_over_batch(data, name, count):
    block = pb.make_block(name, **({"dim": data.draw(st.integers(1, 4))} if name == "linear" else {}))
    z = data.draw(arrays(np.float64, (count, 2, block.dim), elements=st.floats(-5.0, 5.0)))
    for callback in ("drift", "input_gain", "output", "storage", "storage_grad", "drift_jac", "input_jac",
                     "output_grad"):
        f = getattr(block, callback)
        rows = np.array([[np.asarray(f(state), dtype=float) for state in row] for row in z])
        batched = np.broadcast_to(np.asarray(f(z), dtype=float), rows.shape)
        np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=1e-13, err_msg=callback)


@pytest.mark.parametrize("name", sorted(BLOCK_BUILDERS))
def test_registry_block_constants_are_read_only_and_still_certify(name):
    block = pb.make_block(name)
    z = np.full(block.dim, 0.3)
    for callback in ("input_gain", "output_grad", "input_jac"):
        value = getattr(block, callback)(z)
        if callback != "output_grad" or name != "saturating":  # its output gradient depends on z
            assert value is getattr(block, callback)(-z), callback
            assert not value.flags.writeable, callback
            with pytest.raises(ValueError):
                value[...] = 1.0
    lin = pb.linearize_block(block)
    assert np.array_equal(lin.B, block.input_gain(np.zeros(block.dim)))
    report = pb.certify_block(block, radius=1.5, samples=200)
    assert report.passed == (name != "anti-stable")
