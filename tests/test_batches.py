"""Channels that share their law and block objects are evaluated as one batch.

The remainder, its Jacobian and the energy functions must give the same bits
whether the two channels share one object per kind, hold distinct objects of
equal specs, or differ; the reference is the per-channel oracle of conftest.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import passivebeam as pb
from passivebeam import cli, integrator
from passivebeam.dynamics import RemainderMap, _batches

from conftest import (
    DEFAULT_BEAM,
    default_config,
    per_channel_energy,
    per_channel_jacobian,
    per_channel_value,
)

#: registry specs the closed loop certifies; params drawn per spec
LAWS = {
    "linear": st.fixed_dictionaries({"slope": st.floats(0.1, 5.0)}),
    "cubic": st.fixed_dictionaries({"slope": st.floats(0.1, 5.0), "cubic": st.floats(0.0, 3.0)}),
    "tanh": st.fixed_dictionaries({"gain": st.floats(0.1, 5.0)}),
    "zero": st.just({}),
}
BLOCKS = {
    "linear": st.fixed_dictionaries({"dim": st.integers(1, 3), "rate": st.floats(0.1, 5.0),
                                     "gain": st.floats(-3.0, 3.0)}),
    "cubic-drift": st.fixed_dictionaries({"strength": st.floats(0.0, 3.0)}),
    "saturating": st.just({}),
}


def spec(registry):
    return st.sampled_from(sorted(registry)).flatmap(lambda name: st.tuples(st.just(name), registry[name]))


channel_spec = st.tuples(spec(LAWS), spec(LAWS), spec(BLOCKS))


def build(channel):
    (damper, dp), (spring, sp), (block, bp) = channel
    return pb.SpringDamperLaw(pb.make_law(damper, **dp), pb.make_law(spring, **sp)), pb.make_block(block, **bp)


FORMS = ("shared", "equal", "different", "shared-block", "shared-laws")


def closed_loop(beam, form, first, second):
    """The config of ``form``: one set of objects on both channels, two sets
    built from the first spec, the two specs, or the two specs with one block
    object or one law object on both channels."""
    sd1, block1 = build(first)
    sd2, block2 = (sd1, block1) if form == "shared" else build(first if form == "equal" else second)
    if form == "shared-block":
        block2 = block1
    if form == "shared-laws":
        sd2 = sd1
    return pb.ClosedLoopConfig(beam, sd1, sd2, block1, block2)


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(FORMS), first=channel_spec, second=channel_spec,
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.01, 0.5, 2.0]))
def test_batched_remainder_and_energy_match_the_per_channel_oracle(sys4, beam, form, first, second, seed, scale):
    config = closed_loop(beam, form, first, second)
    remainder = RemainderMap(sys4, config)
    assert len(remainder.batches) == (1 if form == "shared" else 2)
    rng = np.random.default_rng(seed)
    qs = scale * rng.standard_normal((7, remainder.m))
    assert np.array_equal(remainder.value(qs), per_channel_value(config, qs))
    for q in qs:
        assert np.array_equal(remainder.value(q), per_channel_value(config, q))
        assert np.array_equal(remainder.jacobian_analytic(q), per_channel_jacobian(config, q))
    rows = scale * rng.standard_normal((7, pb.zero_state(sys4, config).size))
    springs, storages, rate = per_channel_energy(sys4, config, rows)
    energy = pb.eval_H(rows, sys4, config)
    parts = (energy.spring_potential_rot, energy.spring_potential_tr, energy.storage_z1, energy.storage_z2)
    for got, expected in zip(parts, springs + storages, strict=True):
        assert np.array_equal(got, expected)
    assert np.array_equal(pb.eval_Hdot(rows, sys4, config), rate)
    one = pb.eval_H(rows[0], sys4, config)
    assert (one.spring_potential_rot, one.storage_z2) == (springs[0][0], storages[1][0])
    assert pb.eval_Hdot(rows[0], sys4, config) == rate[0]


@pytest.mark.parametrize("name,params", [("linear", {"slope": 1.7}), ("cubic", {"slope": 0.6, "cubic": 2.3}),
                                         ("tanh", {"gain": 3.1}), ("zero", {})])
def test_registry_derivatives_round_alike_on_a_scalar_and_an_array(name, params):
    # the remainder and its Jacobian pass every batch's traces as an array; a law is
    # still called on a number, by its construction checks and by per-point stand-ins
    deriv = pb.make_law(name, **params).deriv
    s = np.random.default_rng(8).standard_normal(20_000) * np.random.default_rng(9).uniform(0.0, 3.0, 20_000)
    assert np.array_equal(deriv(s), [deriv(x) for x in s])


def test_block_whose_derivatives_do_not_batch_gets_stand_ins(sys4, beam):
    block = pb.make_block("cubic-drift", strength=1.5)

    def per_point(f):
        def call(z):
            if np.ndim(z) > 1:
                raise TypeError("one state at a time")
            return f(z)
        return call

    derivatives = ("drift_jac", "input_jac", "output_grad")
    pointwise = dataclasses.replace(block, **{k: per_point(getattr(block, k)) for k in derivatives})
    assert all(getattr(pointwise, k) is not getattr(block, k) for k in derivatives)
    sd = pb.SpringDamperLaw(pb.make_law("tanh", gain=2.0), pb.make_law("cubic"))
    batched = RemainderMap(sys4, pb.ClosedLoopConfig(beam, sd, sd, block, block))
    stand_in = RemainderMap(sys4, pb.ClosedLoopConfig(beam, sd, sd, pointwise, pointwise))
    for q in 0.5 * np.random.default_rng(5).standard_normal((20, batched.m)):
        assert np.array_equal(stand_in.jacobian_analytic(q), batched.jacobian_analytic(q))
    states = np.random.default_rng(6).standard_normal((3, 2, 2))
    for name in derivatives:
        expected = np.array([[getattr(block, name)(z) for z in row] for row in states])
        assert np.array_equal(np.broadcast_to(getattr(pointwise, name)(states), expected.shape), expected)


def _channel(damper_gain=2.0, block=None):
    return {
        "damper": {"name": "tanh", "params": {"gain": damper_gain}},
        "spring": {"name": "cubic", "params": {}},
        "block": block or {"name": "cubic-drift", "params": {}},
    }


def _run_config(rotational, translational):
    raw = {"schema_version": 1, "beam": DEFAULT_BEAM, "rotational": rotational, "translational": translational}
    return cli.RunConfig(json.loads(json.dumps(raw)), "certify")


def test_closed_loop_shares_objects_of_equal_specs_only():
    loop = _run_config(_channel(), _channel()).closed_loop()
    assert loop.sd_rotational is loop.sd_translational
    assert loop.block_rotational is loop.block_translational
    # the same spec in either role is one law; param order does not matter
    cubic = {"name": "cubic", "params": {"slope": 2.0, "cubic": 0.5}}
    swapped = {"name": "cubic", "params": {"cubic": 0.5, "slope": 2.0}}
    loop = _run_config(dict(_channel(), damper=cubic), dict(_channel(), spring=swapped)).closed_loop()
    assert loop.sd_rotational.damper is loop.sd_translational.spring
    assert loop.sd_rotational is not loop.sd_translational
    loop = _run_config(_channel(), _channel(damper_gain=3.0, block={"name": "saturating"})).closed_loop()
    assert loop.sd_rotational is not loop.sd_translational
    assert loop.sd_rotational.spring is loop.sd_translational.spring
    assert loop.sd_rotational.damper is not loop.sd_translational.damper
    assert loop.block_rotational is not loop.block_translational
    # each call builds its own objects: nothing is kept between calls
    cfg = _run_config(_channel(), _channel())
    assert cfg.closed_loop().block_rotational is not cfg.closed_loop().block_rotational


def test_simulate_is_bitwise_the_same_with_shared_and_distinct_objects(beam):
    sys_d = pb.assemble(beam, pb.build_mesh(beam, 8))
    distinct = default_config(beam)
    assert distinct.sd_rotational is not distinct.sd_translational
    shared = dataclasses.replace(distinct, sd_translational=distinct.sd_rotational,
                                 block_translational=distinct.block_rotational)
    assert len(_batches(sys_d, shared)) == 1 and len(_batches(sys_d, distinct)) == 2
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.5)
    runs = [pb.simulate(integrator.first_mode_initial_state(sys_d, config, tip_fraction=0.3), settings, sys_d, config)
            for config in (shared, distinct)]
    for name in ("packed", "energy", "hdots", "nonlinearity_norms", "tangent_norms", "state_norms"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name
