"""Reference gates, builders and strategies shared by the test modules.

Each reference gate restates a bundled fixture field for field, so a
test can use it without reading the fixture library;
test_fileio.TestReferenceGates checks that they still agree.
"""

import dataclasses
import math
import random

from hypothesis import strategies as st

from misdelay.characterize import MeasuredDelays
from misdelay.fileio import load_fixture
from misdelay.gates import (CGateParams, DelayQuery, NorGateParams,
                            cgate_delay, nor_delay)
from misdelay.sim import build_cross_coupled_chain

# 15 nm NOR gate behind a 3 um wire (nor15_l3)
NOR_A = NorGateParams(r_n_a=2193.6, r_n_b=2011.0, r=1277.1,
                      alpha1=1.078e-9, alpha2=0.5102e-9,
                      c_load=1.2831e-15, r5=399.41, delta_min=4.32e-12)
# same gate behind a 15 um wire (nor15_l15)
NOR_B = NorGateParams(r_n_a=2900.0, r_n_b=2749.3, r=2054.5,
                      alpha1=1.479e-9, alpha2=0.8441e-9,
                      c_load=1.2831e-15, r5=360.49, delta_min=5.08e-12)
# 15 nm C gate without interconnect (cgate15_isolated)
CG_ISO = CGateParams(r_n=2142.0, r_p=2321.5,
                     alpha1=2.1472, alpha2=1.1303,
                     alpha3=1.5549, alpha4=1.8403,
                     c_load=2.6331e-15, r5=0.0, delta_min=1.77e-12)
# interconnected C gate, 3 um wire (cgate15_l3)
CG_W3 = CGateParams(r_n=964.76, r_p=1146.0,
                    alpha1=645.48e-12, alpha2=264.94e-12,
                    alpha3=255.59e-12, alpha4=406.81e-12,
                    c_load=2.6331e-15, r5=545.49, delta_min=1.7e-12)


def measured_from(p, **overrides) -> MeasuredDelays:
    """The six extremal delays of p's closed forms, referred to p's own
    load and delta_min; overrides replace any field."""
    delay = nor_delay if isinstance(p, NorGateParams) else cgate_delay
    fields = {}
    for direction, prefix in (("falling", "d_down"), ("rising", "d_up")):
        for delta, suffix in ((-math.inf, "minus_inf"), (0.0, "zero"),
                              (math.inf, "inf")):
            fields[f"{prefix}_{suffix}"] = delay(p, DelayQuery(direction,
                                                               delta))
    fields.update(delta_min=p.delta_min, c_chosen=p.c_load)
    fields.update(overrides)
    return MeasuredDelays(**fields)


# field values at and near both ends of the float range; the schema
# accepts each of them
EXTREME_VALUES = (5e-324, 1e-300, 1e300, 1.7e308)


def extreme_variants(names=("nor15_l3", "cgate15_l3")):
    """(fixture, field, value, params) for every float field of each
    named fixture set to every value of EXTREME_VALUES."""
    for name in names:
        base = load_fixture(name)
        for field in dataclasses.fields(base):
            if isinstance(getattr(base, field.name), float):
                for value in EXTREME_VALUES:
                    yield (name, field.name, value,
                           dataclasses.replace(base, **{field.name: value}))


def random_nor(rng: random.Random) -> NorGateParams:
    """A NOR parameter set drawn in the ranges of acceptance criterion 1."""
    return NorGateParams(
        r_n_a=rng.uniform(500.0, 8000.0),
        r_n_b=rng.uniform(500.0, 8000.0),
        r=rng.uniform(300.0, 2500.0),
        alpha1=rng.uniform(5e-10, 1e-8),
        alpha2=rng.uniform(5e-10, 1e-8),
        c_load=rng.uniform(5e-16, 2.5e-15),
        r5=rng.uniform(0.0, 800.0),
        delta_min=rng.uniform(0.0, 1e-11),
    )


def random_cgate(rng: random.Random) -> CGateParams:
    """A C gate parameter set drawn in the ranges of acceptance criterion 2."""
    return CGateParams(
        r_n=rng.uniform(300.0, 2500.0),
        r_p=rng.uniform(300.0, 2500.0),
        alpha1=rng.uniform(5e-10, 1e-8),
        alpha2=rng.uniform(5e-10, 1e-8),
        alpha3=rng.uniform(5e-10, 1e-8),
        alpha4=rng.uniform(5e-10, 1e-8),
        c_load=rng.uniform(5e-16, 2.5e-15),
        r5=rng.uniform(0.0, 800.0),
        delta_min=rng.uniform(0.0, 1e-11),
    )


def chain_of(p, n_stages, **kwargs):
    """(netlist, library) of a build_cross_coupled_chain made of p's
    kind of gate.  C gates run inverted, as NOR gates hold the chain's
    initial state."""
    nl = build_cross_coupled_chain(n_stages, params_ref="g", **kwargs)
    if isinstance(p, NorGateParams):
        return nl, {"g": p}
    return (dataclasses.replace(nl, gates=tuple(
        dataclasses.replace(g, kind="cgate") if g.kind == "nor2" else g
        for g in nl.gates)), {"g": dataclasses.replace(p, inverted=True)})


class CountingFloat(float):
    """A float that counts how often its repr is taken."""

    calls = 0

    def __repr__(self):
        CountingFloat.calls += 1
        return super().__repr__()


# bounds keep 2RC(R5+2R)/alpha below ~150 for every alpha subset, well
# inside the Lambert-W domain (the argument underflows near 1070)
nor_params = st.builds(
    NorGateParams,
    r_n_a=st.floats(500.0, 8000.0),
    r_n_b=st.floats(500.0, 8000.0),
    r=st.floats(300.0, 2500.0),
    alpha1=st.floats(5e-10, 1e-8),
    alpha2=st.floats(5e-10, 1e-8),
    c_load=st.floats(5e-16, 2.5e-15),
    r5=st.floats(0.0, 800.0),
    delta_min=st.floats(0.0, 1e-11),
)

cgate_params = st.builds(
    CGateParams,
    r_n=st.floats(300.0, 2500.0),
    r_p=st.floats(300.0, 2500.0),
    alpha1=st.floats(5e-10, 1e-8),
    alpha2=st.floats(5e-10, 1e-8),
    alpha3=st.floats(5e-10, 1e-8),
    alpha4=st.floats(5e-10, 1e-8),
    c_load=st.floats(5e-16, 2.5e-15),
    r5=st.floats(0.0, 800.0),
    delta_min=st.floats(0.0, 1e-11),
)
