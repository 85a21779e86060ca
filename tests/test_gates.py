"""Tests for the closed-form delay families in misdelay.gates."""

import hashlib
import math
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (CG_ISO, CG_W3, NOR_A, NOR_B, CountingFloat,
                     cgate_params, nor_params, output_family)
from misdelay import gates
from misdelay.gates import (
    Breakpoints,
    CGateParams,
    DelayQuery,
    NorGateParams,
    ParamError,
    _output_families,
    cgate_breakpoints,
    cgate_delay,
    effective_caps,
    nor_breakpoints,
    nor_delay,
)
from misdelay.fileio import list_fixtures, load_fixture
from misdelay.numerics import DomainError
from misdelay.trajectories import delay_by_inversion

LN2 = math.log(2.0)

# each kind of bad number with the repr a ParamError must quote
BAD_NUMBERS = [
    pytest.param(-1.5, "-1.5", id="negative"),
    pytest.param(0.0, "0.0", id="zero"),
    pytest.param(math.nan, "nan", id="nan"),
    pytest.param(math.inf, "inf", id="inf"),
    pytest.param(-math.inf, "-inf", id="-inf"),
    pytest.param(True, "True", id="bool"),
    pytest.param(10 ** 400, "1" + "0" * 400, id="huge-int"),
    pytest.param("2e3", "'2e3'", id="str"),
]


class PlainSubFloat(float):
    """A float subclass with float's own behaviour."""


_NOT_A_FLOAT = "delta must be a float, got "

# outcome of DelayQuery(direction, delta) for every kind of separation:
# None where it is accepted, else its ValueError message
DELAY_QUERY_TABLE = [
    (1.5e-12, None),
    (-2.5e-12, None),
    (0.0, None),
    (-0.0, None),
    (math.inf, None),
    (-math.inf, None),
    (3, None),
    (-7, None),
    (PlainSubFloat(2.5e-12), None),
    (PlainSubFloat(math.inf), None),
    (PlainSubFloat(math.nan), "delta must not be NaN"),
    (math.nan, "delta must not be NaN"),
    (True, _NOT_A_FLOAT + "True"),
    (False, _NOT_A_FLOAT + "False"),
    ("1.0", _NOT_A_FLOAT + "'1.0'"),
    (None, _NOT_A_FLOAT + "None"),
    (10 ** 400, _NOT_A_FLOAT + str(10 ** 400)),
    (-10 ** 400, _NOT_A_FLOAT + str(-10 ** 400)),
]


def rising_crossing_oracle(alpha_sum: float, r: float, r5: float,
                           c: float) -> float:
    """Threshold crossing of the drive-up transient, found by bisection.

    Independent of the Lambert-W closed form: evaluates the trajectory
    factor exp(-t/tau) * (1 + t/a)^(a/tau) directly and bisects it
    against 1/2.
    """
    a = alpha_sum / (2.0 * r)
    tau = c * (r5 + 2.0 * r)

    def phi(t):
        return math.exp((-t + a * math.log1p(t / a)) / tau)

    hi = 4.0 * (tau + a)
    while phi(hi) >= 0.5:
        hi *= 2.0
    return oracles.crossing_time_bisect(phi, 0.5, 0.0, hi)


class TestEffectiveCaps:
    def test_no_interconnect_collapses_to_load(self):
        p = replace(NOR_A, r5=0.0)
        caps = effective_caps(p)
        assert caps == (p.c_load,) * 4

    def test_known_values(self):
        caps = effective_caps(NOR_A)
        assert math.isclose(caps.c1, 1.5167e-15, rel_tol=1e-4)
        assert math.isclose(
            caps.c1, NOR_A.c_load * (NOR_A.r5 + NOR_A.r_n_a) / NOR_A.r_n_a)
        assert math.isclose(
            caps.c3, NOR_A.c_load * (NOR_A.r5 + 2 * NOR_A.r) / (2 * NOR_A.r))

    def test_symmetric_pulldowns(self):
        p = replace(NOR_A, r_n_a=2000.0, r_n_b=2000.0)
        caps = effective_caps(p)
        assert math.isclose(caps.c2,
                            p.c_load * (2 * p.r5 + 2000.0) / 2000.0)

    def test_each_at_least_load(self):
        for p in (NOR_A, NOR_B):
            assert all(c >= p.c_load for c in effective_caps(p))

    @pytest.mark.parametrize("fields,match", [
        # inf/inf makes c3, then c2, NaN, which min() passes over
        # unless it comes first
        pytest.param({"r": 1.7e308}, "capacitance is not positive",
                     id="c3-nan"),
        pytest.param({"r_n_a": 1.7e308, "r_n_b": 1.7e308, "r5": 0.0},
                     "capacitance is not positive", id="c2-nan"),
        pytest.param({"r_n_a": 5e-324, "r_n_b": 1e-45},
                     "r_n_a \\* r_n_b underflows", id="rab-underflow"),
    ])
    def test_extreme_fields_raise(self, fields, match):
        p = replace(load_fixture("nor15_l3"), **fields)
        with pytest.raises(DomainError, match=match):
            effective_caps(p)


class TestNorExtremals:
    def test_equal_alphas_degenerate(self):
        p = replace(NOR_A, alpha1=8e-10, alpha2=8e-10)
        ext = output_family(p, True)
        assert ext.d_inf == ext.d_minus_inf
        assert ext.d0 > ext.d_inf

    def test_all_positive_and_zero_delta_dominates(self):
        for p in (NOR_A, NOR_B):
            ext = output_family(p, True)
            assert 0.0 < ext.d_inf < ext.d0
            assert 0.0 < ext.d_minus_inf < ext.d0

    def test_matches_trajectory_bisection(self):
        caps = effective_caps(NOR_A)
        ext = output_family(NOR_A, True)
        pairs = [
            (ext.d0, NOR_A.alpha1 + NOR_A.alpha2),
            (ext.d_inf, NOR_A.alpha2),
            (ext.d_minus_inf, NOR_A.alpha1),
        ]
        for closed, alpha_sum in pairs:
            t_ref = rising_crossing_oracle(alpha_sum, NOR_A.r, NOR_A.r5,
                                           NOR_A.c_load)
            assert abs(closed - t_ref) <= 1e-12
            # cross-check the effective-cap route: same crossing computed
            # against c3 with the interconnect folded out
            assert math.isclose(caps.c3 * 2 * NOR_A.r,
                                NOR_A.c_load * (NOR_A.r5 + 2 * NOR_A.r))

    def test_transient_underflow_rejected(self):
        # alpha so small against the RC constant that the transistor
        # transient is over before the output moves: no finite W argument
        p = replace(NOR_A, alpha1=0.6e-12, alpha2=0.6e-12,
                    c_load=2.6331e-15, r5=801.28)
        with pytest.raises(DomainError):
            output_family(p, True)


class TestNorFallingFamily:
    def test_single_input_limits(self):
        caps = effective_caps(NOR_A)
        d_plus = nor_delay(NOR_A, DelayQuery("falling", math.inf))
        d_minus = nor_delay(NOR_A, DelayQuery("falling", -math.inf))
        assert math.isclose(d_plus,
                            LN2 * caps.c1 * NOR_A.r_n_a + NOR_A.delta_min,
                            rel_tol=1e-15)
        assert math.isclose(d_minus,
                            LN2 * caps.c1_prime * NOR_A.r_n_b + NOR_A.delta_min,
                            rel_tol=1e-15)

    def test_zero_delta_value(self):
        caps = effective_caps(NOR_A)
        ra, rb = NOR_A.r_n_a, NOR_A.r_n_b
        want = LN2 * caps.c2 * ra * rb / (ra + rb) + NOR_A.delta_min
        assert nor_delay(NOR_A, DelayQuery("falling", 0.0)) == want
        assert nor_delay(NOR_A, DelayQuery("falling", -0.0)) == want

    def test_linear_segment_value(self):
        caps = effective_caps(NOR_A)
        ra, rb = NOR_A.r_n_a, NOR_A.r_n_b
        delta = 1e-12
        want = ((LN2 * caps.c2 * ra * rb - (caps.c2 / caps.c1) * delta * rb)
                / (ra + rb) + delta + NOR_A.delta_min)
        got = nor_delay(NOR_A, DelayQuery("falling", delta))
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_slowest_at_simultaneous_switch(self):
        # the second pulldown can only help, so delay grows with |delta|
        d0 = nor_delay(NOR_A, DelayQuery("falling", 0.0))
        bps = nor_breakpoints(NOR_A)
        for delta in (0.3 * bps.down_plus, bps.down_plus, 2 * bps.down_plus):
            assert nor_delay(NOR_A, DelayQuery("falling", delta)) > d0
        for delta in (0.3 * bps.down_minus, bps.down_minus):
            assert nor_delay(NOR_A, DelayQuery("falling", -delta)) > d0


class TestNorRisingFamily:
    def test_single_input_limits(self):
        ext = output_family(NOR_A, True)
        assert nor_delay(NOR_A, DelayQuery("rising", math.inf)) == \
            ext.d_inf + NOR_A.delta_min
        assert nor_delay(NOR_A, DelayQuery("rising", -math.inf)) == \
            ext.d_minus_inf + NOR_A.delta_min

    def test_linear_slope(self):
        # the linear region of this gate ends below 1 ps, so probe at
        # half the breakpoint rather than a fixed separation
        ext = output_family(NOR_A, True)
        bps = nor_breakpoints(NOR_A)
        asum = NOR_A.alpha1 + NOR_A.alpha2
        d_plus = 0.5 * bps.up_plus
        got = nor_delay(NOR_A, DelayQuery("rising", d_plus))
        want = ext.d0 - (NOR_A.alpha1 / asum) * d_plus + NOR_A.delta_min
        assert math.isclose(got, want, rel_tol=1e-14)
        d_minus = 0.5 * bps.up_minus
        got = nor_delay(NOR_A, DelayQuery("rising", -d_minus))
        want = ext.d0 - (NOR_A.alpha2 / asum) * d_minus + NOR_A.delta_min
        assert math.isclose(got, want, rel_tol=1e-14)
        # one picosecond is already past both rising breakpoints here
        assert nor_delay(NOR_A, DelayQuery("rising", 1e-12)) == \
            ext.d_inf + NOR_A.delta_min

    def test_clamp_beyond_breakpoint(self):
        bps = nor_breakpoints(NOR_A)
        at_inf = nor_delay(NOR_A, DelayQuery("rising", math.inf))
        assert nor_delay(NOR_A, DelayQuery("rising", 1.5 * bps.up_plus)) == at_inf
        at_minus_inf = nor_delay(NOR_A, DelayQuery("rising", -math.inf))
        assert nor_delay(
            NOR_A, DelayQuery("rising", -1.5 * bps.up_minus)) == at_minus_inf

    def test_symmetric_breakpoints(self):
        p = NorGateParams(r_n_a=2000.0, r_n_b=2000.0, r=1500.0,
                          alpha1=9e-10, alpha2=9e-10, c_load=2e-15)
        ext = output_family(p, True)
        bps = nor_breakpoints(p)
        assert math.isclose(bps.up_plus, 2 * (ext.d0 - ext.d_inf),
                            rel_tol=1e-15)
        assert bps.up_plus == bps.up_minus


class TestNorBreakpoints:
    def test_values(self):
        caps = effective_caps(NOR_A)
        ext = output_family(NOR_A, True)
        asum = NOR_A.alpha1 + NOR_A.alpha2
        bps = nor_breakpoints(NOR_A)
        assert bps == Breakpoints(
            LN2 * caps.c1 * NOR_A.r_n_a,
            LN2 * caps.c1_prime * NOR_A.r_n_b,
            asum * (ext.d0 - ext.d_inf) / NOR_A.alpha1,
            asum * (ext.d0 - ext.d_minus_inf) / NOR_A.alpha2,
        )
        assert all(0.0 < bp < math.inf for bp in bps)

    @pytest.mark.parametrize("name", list_fixtures())
    def test_mis_length_is_the_reported_breakpoint(self, name):
        # bp0, the MIS region's length, is where the switch-on families
        # clamp today; a wider clamp changes this test and no other grid
        p = load_fixture(name)
        if isinstance(p, NorGateParams):
            rise, bps = output_family(p, True), nor_breakpoints(p)
            pairs = [(rise, (bps.up_plus, bps.up_minus))]
        else:
            # no fixture is inverted: an input pair drives its own direction
            pairs = [(output_family(p, d == "rising"), cgate_breakpoints(p, d))
                     for d in ("rising", "falling")]
        for fam, reported in pairs:
            assert (fam.bp0_plus.hex(), fam.bp0_minus.hex()) == \
                tuple(bp.hex() for bp in reported)

    @pytest.mark.parametrize("name", list_fixtures())
    def test_every_table_is_a_family(self, name):
        # one table type for all four families: the falling NOR family
        # carries bp0 too, equal to its breakpoints
        p = load_fixture(name)
        tables = [table for _, table in _output_families(p)]
        assert all(type(table) is gates._Family for table in tables)
        if isinstance(p, NorGateParams):
            bps = nor_breakpoints(p)
            assert (tables[0].bp0_plus, tables[0].bp0_minus) == \
                (bps.down_plus, bps.down_minus)

    def test_continuity_at_every_breakpoint(self):
        bps = nor_breakpoints(NOR_A)
        for direction, bp, sign in (
            ("falling", bps.down_plus, 1.0),
            ("falling", bps.down_minus, -1.0),
            ("rising", bps.up_plus, 1.0),
            ("rising", bps.up_minus, -1.0),
        ):
            inside = nor_delay(NOR_A, DelayQuery(direction,
                                                 sign * bp * (1 - 1e-12)))
            clamped = nor_delay(NOR_A, DelayQuery(direction, sign * bp))
            assert abs(inside - clamped) <= 1e-15


class TestCGateFamilies:
    def test_zero_delta_is_extremal(self):
        for direction in ("rising", "falling"):
            ext = output_family(CG_ISO, direction == "rising")
            want = ext.d0 + CG_ISO.delta_min
            assert cgate_delay(CG_ISO, DelayQuery(direction, 0.0)) == want
            assert cgate_delay(CG_ISO, DelayQuery(direction, -0.0)) == want

    def test_rising_slope(self):
        ext = output_family(CG_ISO, True)
        asum = CG_ISO.alpha1 + CG_ISO.alpha2
        got = cgate_delay(CG_ISO, DelayQuery("rising", 2e-12))
        want = ext.d0 - (CG_ISO.alpha1 / asum) * 2e-12 + CG_ISO.delta_min
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_falling_slope_uses_mirrored_pair(self):
        ext = output_family(CG_ISO, False)
        asum = CG_ISO.alpha3 + CG_ISO.alpha4
        got = cgate_delay(CG_ISO, DelayQuery("falling", 2e-12))
        want = ext.d0 - (CG_ISO.alpha4 / asum) * 2e-12 + CG_ISO.delta_min
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_equal_falling_alphas_degenerate(self):
        p = replace(CG_ISO, alpha3=1.6, alpha4=1.6)
        ext = output_family(p, False)
        assert ext.d_inf == ext.d_minus_inf

    def test_extremal_matches_trajectory_bisection(self):
        ext = output_family(CG_ISO, True)
        t_ref = rising_crossing_oracle(CG_ISO.alpha1 + CG_ISO.alpha2,
                                       CG_ISO.r_n, CG_ISO.r5, CG_ISO.c_load)
        assert abs(ext.d0 - t_ref) <= 1e-12
        ext = output_family(CG_ISO, False)
        t_ref = rising_crossing_oracle(CG_ISO.alpha3 + CG_ISO.alpha4,
                                       CG_ISO.r_p, CG_ISO.r5, CG_ISO.c_load)
        assert abs(ext.d0 - t_ref) <= 1e-12

    def test_inverted_flag_swaps_families(self):
        inv = replace(CG_ISO, inverted=True)
        for delta in (-5e-12, 0.0, 3e-12, math.inf):
            assert cgate_delay(inv, DelayQuery("rising", delta)) == \
                cgate_delay(CG_ISO, DelayQuery("falling", delta))
            assert cgate_delay(inv, DelayQuery("falling", delta)) == \
                cgate_delay(CG_ISO, DelayQuery("rising", delta))

    def test_clamps(self):
        ext = output_family(CG_ISO, True)
        asum = CG_ISO.alpha1 + CG_ISO.alpha2
        bp_plus = asum * (ext.d0 - ext.d_inf) / CG_ISO.alpha1
        assert cgate_delay(CG_ISO, DelayQuery("rising", 2 * bp_plus)) == \
            ext.d_inf + CG_ISO.delta_min

    def test_breakpoints_mark_the_clamp(self):
        for direction in ("rising", "falling"):
            ext = output_family(CG_ISO, direction == "rising")
            bp_plus, bp_minus = cgate_breakpoints(CG_ISO, direction)
            at_plus = cgate_delay(CG_ISO, DelayQuery(direction, bp_plus))
            at_minus = cgate_delay(CG_ISO, DelayQuery(direction, -bp_minus))
            assert at_plus == pytest.approx(ext.d_inf + CG_ISO.delta_min,
                                            rel=1e-14)
            assert at_minus == pytest.approx(ext.d_minus_inf + CG_ISO.delta_min,
                                             rel=1e-14)
        with pytest.raises(ValueError, match="input_direction"):
            cgate_breakpoints(CG_ISO, "sideways")


class TestValidation:
    def test_nor_params_rejected(self):
        with pytest.raises(ParamError):
            NorGateParams(r_n_a=-1.0, r_n_b=2000.0, r=1500.0,
                          alpha1=1e-9, alpha2=1e-9, c_load=1e-15)
        with pytest.raises(ParamError):
            NorGateParams(r_n_a=2000.0, r_n_b=2000.0, r=1500.0,
                          alpha1=0.0, alpha2=1e-9, c_load=1e-15)
        with pytest.raises(ParamError):
            replace(NOR_A, c_load=math.nan)
        with pytest.raises(ParamError):
            replace(NOR_A, r5=-1e-3)
        with pytest.raises(ParamError):
            replace(NOR_A, delta_min=-1e-12)

    def test_cgate_params_rejected(self):
        with pytest.raises(ParamError):
            replace(CG_ISO, alpha3=-1.0)
        with pytest.raises(ParamError):
            replace(CG_ISO, r_p=math.inf)
        with pytest.raises(ParamError):
            replace(CG_ISO, inverted="yes")

    @pytest.mark.parametrize("base", [NOR_A, CG_ISO], ids=["nor", "cgate"])
    @pytest.mark.parametrize("bad,text", BAD_NUMBERS)
    def test_error_text_names_first_bad_field(self, base, bad, text):
        names = [f.name for f in fields(base) if f.name != "inverted"]
        for i, name in enumerate(names):
            bound = ">= 0" if name in ("r5", "delta_min") else "> 0"
            if bad == 0.0 and bound == ">= 0":
                continue
            # every later field is bad too: the first one is named
            with pytest.raises(ParamError) as info:
                replace(base, **{n: bad for n in names[i:]})
            assert str(info.value) == \
                f"{name} must be finite and {bound}, got {text}"

    @pytest.mark.parametrize("bad,text", [(1, "1"), ("yes", "'yes'"),
                                          (None, "None")])
    def test_inverted_text_and_checked_last(self, bad, text):
        with pytest.raises(ParamError) as info:
            replace(CG_ISO, inverted=bad)
        assert str(info.value) == f"inverted must be a bool, got {text}"
        with pytest.raises(ParamError, match="^c_load must"):
            replace(CG_ISO, inverted=bad, c_load=-1.0)

    def test_valid_construction_formats_nothing(self):
        CountingFloat.calls = 0
        NorGateParams(**{f.name: CountingFloat(getattr(NOR_A, f.name))
                         for f in fields(NOR_A)})
        CGateParams(**{f.name: CountingFloat(getattr(CG_ISO, f.name))
                       for f in fields(CG_ISO) if f.name != "inverted"})
        assert CountingFloat.calls == 0
        with pytest.raises(ParamError, match="got -1.0$"):
            replace(NOR_A, r=CountingFloat(-1.0))
        assert CountingFloat.calls == 1

    def test_query_rejected(self):
        with pytest.raises(ValueError):
            DelayQuery("sideways", 0.0)
        with pytest.raises(ValueError):
            DelayQuery("rising", math.nan)
        with pytest.raises(ValueError):
            DelayQuery("rising", True)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_query_int_beyond_float_range(self, sign):
        with pytest.raises(ValueError, match="^delta must be a float, got "):
            DelayQuery("rising", sign * 10 ** 400)
        # the unbounded separations stay valid
        assert DelayQuery("rising", sign * math.inf).delta == sign * math.inf

    @pytest.mark.parametrize("delta, want", DELAY_QUERY_TABLE,
                             ids=[f"{type(d).__name__}:{d!r:.20}"
                                  for d, _ in DELAY_QUERY_TABLE])
    def test_query_validation_table(self, delta, want):
        # None: accepted and stored as given; else the ValueError message
        if want is None:
            assert DelayQuery("falling", delta).delta is delta
            return
        with pytest.raises(ValueError) as info:
            DelayQuery("falling", delta)
        assert type(info.value) is ValueError
        assert str(info.value) == want

    def test_query_direction_checked_first(self):
        with pytest.raises(ValueError) as info:
            DelayQuery("sideways", math.nan)
        assert str(info.value) == ("output_direction must be one of "
                                   "('rising', 'falling'), got 'sideways'")


def scaled_nor(p: NorGateParams, k: float) -> NorGateParams:
    return NorGateParams(r_n_a=p.r_n_a / k, r_n_b=p.r_n_b / k, r=p.r / k,
                         alpha1=p.alpha1 / k, alpha2=p.alpha2 / k,
                         c_load=p.c_load * k, r5=p.r5 / k,
                         delta_min=p.delta_min)


def scaled_cgate(p: CGateParams, k: float) -> CGateParams:
    return CGateParams(r_n=p.r_n / k, r_p=p.r_p / k,
                       alpha1=p.alpha1 / k, alpha2=p.alpha2 / k,
                       alpha3=p.alpha3 / k, alpha4=p.alpha4 / k,
                       c_load=p.c_load * k, r5=p.r5 / k,
                       delta_min=p.delta_min)


class TestNorProperties:
    @given(nor_params)
    @settings(max_examples=80, deadline=None)
    def test_breakpoint_continuity(self, p):
        bps = nor_breakpoints(p)
        cases = (("falling", bps.down_plus, 1.0),
                 ("falling", bps.down_minus, -1.0),
                 ("rising", bps.up_plus, 1.0),
                 ("rising", bps.up_minus, -1.0))
        for direction, bp, sign in cases:
            inside = nor_delay(p, DelayQuery(direction, sign * bp * (1 - 1e-12)))
            clamped = nor_delay(p, DelayQuery(direction, sign * bp))
            assert abs(inside - clamped) <= 1e-15

    @given(nor_params)
    @settings(max_examples=80, deadline=None)
    def test_signed_zero_and_clamping(self, p):
        for direction in ("rising", "falling"):
            plus = nor_delay(p, DelayQuery(direction, 0.0))
            minus = nor_delay(p, DelayQuery(direction, -0.0))
            assert plus == minus
        bps = nor_breakpoints(p)
        assert nor_delay(p, DelayQuery("rising", 3 * bps.up_plus)) == \
            nor_delay(p, DelayQuery("rising", math.inf))
        assert nor_delay(p, DelayQuery("falling", -3 * bps.down_minus)) == \
            nor_delay(p, DelayQuery("falling", -math.inf))

    @given(nor_params)
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance(self, p):
        bps = nor_breakpoints(p)
        deltas = (0.0, 0.5 * bps.up_plus, -0.7 * bps.down_minus,
                  2 * bps.down_plus, math.inf)
        for k in (0.1, 10.0, 1000.0):
            q = scaled_nor(p, k)
            for direction in ("rising", "falling"):
                for delta in deltas:
                    a = nor_delay(p, DelayQuery(direction, delta))
                    b = nor_delay(q, DelayQuery(direction, delta))
                    assert math.isclose(a, b, rel_tol=1e-12)

    @given(nor_params)
    @settings(max_examples=80, deadline=None)
    def test_positive_beyond_transport(self, p):
        bps = nor_breakpoints(p)
        for direction, bp in (("rising", bps.up_plus),
                              ("falling", bps.down_plus)):
            for delta in (0.0, 0.5 * bp, -2 * bp, math.inf):
                assert nor_delay(p, DelayQuery(direction, delta)) > p.delta_min


class TestCGateProperties:
    @given(cgate_params)
    @settings(max_examples=80, deadline=None)
    def test_continuity_and_clamping(self, p):
        for direction in ("rising", "falling"):
            ext = output_family(p, direction == "rising")
            first, second = ((p.alpha1, p.alpha2) if direction == "rising"
                             else (p.alpha4, p.alpha3))
            asum = first + second
            bp_plus = asum * (ext.d0 - ext.d_inf) / first
            bp_minus = asum * (ext.d0 - ext.d_minus_inf) / second
            for bp, sign in ((bp_plus, 1.0), (bp_minus, -1.0)):
                inside = cgate_delay(p, DelayQuery(direction,
                                                   sign * bp * (1 - 1e-12)))
                clamped = cgate_delay(p, DelayQuery(direction, sign * bp))
                assert abs(inside - clamped) <= 1e-15
            assert cgate_delay(p, DelayQuery(direction, 2 * bp_plus)) == \
                ext.d_inf + p.delta_min

    @given(cgate_params)
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance(self, p):
        for k in (0.1, 10.0, 1000.0):
            q = scaled_cgate(p, k)
            for direction in ("rising", "falling"):
                for delta in (0.0, 1e-12, -4e-12, math.inf, -math.inf):
                    a = cgate_delay(p, DelayQuery(direction, delta))
                    b = cgate_delay(q, DelayQuery(direction, delta))
                    assert math.isclose(a, b, rel_tol=1e-12)


class TestSharedSwitchOnFamily:
    """The NOR's rising family is the C gate's rising-pair family.

    Both are the switch-on transient of two series transistors with
    coefficients alpha1 (first input) and alpha2 (second input), so a
    non-inverted C gate with r_n = r and the NOR's alpha1, alpha2, r5,
    c_load and delta_min must give the NOR's rising delays to the bit.
    The falling-pair stack (r_p, alpha3, alpha4) plays no part.
    """

    @given(nor_params, st.floats(300.0, 2500.0), st.floats(5e-10, 1e-8),
           st.floats(5e-10, 1e-8))
    @settings(max_examples=30, deadline=None)
    def test_rising_delays_identical(self, p, r_p, alpha3, alpha4):
        c = CGateParams(r_n=p.r, r_p=r_p, alpha1=p.alpha1, alpha2=p.alpha2,
                        alpha3=alpha3, alpha4=alpha4, c_load=p.c_load,
                        r5=p.r5, delta_min=p.delta_min)
        bps = nor_breakpoints(p)
        assert cgate_breakpoints(c, "rising") == (bps.up_plus, bps.up_minus)
        deltas = [0.0, math.inf, -math.inf]
        for bp, sign in ((bps.up_plus, 1.0), (bps.up_minus, -1.0)):
            deltas += [sign * k * bp for k in (0.01, 0.5, 1.0, 3.0)]
        for delta in deltas:
            q = DelayQuery("rising", delta)
            assert nor_delay(p, q) == cgate_delay(c, q), delta
            assert delay_by_inversion("nor2", "rising", delta, p) == \
                delay_by_inversion("cgate", "rising", delta, c), delta


class TestDelayPinned:
    """nor_delay/cgate_delay on every fixture, and on each C gate
    inverted, in both directions at 0, +-bp0/2, +-bp0, +-2*bp0 and
    +-inf, hashed: a change to how the tables are found or stored must
    leave every delay bit-identical."""

    SHA256 = "c6db3839ab48bcae67e5606120aa2a9f554f549f39a715fb2a4895bb77c33348"

    def test_outputs_bit_identical(self):
        sets = [load_fixture(name) for name in list_fixtures()]
        sets += [replace(p, inverted=True) for p in sets
                  if isinstance(p, CGateParams)]
        out = []
        for p in sets:
            for direction in ("falling", "rising"):
                fam = output_family(p, direction == "rising")
                plus, minus = fam.bp0_plus, fam.bp0_minus
                deltas = (0.0, math.inf, -math.inf) + tuple(
                    m * bp for m in (0.5, 1.0, 2.0)
                    for bp in (plus, -minus))
                out.extend(nor_delay(p, DelayQuery(direction, d))
                           for d in deltas)
        assert len(out) == 30 * 2 * 9
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.SHA256


class TestParamTypes:
    """A delay or table of the wrong kind of object is a TypeError, found
    where the tables are built, so a query pays no check."""

    def test_one_delay_function_for_both_kinds(self):
        # the gate kind comes from the parameter set, not the name
        assert cgate_delay is nor_delay
        assert nor_delay(CG_ISO, DelayQuery("rising", 0.0)) == \
            output_family(CG_ISO, True).d0 + CG_ISO.delta_min

    @pytest.mark.parametrize("bad", [None, "x", 1.0])
    def test_delay_of_a_non_gate(self, bad):
        with pytest.raises(TypeError, match="expected gate params"):
            nor_delay(bad, DelayQuery("rising", 0.0))

    def test_nor_table_of_a_c_gate(self):
        with pytest.raises(TypeError,
                           match="expected NorGateParams, got CGateParams"):
            nor_breakpoints(CG_ISO)

    @pytest.mark.parametrize("direction", ["rising", "falling"])
    def test_c_gate_table_of_a_nor(self, direction):
        with pytest.raises(TypeError,
                           match="expected CGateParams, got NorGateParams"):
            cgate_breakpoints(NOR_A, direction)


class TestTableCache:
    """One cache, keyed by the parameter set's identity, holds both
    output families of each of the last 512 sets still alive."""

    @pytest.mark.parametrize("base", [NOR_A, CG_W3,
                                      replace(CG_W3, inverted=True)],
                             ids=["nor", "cgate", "cgate-inverted"])
    def test_one_miss_builds_every_family(self, base, monkeypatch):
        misses, families = [], []
        build, family = gates._build_families, gates._family

        def counting_build(p):
            misses.append(p)
            return build(p)

        def counting_family(*args):
            families.append(args)
            return family(*args)

        monkeypatch.setattr(gates, "_build_families", counting_build)
        monkeypatch.setattr(gates, "_family", counting_family)
        p = replace(base)   # a new object, so its first query misses
        nor = isinstance(p, NorGateParams)
        first = nor_delay(p, DelayQuery("rising", 0.0))
        # a NOR has one switch-on family; a C gate one per input pair
        assert (len(misses), len(families)) == (1, 1 if nor else 2)
        for direction in ("falling", "rising"):
            for d in (0.0, 1e-12, -1e-12, math.inf, -math.inf):
                nor_delay(p, DelayQuery(direction, d))
            if nor:
                nor_breakpoints(p)
            else:
                cgate_breakpoints(p, direction)
        assert (len(misses), len(families)) == (1, 1 if nor else 2)
        assert first == nor_delay(base, DelayQuery("rising", 0.0))

    def test_equal_sets_built_separately_get_their_own_entry(self):
        a, b = replace(CG_W3), replace(CG_W3)
        assert a == b and a is not b
        fa, fb = _output_families(a), _output_families(b)
        assert fa == fb and fa is not fb
        assert gates._tables[id(a)][0]() is a
        assert gates._tables[id(b)][0]() is b

    def test_holds_the_last_512_sets(self):
        sets = [replace(NOR_A, c_load=NOR_A.c_load * (1.0 + 1e-3 * i))
                for i in range(600)]
        first = _output_families(sets[0])
        for p in sets[1:]:
            nor_delay(p, DelayQuery("falling", 0.0))
            assert len(gates._tables) <= 512
        assert len(gates._tables) == 512
        # the oldest entries went first
        assert all(gates._tables[id(p)][0]() is p for p in sets[-512:])
        assert id(sets[0]) not in gates._tables
        again = _output_families(sets[0])
        assert again == first and again is not first

    @pytest.mark.parametrize("lookup,base,other", [
        (lambda p: nor_delay(p, DelayQuery("rising", 1e-12)), NOR_A, NOR_B),
        (lambda p: cgate_delay(p, DelayQuery("rising", 1e-12)), CG_W3,
         CG_ISO),
        (_output_families, NOR_A, NOR_B),
    ], ids=["nor_delay", "cgate_delay", "_output_families"])
    def test_entry_for_another_object_is_not_returned(self, lookup, base,
                                                      other):
        p = replace(base)
        gates._tables[id(p)] = (weakref.ref(other), _output_families(other))
        assert lookup(p) == lookup(base) != lookup(other)
        assert gates._tables[id(p)][0]() is p

    def test_entry_goes_with_its_set(self):
        # a set built afresh for each run leaves no tables behind
        p = replace(CG_W3)
        key = id(p)
        cgate_delay(p, DelayQuery("falling", 0.0))
        assert gates._tables[key][0]() is p
        del p
        assert key not in gates._tables
