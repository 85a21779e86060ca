"""Tests for parameter extraction from extremal delays."""

import hashlib
import math
import random
import sys
from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (CG_ISO, CG_W3, NOR_A, NOR_B, cgate_params, measured_from,
                     nor_params)
from misdelay import characterize, gates, numerics
from misdelay.characterize import (
    InvalidMeasurementsError,
    MeasuredDelays,
    characterize_cgate,
    characterize_nor,
    validate_measured,
)
from misdelay.fileio import list_fixtures, load_fixture, serialize_params
from misdelay.gates import (
    CGateParams,
    DelayQuery,
    NorGateParams,
    ParamError,
    cgate_delay,
    nor_delay,
)
from misdelay.numerics import DomainError, find_root_bracketed

LN2 = math.log(2.0)

NOR_FIELDS = ("r_n_a", "r_n_b", "r", "alpha1", "alpha2", "r5")
CG_FIELDS = ("r_n", "r_p", "alpha1", "alpha2", "alpha3", "alpha4")


def transient_crossing(alpha, r, r5, c):
    """Bisection on the closed trajectory, independent of the solver."""
    a = alpha / (2.0 * r)
    tau = c * (r5 + 2.0 * r)

    def phi(t):
        return math.exp((-t + a * math.log1p(t / a)) / tau)

    return oracles.crossing_time_bisect(phi, 0.5, 0.0, 1.0)


class TestAlphaInverse:
    """_a_from_extremal inverts the lone switch-on crossing."""

    def test_matches_bisection_oracle(self):
        r, r5, c = NOR_A.r, NOR_A.r5, NOR_A.c_load
        for alpha in (1e-10, 5.102e-10, 1.078e-9, 1e-8, 1e-6, 1e-3, 0.3355):
            t = transient_crossing(alpha, r, r5, c)
            got = characterize._a_from_extremal(t, r5 + 2.0 * r, c)
            assert math.isclose(got, alpha / (2.0 * r), rel_tol=1e-10)

    def test_round_trip_across_series_switch(self):
        # the gap's series arm ends at u = tau/t = 0.1; the root's series
        # arm ends near u = 0.187 (q = 0.2) and its asymptotic start near
        # u = 0.947 (q = 2); u = 1e-3 is where the Lambert W form
        # switched.  Every side must invert the same curve
        r, r5, c = NOR_A.r, NOR_A.r5, NOR_A.c_load
        tau = c * (r5 + 2.0 * r) * LN2
        for u in (0.9e-3, 0.99e-3, 1.01e-3, 1.1e-3, 0.099, 0.101, 0.18,
                  0.19, 0.94, 0.95):
            t = tau / u
            a = characterize._a_from_extremal(t, r5 + 2.0 * r, c)
            assert math.isclose(transient_crossing(2.0 * r * a, r, r5, c), t,
                                rel_tol=1e-9)

    def test_rejects_delay_at_or_below_rc_floor(self):
        z, c = NOR_A.r5 + 2.0 * NOR_A.r, NOR_A.c_load
        floor = c * z * LN2
        for t in (floor, 0.5 * floor):
            with pytest.raises(DomainError):
                characterize._a_from_extremal(t, z, c)


class TestTransientScaleAccuracy:
    """_a_from_extremal against a 40-digit decimal inversion of the same
    floats, on a log grid that covers every arm switch."""

    def test_within_a_few_eps_of_the_decimal_reference(self):
        z, c = NOR_A.r5 + 2.0 * NOR_A.r, NOR_A.c_load
        tau = c * z * LN2
        # 300 points from 1e-9 to 0.99, and 200 more across the old
        # Lambert W switch at 1e-3 and the gap series' switch at 0.1
        lo, hi = math.log(1e-9), math.log(0.99)
        us = [math.exp(lo + i * (hi - lo) / 299) for i in range(300)]
        lo, hi = math.log(5e-4), math.log(2e-2)
        us += [math.exp(lo + i * (hi - lo) / 199) for i in range(200)]
        us += [0.0999, 0.1, 0.1001]
        worst = 0.0
        for u in us:
            t = tau / u
            want = oracles.reference_transient_scale(t, z, c, gates._LN2)
            err = abs(characterize._a_from_extremal(t, z, c) - float(want))
            # t - tau amplifies the rounding of tau by u/(1 - u)
            bound = 8.0 * sys.float_info.epsilon
            if u > 0.5:
                bound /= 1.0 - u
            worst = max(worst, err / float(want) / bound)
        assert worst <= 1.0


def _lambert_calls(fn):
    """Calls of lambert_w_m1 that fn() makes, counted by patching every
    misdelay module that binds it."""
    real = numerics.lambert_w_m1
    calls = []

    def counting(x):
        calls.append(x)
        return real(x)

    with pytest.MonkeyPatch.context() as mp:
        bound = [m for name, m in sorted(sys.modules.items())
                 if name.startswith("misdelay")
                 and getattr(m, "lambert_w_m1", None) is real]
        assert numerics in bound and gates in bound
        for module in bound:
            mp.setattr(module, "lambert_w_m1", counting)
        fn()
    return len(calls)


class TestFitsAvoidLambertW:
    @pytest.mark.parametrize("name", list_fixtures())
    def test_no_call_on_fixture(self, name):
        p = load_fixture(name)
        if isinstance(p, NorGateParams):
            m = measured_from(p)
            assert _lambert_calls(lambda: characterize_nor(m)) == 0
            return
        for q in (p, replace(p, inverted=not p.inverted)):
            m = measured_from(q)
            # the inverted twin has the same two totals; solve them anew
            characterize._solve_z.cache_clear()
            assert _lambert_calls(lambda: [
                characterize_cgate(m, r5, inverted=q.inverted)
                for r5 in (0.0, q.r5)]) == 0

    def test_counter_sees_table_builds(self):
        # a fresh parameter set builds its tables through Lambert W
        p = replace(NOR_A, r=NOR_A.r * 1.01)
        assert _lambert_calls(
            lambda: nor_delay(p, DelayQuery("rising", 0.0))) > 0


class TestValidation:
    def test_accepts_consistent_measurements(self):
        validate_measured(measured_from(NOR_A), "nor2")
        validate_measured(measured_from(CG_W3), "cgate")

    def test_reports_every_ordering_violation(self):
        m = measured_from(NOR_A)
        bad = MeasuredDelays(m.d_down_zero, m.d_down_inf, m.d_down_zero,
                             m.d_up_zero, m.d_up_inf, m.d_up_minus_inf,
                             m.delta_min, m.c_chosen)
        with pytest.raises(InvalidMeasurementsError) as exc:
            validate_measured(bad, "nor2")
        assert len(exc.value.problems) == 4

    def test_structural_problems_silence_ordering_checks(self):
        m = measured_from(NOR_A, d_up_zero=math.nan)
        with pytest.raises(InvalidMeasurementsError) as exc:
            validate_measured(m, "nor2")
        assert len(exc.value.problems) == 1
        assert "d_up_zero" in exc.value.problems[0]

    def test_delays_must_exceed_offset(self):
        m = measured_from(NOR_A, delta_min=1.0)
        with pytest.raises(InvalidMeasurementsError) as exc:
            validate_measured(m, "nor2")
        assert sum("delta_min" in p for p in exc.value.problems) >= 6

    def test_cgate_down_family_peaks_at_zero(self):
        m = measured_from(CG_W3)
        bad = replace(m, d_down_zero=0.5 * m.d_down_inf)
        with pytest.raises(InvalidMeasurementsError):
            validate_measured(bad, "cgate")

    def test_bools_are_not_numbers(self):
        m = measured_from(NOR_A)
        for name in ("d_up_zero", "c_chosen", "delta_min"):
            with pytest.raises(InvalidMeasurementsError, match=name):
                validate_measured(replace(m, **{name: True}), "nor2")
        with pytest.raises(InvalidMeasurementsError, match="delta_min"):
            validate_measured(replace(m, delta_min=False), "nor2")

    def test_ints_beyond_float_range_are_not_numbers(self):
        # compared as ints, never converted: no OverflowError escapes
        huge = 10 ** 400
        m = measured_from(NOR_A)
        for name in ("d_up_zero", "c_chosen", "delta_min"):
            with pytest.raises(InvalidMeasurementsError,
                               match=f"{name} must be (a )?finite"):
                validate_measured(replace(m, **{name: huge}), "nor2")
        assert characterize._is_real(10 ** 300)
        assert not characterize._is_real(-huge)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            validate_measured(measured_from(NOR_A), "nand2")

    @pytest.mark.parametrize("fit", [characterize_nor, characterize_cgate])
    @pytest.mark.parametrize("bad", [None, asdict(measured_from(CG_W3)),
                                     NOR_A])
    def test_only_measured_delays_are_measurements(self, fit, bad):
        want = f"expected MeasuredDelays, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=want):
            fit(bad)


class TestNorRoundTrip:
    @pytest.mark.parametrize("p", [NOR_A, NOR_B], ids=["l3", "l15"])
    def test_recovers_parameters(self, p):
        rec = characterize_nor(measured_from(p))
        for name in NOR_FIELDS:
            assert math.isclose(getattr(rec, name), getattr(p, name),
                                rel_tol=1e-12)
        assert rec.delta_min == p.delta_min
        assert rec.c_load == p.c_load

    def test_known_pull_resistance(self):
        rec = characterize_nor(measured_from(NOR_A))
        assert rec.r == pytest.approx(1277.1, rel=1e-12)

    def test_zero_interconnect_recovered_exactly(self):
        p = replace(NOR_A, r5=0.0)
        rec = characterize_nor(measured_from(p))
        assert rec.r5 == 0.0
        assert math.isclose(rec.r, p.r, rel_tol=1e-12)

    def test_capacitance_choice_rescales_but_preserves_delays(self):
        # measured delays fix only R*C products; a different chosen C
        # must give a different parameterization of the same behaviour
        m = measured_from(NOR_A)
        rec = characterize_nor(replace(m, c_chosen=10.0 * m.c_chosen))
        assert math.isclose(rec.r, NOR_A.r / 10.0, rel_tol=1e-9)
        for d in ("falling", "rising"):
            for x in (0.0, math.inf, -math.inf, 1e-12, -1e-12):
                a = nor_delay(NOR_A, DelayQuery(d, x))
                b = nor_delay(rec, DelayQuery(d, x))
                assert math.isclose(a, b, rel_tol=1e-12)

    def test_inconsistent_rising_triple(self):
        m = measured_from(NOR_A,
                         d_up_zero=2e-10 + NOR_A.delta_min,
                         d_up_inf=2e-12 + NOR_A.delta_min,
                         d_up_minus_inf=2e-12 + NOR_A.delta_min)
        with pytest.raises(InvalidMeasurementsError, match="inconsistent"):
            characterize_nor(m)

    def test_negative_interconnect_rejected(self):
        # in units of t_d0: eps = sqrt(9 * 9) = 9 > t_d0 puts r5 below 0
        unit, dm = 1e-12, NOR_A.delta_min
        m = measured_from(NOR_A, d_down_zero=dm + unit,
                          d_down_inf=dm + 10.0 * unit,
                          d_down_minus_inf=dm + 10.0 * unit)
        with pytest.raises(InvalidMeasurementsError,
                           match="negative interconnect resistance"):
            characterize_nor(m)

    def test_delay_under_rc_floor(self):
        m = measured_from(NOR_A, d_up_inf=3e-13 + NOR_A.delta_min)
        with pytest.raises(InvalidMeasurementsError,
                           match="no admissible pull resistance"):
            characterize_nor(m)


class TestCGateRoundTrip:
    def test_recovers_interconnected_gate(self):
        rec = characterize_cgate(measured_from(CG_W3), r5_choice=CG_W3.r5)
        for name in CG_FIELDS:
            assert math.isclose(getattr(rec, name), getattr(CG_W3, name),
                                rel_tol=1e-12)

    def test_recovers_isolated_gate(self):
        # transient coefficients orders of magnitude above the RC scale
        # push the crossing solve right up against the W branch point;
        # recovery must survive that regime
        rec = characterize_cgate(measured_from(CG_ISO), r5_choice=0.0)
        for name in CG_FIELDS:
            assert math.isclose(getattr(rec, name), getattr(CG_ISO, name),
                                rel_tol=1e-6)
        for d in ("falling", "rising"):
            for x in (0.0, math.inf, -math.inf, 1e-11, -1e-11):
                a = cgate_delay(CG_ISO, DelayQuery(d, x))
                b = cgate_delay(rec, DelayQuery(d, x))
                assert math.isclose(a, b, rel_tol=1e-9)

    def test_interconnect_share_is_free(self):
        m = measured_from(CG_W3)
        nominal = characterize_cgate(m, r5_choice=CG_W3.r5)
        lumped = characterize_cgate(m, r5_choice=0.0)
        assert lumped.r_n > nominal.r_n
        for d in ("falling", "rising"):
            for x in (0.0, math.inf, -math.inf, 2e-12, -2e-12):
                a = cgate_delay(nominal, DelayQuery(d, x))
                b = cgate_delay(lumped, DelayQuery(d, x))
                assert math.isclose(a, b, rel_tol=1e-12)

    def test_inverted_gate_swaps_families(self):
        p = replace(CG_W3, inverted=True)
        rec = characterize_cgate(measured_from(p), r5_choice=p.r5,
                                 inverted=True)
        assert rec.inverted
        for name in CG_FIELDS:
            assert math.isclose(getattr(rec, name), getattr(p, name),
                                rel_tol=1e-12)

    def test_r5_choice_domain(self):
        m = measured_from(CG_W3)
        with pytest.raises(ParamError):
            characterize_cgate(m, r5_choice=-1.0)
        with pytest.raises(ParamError, match="below"):
            characterize_cgate(m, r5_choice=1e9)

    def test_flag_arguments_checked_before_any_solve(self):
        m = measured_from(CG_W3)
        for kwargs in ({"r5_choice": True}, {"r5_choice": False},
                       {"inverted": 1}, {"inverted": None}):
            calls = _solve_calls(
                lambda: pytest.raises(ParamError, characterize_cgate, m,
                                      **kwargs))
            assert calls == []


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(nor_params)
    def test_nor_parameter_recovery(self, p):
        rec = characterize_nor(measured_from(p))
        for name in NOR_FIELDS:
            assert math.isclose(getattr(rec, name), getattr(p, name),
                                rel_tol=1e-6, abs_tol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(cgate_params)
    def test_cgate_delay_recovery(self, p):
        rec = characterize_cgate(measured_from(p), r5_choice=float(p.r5))
        for d in ("falling", "rising"):
            for x in (0.0, math.inf, -math.inf):
                a = cgate_delay(p, DelayQuery(d, x))
                b = cgate_delay(rec, DelayQuery(d, x))
                assert math.isclose(a, b, rel_tol=1e-9)


# SHA-256 of serialize_params for the gate fitted from each bundled
# fixture's six extremal delays; C gates are fitted at r5_choice = 0
# and at the fixture's own r5, in that order.  The fits must reproduce
# these bytes exactly.
FIT_SHA256 = {
    "cgate15_doublecap": (
        "7fc520bbdb1ef136140c7a78836562a88a00ff8d7ce02814128e3a5a81a4c2fd",
        "55ac05accf3e3c030aa5db389ac8a60d5a1b057bf90dc50014ba714a09d7950e"),
    "cgate15_doublecap_r5zero": (
        "7e8197e7d21ebd9fa39eb9f631744f1f4ae9b98bdae62ffef2071bfd1c1acff1",
        "7e8197e7d21ebd9fa39eb9f631744f1f4ae9b98bdae62ffef2071bfd1c1acff1"),
    "cgate15_halfres": (
        "d72a23049ec7773b874fc8f658d9cb54af2cd5844142a853938cf22c29e5c899",
        "7a2a9482a169dd064f547a1d8d8133ceb9c28012bd307a59324fc74f5fff5a2a"),
    "cgate15_halfres_r5zero": (
        "de144b7452297b61a5c185eaf141b28d04fdb3245f967235be49ff2757a8fe8c",
        "de144b7452297b61a5c185eaf141b28d04fdb3245f967235be49ff2757a8fe8c"),
    "cgate15_isolated": (
        "3081215e5ffbcdf83c27030b2f55770c929c3ab658cdc699fbdfcc6284448c03",
        "3081215e5ffbcdf83c27030b2f55770c929c3ab658cdc699fbdfcc6284448c03"),
    "cgate15_l15": (
        "7070c0bb20cddfb431d3a0d47e2b9e77a872758ee1b1b52b5740d2af3883af4d",
        "2751c9efb80b29bdefeed68bea42e0945c1503853134a86e3113f86a0d808f75"),
    "cgate15_l15_r5zero": (
        "b25eec23bb78a07122f66cb38447307bfe545b7462c241b39110f82ba67270ca",
        "b25eec23bb78a07122f66cb38447307bfe545b7462c241b39110f82ba67270ca"),
    "cgate15_l3": (
        "58b79426aeedfda575fc435c969455eecbe853669d7c41ffce704d5cfca208ab",
        "dcd9d046263f13b1b79127513895fd35d86a871c1a63d32a5c929b4e86631ecf"),
    "cgate15_l3_r5zero": (
        "22a4aae9b3bfd840b2583a7eed63d85da7282000a43411a9dd1ac2648e97366b",
        "22a4aae9b3bfd840b2583a7eed63d85da7282000a43411a9dd1ac2648e97366b"),
    "nor15_l15":
        "bd3c0bc2021a896e4334c57a8b7e41f37196805bd1ff5df582af9f3c3a73f8a7",
    "nor15_l15_doublecap":
        "e901ba725623026f239b85ea9387ebfaeb35ff240495abe03c74cead34d691c3",
    "nor15_l15_fanout2":
        "24eada35aaed44cd99e10fc8ff7ec97cf66322e0c4f58689618b8977cf3ba546",
    "nor15_l15_fanout8":
        "fe8c23252d7801719dc1748c0c4d042cdb45d23de6d58569388b8a7e28df3ae7",
    "nor15_l15_halfres":
        "6efa2437f112f67477a7f58c2b06b9a6d9f512cf052fc5351615f6f729cbbc6a",
    "nor15_l15_strong":
        "5ed2822e7449f943e358944964443bfb8ec007a656e90dd47fc612a4dbcd6167",
    "nor15_l15_weak":
        "a098a799b7f1fcb58bd1e69c9dc1ff498a88a05354140e7a3fc2a6f7dd57daf0",
    "nor15_l3":
        "11da3d7c72e1f9b29a756f8c85df12ca1a4cde2f540b28f1d0965cec5073caa2",
    "nor15_l3_fanout2":
        "5d3c3068b0085ad2baa34e045919d1ff13e04c666d7b0e5e625e90f8cfdeb962",
    "nor15_l3_fanout8":
        "ee7db8d3a14fa6be15616fcce6a0bd943e76fda56dd7a19dca9fc7c564c2e3bd",
    "nor65_l25":
        "efef164e54b9f65480dc726aaf023ddbc8dad55c048721e356adfb1927e44e88",
    "nor65_l5":
        "7827cc0442dd5098a31eed75ce1a87f6f287dc060b4da6e61eb4a5435a3cc416",
}


def _sha256(params):
    return hashlib.sha256(serialize_params(params).encode("utf-8")).hexdigest()


class TestFitBytesPinned:
    @pytest.mark.parametrize("name", sorted(FIT_SHA256))
    def test_fixture_fit(self, name):
        p = load_fixture(name)
        want = FIT_SHA256[name]
        if isinstance(p, NorGateParams):
            assert _sha256(characterize_nor(measured_from(p))) == want
            return
        m = measured_from(p)
        got = tuple(_sha256(characterize_cgate(m, r5, inverted=p.inverted))
                    for r5 in (0.0, p.r5))
        assert got == want

    def test_every_fixture_pinned(self):
        assert sorted(FIT_SHA256) == list_fixtures()


def _fit(p):
    """Fit p from its own six extremal delays; C gates at r5_choice = 0."""
    if isinstance(p, NorGateParams):
        return characterize_nor(measured_from(p))
    return characterize_cgate(measured_from(p), inverted=p.inverted)


def _solve_calls(fit):
    """(args, kwargs) of each _solve_z call that fit() makes."""
    calls = []
    real = characterize._solve_z

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characterize, "_solve_z", spy)
        fit()
    return calls


def _assert_solves_match_reference(calls):
    for args, kwargs in calls:
        assert (characterize._solve_z.__wrapped__(*args, **kwargs)
                == oracles.reference_solve_z(*args, **kwargs))


def _invalid_message(solve, *args):
    with pytest.raises(InvalidMeasurementsError) as info:
        solve(*args)
    return str(info.value)


class TestSolveMatchesReference:
    """The bracket search returns the bits of the full-grid scan."""

    @settings(max_examples=60, deadline=None)
    @given(nor_params, cgate_params, st.booleans())
    def test_random_gates(self, nor, cg, inverted):
        cg = replace(cg, inverted=inverted)
        calls = _solve_calls(lambda: (_fit(nor), _fit(cg)))
        assert len(calls) == 3
        _assert_solves_match_reference(calls)

    @pytest.mark.parametrize("name", list_fixtures())
    def test_fixture(self, name):
        p = load_fixture(name)
        gates = [p]
        if isinstance(p, CGateParams):
            gates.append(replace(p, inverted=not p.inverted))
        for gate in gates:
            calls = _solve_calls(lambda: _fit(gate))
            assert calls
            _assert_solves_match_reference(calls)

    def test_inconsistent_triple_same_message(self):
        args = (2e-10, 2e-12, 2e-12, NOR_A.c_load, NOR_A.r5 + 0.02)
        want = _invalid_message(oracles.reference_solve_z, *args)
        assert "inconsistent" in want
        assert _invalid_message(characterize._solve_z, *args) == want

    def test_low_end_sums_without_cancellation(self):
        # this triple's g is small near z_lo, where u + (u - 1)*expm1(u)
        # cancels to noise; summed term by term, g keeps one sign below
        # its root near 5e4 ohm
        args = (5.552372454924769e-08, 8.560921525036194e-10,
                5.5517161227966935e-08, 1.0069461064892036e-16, 0.0)
        z = characterize._solve_z(*args)
        assert z == pytest.approx(51856.277, rel=1e-6)
        assert z == oracles.reference_solve_z(*args)

    def test_no_admissible_resistance_same_message(self):
        args = (2e-11, 3e-13, 1e-11, NOR_A.c_load, NOR_A.r5 + 0.02)
        want = _invalid_message(oracles.reference_solve_z, *args)
        assert "no admissible pull resistance" in want
        assert _invalid_message(characterize._solve_z, *args) == want


class TestSolveGridZero:
    """A g that vanishes at a grid point gives that grid point back."""

    ARGS = (3e-11, 1e-11, 2e-11, 1e-15)

    @classmethod
    def _solve_with_root_at(cls, z_star):
        t_zero, _, _, c = cls.ARGS
        seen = []

        def a_stub(t, z, c):
            # g(z) = a(t_zero) - a(t_first) - a(t_second) = z - z_star
            seen.append(z)
            return z - z_star if t == t_zero else 0.0

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(characterize, "_a_from_extremal", a_stub)
            z = characterize._solve_z.__wrapped__(*cls.ARGS, z_lo=0.0)
        return z, sorted(set(seen))

    def test_grid_zero_comes_back(self):
        # a root between grid points shows which points the solve visits
        _, visited = self._solve_with_root_at(1.0)
        assert len(visited) > 3
        # the low end, an interior point and the high end of the grid
        for z_star in (visited[0], visited[len(visited) // 2],
                       visited[-1]):
            assert self._solve_with_root_at(z_star)[0] == z_star


class TestSolveWork:
    def test_g_evaluations_per_solve_bounded(self):
        calls = []
        for name in list_fixtures():
            p = load_fixture(name)
            calls += _solve_calls(lambda: _fit(p))
        real = characterize._a_from_extremal
        worst = 0
        for args, kwargs in calls:
            terms = []

            def counting(*a):
                terms.append(a)
                return real(*a)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(characterize, "_a_from_extremal", counting)
                characterize._solve_z.__wrapped__(*args, **kwargs)
            # each g evaluation takes three transient scales
            worst = max(worst, len(terms) // 3)
        assert worst <= 40

    @staticmethod
    def _assert_each_point_once(calls):
        real = characterize._a_from_extremal
        for args, kwargs in calls:
            per_z = {}

            def counting(t, z, c):
                per_z[z] = per_z.get(z, 0) + 1
                return real(t, z, c)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(characterize, "_a_from_extremal", counting)
                characterize._solve_z.__wrapped__(*args, **kwargs)
            # one g evaluation per distinct z: the Brent refinement
            # reuses the bracket ends the index bisection evaluated
            assert per_z
            assert set(per_z.values()) == {3}, (args, per_z)

    def test_each_point_evaluated_once_on_fixtures(self):
        for name in list_fixtures():
            p = load_fixture(name)
            self._assert_each_point_once(_solve_calls(lambda: _fit(p)))

    @settings(max_examples=30, deadline=None)
    @given(nor_params, cgate_params, st.booleans())
    def test_each_point_evaluated_once_on_random_gates(self, nor, cg,
                                                       inverted):
        cg = replace(cg, inverted=inverted)
        self._assert_each_point_once(_solve_calls(lambda: (_fit(nor),
                                                           _fit(cg))))


# criterion 2's parameter ranges
_CG_RANGES = (("r_n", 300.0, 2500.0), ("r_p", 300.0, 2500.0),
              ("alpha1", 5e-10, 1e-8), ("alpha2", 5e-10, 1e-8),
              ("alpha3", 5e-10, 1e-8), ("alpha4", 5e-10, 1e-8),
              ("c_load", 5e-16, 2.5e-15), ("r5", 0.0, 800.0),
              ("delta_min", 0.0, 1e-11))


def _memo_gates():
    """Every C fixture both ways round, then a seeded random sample."""
    gates = []
    for name in list_fixtures():
        p = load_fixture(name)
        if isinstance(p, CGateParams):
            gates += [p, replace(p, inverted=not p.inverted)]
    rng = random.Random(25)
    gates += [CGateParams(**{n: rng.uniform(lo, hi) for n, lo, hi in
                             _CG_RANGES}) for _ in range(12)]
    return gates


def _conventions(p):
    """The three r5 conventions criterion 2 fits each gate at."""
    return (p.r5, 0.0, 0.9 * min(p.r5 + 2.0 * p.r_n, p.r5 + 2.0 * p.r_p))


def _calls_in(fn):
    """Calls of the unmemoised solver and of Brent that fn() makes."""
    codes = {characterize._solve_z.__wrapped__.__code__: "solve",
             find_root_bracketed.__code__: "brent"}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return calls


class TestSolveMemo:
    """Refits of one measurement at other r5 conventions reuse its two
    series totals; only the latest measurement's are kept."""

    def test_refits_match_fits_from_an_empty_memo(self):
        for p in _memo_gates():
            m, conventions = measured_from(p), _conventions(p)
            fits = [characterize_cgate(m, r5, inverted=p.inverted)
                    for r5 in conventions]
            for r5, fit in zip(conventions, fits):
                characterize._solve_z.cache_clear()
                fresh = characterize_cgate(m, r5, inverted=p.inverted)
                assert serialize_params(fit) == serialize_params(fresh), p

    def test_refits_solve_nothing(self):
        for p in _memo_gates():
            m = measured_from(p)
            first, *others = _conventions(p)
            # an inverted twin has the same two totals, so start empty
            characterize._solve_z.cache_clear()
            assert _calls_in(lambda: characterize_cgate(
                m, first, inverted=p.inverted))["solve"] == 2
            for r5 in others:
                calls = _calls_in(lambda: characterize_cgate(
                    m, r5, inverted=p.inverted))
                assert calls == Counter(), (p, r5)

    def test_only_the_latest_measurement_is_kept(self):
        a, b = measured_from(CG_W3), measured_from(CG_ISO)
        characterize_cgate(a, CG_W3.r5)
        characterize_cgate(b, 0.0)
        calls = _calls_in(lambda: characterize_cgate(a, 0.0))
        assert calls["solve"] == 2

    def test_failed_solve_is_not_kept(self):
        characterize_cgate(measured_from(CG_W3), 0.0)
        size = characterize._solve_z.cache_info().currsize
        m = measured_from(NOR_A,
                          d_up_zero=2e-10 + NOR_A.delta_min,
                          d_up_inf=2e-12 + NOR_A.delta_min,
                          d_up_minus_inf=2e-12 + NOR_A.delta_min)
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidMeasurementsError,
                               match="inconsistent") as info:
                characterize_nor(m)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert characterize._solve_z.cache_info().currsize == size
