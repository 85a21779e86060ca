"""Tests for analytic trajectories and the two delay oracles."""

import hashlib
import math
import random
import sys
from dataclasses import replace

import pytest

import oracles
from helpers import (CG_ISO, CG_W3, NOR_A, NOR_B, extreme_variants,
                     random_cgate, random_nor)
from misdelay import trajectories
from misdelay.gates import (
    DelayQuery,
    NorGateParams,
    _cgate_family,
    _output_families,
    cgate_delay,
    effective_caps,
    nor_breakpoints,
    nor_delay,
    nor_extremal_rising,
)
from misdelay.fileio import list_fixtures, load_fixture
from misdelay.numerics import DomainError, NoCrossingError, OdeSolution
from misdelay.trajectories import (
    NOR_MODE_KINDS,
    ModeSwitch,
    delay_by_inversion,
    delay_by_ode,
    eval_trajectory,
    integrate_full_ode,
)

LN2 = math.log(2.0)


def _phi_minus_half(t, delta, p, direction="falling"):
    # phi - 1/2 of the switch-on mode, t after its later input switches
    _, aged, fresh, r, c_eff, _ = trajectories._mode_law(
        p, trajectories._switch_on_kind(direction == "rising", delta))
    tau, expo, _ = trajectories._phi(aged, fresh, r, delta, c_eff)
    return math.exp(expo(t) / tau) - 0.5


class TestEvalTrajectory:
    def test_single_discharge_crosses_at_ln2_tau(self):
        caps = effective_caps(NOR_A)
        v = eval_trajectory(ModeSwitch("00->10"), NOR_A,
                            LN2 * caps.c1 * NOR_A.r_n_a)
        assert math.isclose(v, 0.5, rel_tol=1e-14)
        v = eval_trajectory(ModeSwitch("00->01"), NOR_A,
                            LN2 * caps.c1_prime * NOR_A.r_n_b)
        assert math.isclose(v, 0.5, rel_tol=1e-14)

    def test_double_discharge_time_constant(self):
        caps = effective_caps(NOR_A)
        rpar = (NOR_A.r_n_a * NOR_A.r_n_b
                / (NOR_A.r_n_a + NOR_A.r_n_b))
        tau = caps.c2 * rpar
        ms = ModeSwitch("10->11", delta=1e-12, initial_v=0.8)
        for t in (0.2 * tau, tau, 3.0 * tau):
            assert math.isclose(eval_trajectory(ms, NOR_A, t),
                                0.8 * math.exp(-t / tau), rel_tol=1e-14)

    def test_drive_up_starts_at_initial_value(self):
        for v0 in (0.0, 0.3):
            ms = ModeSwitch("01->00", delta=2e-12, initial_v=v0)
            assert eval_trajectory(ms, NOR_A, 0.0) == pytest.approx(v0, abs=1e-15)

    def test_drive_up_saturates_at_supply(self):
        ms = ModeSwitch("01->00", delta=2e-12, initial_v=0.0)
        caps = effective_caps(NOR_A)
        t_late = 60.0 * NOR_A.r * caps.c3
        assert eval_trajectory(ms, NOR_A, t_late) > 0.999

    def test_near_zero_delta_continuous_with_limit_form(self):
        # the product form degenerates as delta -> 0; the limit branch
        # must join it smoothly across the switchover
        a = (NOR_A.alpha1 + NOR_A.alpha2) / (2.0 * NOR_A.r)
        t = 2e-12
        below = eval_trajectory(ModeSwitch("01->00", delta=0.99e-6 * a,
                                           initial_v=0.0), NOR_A, t)
        above = eval_trajectory(ModeSwitch("01->00", delta=1.01e-6 * a,
                                           initial_v=0.0), NOR_A, t)
        # the limit branch discards the O(delta/a) correction, so the
        # residual jump is of that order, not roundoff
        assert math.isclose(below, above, rel_tol=1e-5)

    def test_infinite_delta_single_transient(self):
        # with one transistor settled long ago only the fresh alpha acts
        t = 3e-12
        lone = eval_trajectory(ModeSwitch("01->00", delta=math.inf,
                                          initial_v=0.0), NOR_A, t)
        far = eval_trajectory(ModeSwitch("01->00", delta=1.0,
                                         initial_v=0.0), NOR_A, t)
        assert math.isclose(lone, far, rel_tol=1e-9)

    def test_cgate_hold_modes_keep_value(self):
        for kind in ("00->10", "11->01"):
            ms = ModeSwitch(kind, initial_v=0.42)
            assert eval_trajectory(ms, CG_ISO, 5e-12) == 0.42

    def test_mode_switch_validation(self):
        with pytest.raises(ValueError):
            ModeSwitch("00->11")
        with pytest.raises(ValueError):
            ModeSwitch("01->00", delta=-1e-12)
        with pytest.raises(ValueError):
            eval_trajectory(ModeSwitch("01->00"), NOR_A, -1e-15)
        for kind in ("01->00", "00->10", "10->11"):
            with pytest.raises(ValueError, match="t must be >= 0"):
                eval_trajectory(ModeSwitch(kind), NOR_A, math.nan)
        with pytest.raises(ValueError, match="t must be >= 0"):
            eval_trajectory(ModeSwitch("11->01"), CG_ISO, math.nan)
        with pytest.raises(TypeError, match="unsupported params type dict"):
            eval_trajectory(ModeSwitch("00->10"), {}, 0.0)

    @pytest.mark.parametrize("bad", [True, False, math.nan, math.inf,
                                     -math.inf, "0.5", 10 ** 400],
                             ids=["true", "false", "nan", "inf", "-inf",
                                  "str", "huge-int"])
    def test_initial_v_must_be_a_finite_number(self, bad):
        with pytest.raises(ValueError) as info:
            ModeSwitch("01->00", initial_v=bad)
        assert str(info.value) == ("initial_v must be None or a finite "
                                   f"number, got {bad!r}")

    def test_initial_v_accepts_an_int(self):
        ms = ModeSwitch("10->11", initial_v=1)
        assert eval_trajectory(ms, NOR_A, 0.0) == 1.0


class TestIntBeyondFloatRange:
    """An int that float() cannot hold is a ValueError, not an
    OverflowError, wherever a separation or a mode time is taken; so is
    a bool or a str, which are not numbers."""

    HUGE = 10 ** 400

    @pytest.mark.parametrize("name,call", [
        ("delta", lambda h: ModeSwitch("10->11", h)),
        ("t", lambda h: eval_trajectory(ModeSwitch("10->11", 1e-12), NOR_A, h)),
        ("t", lambda h: eval_trajectory(ModeSwitch("00->10"), NOR_A, h)),
        ("delta", lambda h: delay_by_inversion("nor2", "rising", h, NOR_A)),
        ("delta", lambda h: delay_by_inversion("nor2", "falling", -h, NOR_A)),
        ("delta",
         lambda h: delay_by_inversion("cgate", "falling", h, CG_W3)),
        ("delta", lambda h: delay_by_ode("nor2", "falling", h, NOR_A)),
        ("delta", lambda h: delay_by_ode("cgate", "rising", h, CG_W3)),
    ])
    def test_value_error(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be a float, got "):
            call(self.HUGE)

    @pytest.mark.parametrize("value", [True, "1e-12"])
    @pytest.mark.parametrize("name,call", [
        ("delta", lambda v: ModeSwitch("10->11", v)),
        ("t", lambda v: eval_trajectory(ModeSwitch("10->11", 1e-12), NOR_A, v)),
        ("t", lambda v: eval_trajectory(ModeSwitch("00->10"), NOR_A, v)),
        ("delta", lambda v: delay_by_inversion("nor2", "rising", v, NOR_A)),
        ("delta", lambda v: delay_by_inversion("nor2", "falling", v, NOR_A)),
        ("delta",
         lambda v: delay_by_inversion("cgate", "falling", v, CG_W3)),
        ("delta", lambda v: delay_by_ode("nor2", "falling", v, NOR_A)),
        ("delta", lambda v: delay_by_ode("cgate", "rising", v, CG_W3)),
    ])
    def test_bool_and_str_are_value_errors(self, name, call, value):
        # True is not a separation of 1 s, and "1e-12" is not a number
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be a float, got {value!r}"

    def test_infinite_separations_stay_valid(self):
        assert ModeSwitch("10->11", math.inf).delta == math.inf
        assert 0.0 < _phi_minus_half(1e-12, math.inf, NOR_A) < 0.5
        assert eval_trajectory(ModeSwitch("10->11", 1e-12), NOR_A,
                               math.inf) == 0.0
        for delta in (math.inf, -math.inf):
            assert math.isclose(
                delay_by_inversion("nor2", "rising", delta, NOR_A),
                nor_delay(NOR_A, DelayQuery("rising", delta)), rel_tol=1e-6)


class TestLimitAtInfiniteTime:
    """At t = +inf every mode has settled: the output sits on the rail
    its mode drives to, the value it already holds a microsecond in,
    where a dual-transient decay factor is already 0."""

    DELTAS = (0.0, 1e-15, 1e-12, 1e-9, math.inf)

    @pytest.mark.parametrize("name", ["nor15_l3", "cgate15_l3"])
    def test_decay_factor_settles(self, name):
        p = load_fixture(name)
        nor = isinstance(p, NorGateParams)
        for direction in (("falling",) if nor else ("falling", "rising")):
            for delta in self.DELTAS:
                assert _phi_minus_half(1e-6, delta, p, direction) == -0.5

    @pytest.mark.parametrize("name", ["nor15_l3", "cgate15_l3"])
    def test_trajectory_limit_is_the_rail(self, name):
        p = load_fixture(name)
        for kind in sorted(NOR_MODE_KINDS):
            for delta in self.DELTAS:
                for v0 in (None, 0.3):
                    ms = ModeSwitch(kind, delta, v0)
                    settled = eval_trajectory(ms, p, 1e-6)
                    assert settled in (0.0, 1.0, 0.3)
                    assert eval_trajectory(ms, p, math.inf) == settled


class TestDecayFactor:
    """The switch-on decay factor that `_mode_law` and `_phi` build, and
    the inversion oracle solves for 1/2."""

    def test_at_time_zero(self):
        for delta in (1e-15, 1e-12, 2e-9):
            assert _phi_minus_half(0.0, delta, NOR_A) == 0.5

    def test_root_at_zero_delta_is_extremal(self):
        ext = nor_extremal_rising(NOR_A)
        root = oracles.crossing_time_bisect(
            lambda t: _phi_minus_half(t, 0.0, NOR_A), 0.0, 0.0, 10 * ext.d0)
        assert abs(root - ext.d0) <= 1e-12

    def test_large_delta_approaches_single_input_limit(self):
        ext = nor_extremal_rising(NOR_A)
        big = 1e6 * ((NOR_A.alpha1 + NOR_A.alpha2) / (2.0 * NOR_A.r))
        root = oracles.crossing_time_bisect(
            lambda t: _phi_minus_half(t, big, NOR_A), 0.0, 0.0, 10 * ext.d0)
        assert math.isclose(root, ext.d_inf, rel_tol=1e-4)
        root = oracles.crossing_time_bisect(
            lambda t: _phi_minus_half(t, math.inf, NOR_A), 0.0, 0.0,
            10 * ext.d0)
        assert abs(root - ext.d_inf) <= 1e-12


class TestInversionOracle:
    def test_falling_single_input_limit(self):
        for p in (NOR_A, NOR_B):
            closed = nor_delay(p, DelayQuery("falling", math.inf))
            assert abs(delay_by_inversion("nor2", "falling", math.inf, p)
                       - closed) <= 1e-15

    @pytest.mark.parametrize("p", [NOR_A, NOR_B], ids=["l3", "l15"])
    def test_falling_family_exact_everywhere(self, p):
        # the falling closed form is an exact inversion of the chained
        # exponentials, so the oracle must agree to fractions of a fs
        bps = nor_breakpoints(p)
        for i in range(-25, 26):
            delta = i / 12.5 * (bps.down_plus if i >= 0 else bps.down_minus)
            closed = nor_delay(p, DelayQuery("falling", delta))
            inverted = delay_by_inversion("nor2", "falling", delta, p)
            assert abs(closed - inverted) <= 1e-12

    @pytest.mark.parametrize("p", [NOR_A, NOR_B], ids=["l3", "l15"])
    def test_rising_exact_points(self, p):
        for delta in (0.0, -0.0, math.inf, -math.inf):
            closed = nor_delay(p, DelayQuery("rising", delta))
            inverted = delay_by_inversion("nor2", "rising", delta, p)
            assert abs(closed - inverted) <= 1e-12

    @pytest.mark.parametrize("p", [NOR_A, NOR_B], ids=["l3", "l15"])
    def test_rising_interpolation_envelope(self, p):
        # the closed form is the oracle's tangent at delta = 0, clamped
        # where it meets the single-input limit; the oracle lies above it
        # for 0 < |delta| <= bp0, so the worst deviation sits at the MIS
        # length bp0 and stays inside the recorded 5% envelope for these
        # two gates
        fam = _output_families(p)[True][1]
        bp_plus, bp_minus = fam.bp0_plus, fam.bp0_minus
        worst = 0.0
        for i in range(1, 51):
            for delta in (i / 50.0 * bp_plus, -i / 50.0 * bp_minus):
                closed = nor_delay(p, DelayQuery("rising", delta))
                inverted = delay_by_inversion("nor2", "rising", delta, p)
                worst = max(worst, abs(closed - inverted) / inverted)
        assert worst <= 0.05

    def test_cgate_exact_points(self):
        for p in (CG_ISO, CG_W3):
            for direction in ("rising", "falling"):
                for delta in (0.0, math.inf, -math.inf):
                    closed = cgate_delay(p, DelayQuery(direction, delta))
                    inverted = delay_by_inversion("cgate", direction, delta, p)
                    assert abs(closed - inverted) <= 1e-12

    def test_cgate_interpolation_envelope(self):
        # recorded interpolation envelopes; the isolated gate's huge
        # transient coefficients put its crossings deep in the
        # slow-decay regime where the linear fit is poorest
        for p, bound in ((CG_ISO, 0.27), (CG_W3, 0.065)):
            worst = 0.0
            for direction in ("rising", "falling"):
                fam = _cgate_family(p, direction == "rising")
                bp_plus, bp_minus = fam.bp0_plus, fam.bp0_minus
                for i in range(1, 26):
                    for delta in (i / 25.0 * bp_plus, -i / 25.0 * bp_minus):
                        closed = cgate_delay(p, DelayQuery(direction, delta))
                        inverted = delay_by_inversion("cgate", direction,
                                                      delta, p)
                        worst = max(worst, abs(closed - inverted) / inverted)
            assert worst <= bound

    def test_cgate_inverted_flag(self):
        inv = replace(CG_ISO, inverted=True)
        for delta in (0.0, 4e-12, -7e-12):
            assert delay_by_inversion("cgate", "rising", delta, inv) == \
                delay_by_inversion("cgate", "falling", delta, CG_ISO)

    @pytest.mark.parametrize("oracle", [delay_by_inversion, delay_by_ode])
    def test_cgate_inverted_swaps_output_directions(self, oracle):
        # an inverted C gate drives each output direction from the input
        # pair that drives the other direction of the plain gate; no
        # fixture is inverted, so pin the relabelling on both oracles
        base = load_fixture("cgate15_l3")
        inv = replace(base, inverted=True)
        for direction, other in (("rising", "falling"),
                                 ("falling", "rising")):
            fam = _cgate_family(base, other == "rising")
            bp_plus, bp_minus = fam.bp0_plus, fam.bp0_minus
            for delta in (0.0, 0.5 * bp_plus, -0.5 * bp_minus,
                          1.5 * bp_plus, -1.5 * bp_minus,
                          math.inf, -math.inf):
                assert oracle("cgate", direction, delta, inv) == \
                    oracle("cgate", other, delta, base), (direction, delta)

    def test_rejects_bad_queries(self):
        with pytest.raises(ValueError):
            delay_by_inversion("nand2", "falling", 0.0, NOR_A)
        with pytest.raises(ValueError):
            delay_by_inversion("nor2", "up", 0.0, NOR_A)
        with pytest.raises(ValueError):
            delay_by_inversion("nor2", "rising", math.nan, NOR_A)
        with pytest.raises(TypeError):
            delay_by_inversion("cgate", "rising", 0.0, NOR_A)

    @pytest.mark.parametrize("oracle", [delay_by_inversion, delay_by_ode])
    def test_rejects_unknown_direction(self, oracle):
        # neither gate reads an unknown direction as the falling pair
        for kind, p in (("nor2", NOR_A), ("cgate", CG_W3)):
            for direction in ("up", "Rising", ""):
                with pytest.raises(ValueError) as info:
                    oracle(kind, direction, 1e-12, p)
                assert str(info.value) == (
                    "direction must be one of ('rising', 'falling'), "
                    f"got {direction!r}")


class TestFullOde:
    def test_matches_trajectory_on_constant_mode(self):
        caps = effective_caps(NOR_A)
        tau = caps.c1 * NOR_A.r_n_a
        sol = integrate_full_ode([ModeSwitch("00->10")], NOR_A, 5 * tau)
        # dense output is cubic Hermite between the accepted nodes, so
        # mid-step accuracy is coarser than the step controller's target
        for t in (0.3 * tau, tau, 4 * tau):
            assert math.isclose(sol(t), math.exp(-t / tau), rel_tol=1e-6)

    def test_exact_divider_equals_constant_when_no_interconnect(self):
        p = replace(NOR_A, r5=0.0)
        for direction, delta in (("falling", 1e-12), ("rising", 5e-13),
                                 ("rising", 0.0)):
            exact = delay_by_ode("nor2", direction, delta, p, exact_f=True)
            const = delay_by_ode("nor2", direction, delta, p, exact_f=False)
            assert exact == const

    def test_constant_divider_reproduces_closed_trajectory(self):
        # drive-up mode with interconnect: constant-F integration must
        # land on the closed-form trajectory to integrator accuracy
        ms = ModeSwitch("01->00", delta=1e-12, initial_v=0.0)
        caps = effective_caps(NOR_A)
        horizon = 20 * NOR_A.r * caps.c3
        sol = integrate_full_ode([ms], NOR_A, horizon, exact_f=False)
        for frac in (0.05, 0.2, 0.5, 1.0):
            t = frac * horizon
            assert abs(sol(t) - eval_trajectory(ms, NOR_A, t)) <= 1e-7

    def test_delay_against_inversion_oracle(self):
        # constant-F ODE delays and trajectory-inversion delays describe
        # the same dynamics through different machinery
        cases = [
            ("nor2", "falling", 1.5e-12, NOR_A),
            ("nor2", "rising", -4e-13, NOR_A),
            ("cgate", "rising", 2e-12, CG_W3),
            ("cgate", "falling", -3e-12, CG_W3),
        ]
        for kind, direction, delta, p in cases:
            ode = delay_by_ode(kind, direction, delta, p, exact_f=False)
            inv = delay_by_inversion(kind, direction, delta, p)
            assert math.isclose(ode, inv, rel_tol=1e-5)

    def test_divider_approximation_stays_modest(self):
        # the constant divider is no approximation: it is the exact
        # time-varying divider of the gate with its transient
        # coefficients scaled by (r5 + R_s)/R_s, so the two integrations
        # agree to integrator accuracy on these wires
        for kind, p in (("nor2", NOR_A), ("nor2", NOR_B), ("cgate", CG_W3)):
            direction = "rising" if kind == "nor2" else "falling"
            exact_gate = oracles.exact_divider_gate(p)
            for delta in (0.0, 1e-12):
                exact = delay_by_ode(kind, direction, delta, exact_gate,
                                     exact_f=True)
                const = delay_by_ode(kind, direction, delta, p, exact_f=False)
                assert abs(exact - const) / const <= 1e-5

    def test_falling_chain_is_continuous(self):
        delta = 1.5e-12
        modes = [ModeSwitch("00->10"), ModeSwitch("10->11", delta=delta)]
        sol = integrate_full_ode(modes, NOR_A, delta + 2e-11)
        step = 1e-18
        assert abs(sol(delta - step) - sol(delta + step)) <= 1e-6
        samples = [sol(i * (delta + 2e-11) / 40) for i in range(1, 41)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(samples, samples[1:]))

    def test_probes_match_clamped_segment_form(self):
        # a probe reads the last segment starting at or before it, at its
        # local time clamped into [t0, t1]; checked bit for bit before,
        # at and after every segment's ends, and before the chain starts
        delta = 1.5e-12
        modes = [ModeSwitch("00->10"), ModeSwitch("10->11", delta=delta)]
        sol = integrate_full_ode(modes, NOR_A, delta + 2e-11)
        assert len(sol.segments) == 2

        def clamped(t):
            for start, seg in reversed(sol.segments):
                if t >= start:
                    return seg(min(max(t - start, seg.t0), seg.t1))
            return sol.segments[0][1](sol.segments[0][1].t0)

        probes = [-1e-15, 2.0 * sol.t1]
        for start, seg in sol.segments:
            for edge in (start, start + seg.t0, start + seg.t1):
                probes += [edge - 1e-16, math.nextafter(edge, -math.inf),
                           edge, math.nextafter(edge, math.inf),
                           edge + 1e-16]
        for t in probes:
            assert sol(t).hex() == clamped(t).hex(), t

    def test_nan_probe_raises(self):
        modes = [ModeSwitch("00->10"), ModeSwitch("10->11", delta=1.5e-12)]
        sol = integrate_full_ode(modes, NOR_A, 2e-11)
        with pytest.raises(ValueError, match="t=nan"):
            sol(math.nan)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_end_not_finite_raises_up_front(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            integrate_full_ode([ModeSwitch("00->10")], NOR_A, t_end)

    def test_cgate_single_transition_holds(self):
        modes = [ModeSwitch("11->01", initial_v=0.9),
                 ModeSwitch("01->00", delta=4e-12)]
        sol = integrate_full_ode(modes, CG_W3, 8e-12)
        assert sol(2e-12) == 0.9

    def test_horizon_sliver_does_not_underflow(self):
        # rounding leaves a 3e-27 s sliver before t_end on this chain
        p = load_fixture("cgate15_halfres")
        s = delay_by_inversion("cgate", "rising", 0.0, p) - p.delta_min
        sol = integrate_full_ode(
            [ModeSwitch("10->11", 0.5 * s, initial_v=1.0)], p, 3.5 * s)
        assert sol.t1 == 3.5 * s

    def test_near_simultaneous_inputs_integrate(self):
        # a first mode of 1e-17 s is shorter than 64 steps at the floor
        p = load_fixture("nor15_l3")
        for delta in (1e-17, -1e-17):
            ode = delay_by_ode("nor2", "falling", delta, p)
            inv = delay_by_inversion("nor2", "falling", delta, p)
            assert math.isclose(ode, inv, rel_tol=1e-5)

    def test_mode_sequence_validation(self):
        with pytest.raises(ValueError):
            integrate_full_ode([], NOR_A, 1e-11)
        with pytest.raises(ValueError):
            integrate_full_ode([ModeSwitch("00->10"),
                                ModeSwitch("10->11", delta=math.inf)],
                               NOR_A, 1e-11)
        with pytest.raises(ValueError):
            integrate_full_ode([ModeSwitch("00->10"),
                                ModeSwitch("10->11", delta=5e-12)],
                               NOR_A, 4e-12)


class TestOdeEarlyStop:
    """delay_by_ode stops at its crossing and returns the full run's delay."""

    @staticmethod
    def _grid(p, direction):
        fam = _output_families(p)[direction == "rising"][1]
        bp_plus, bp_minus = fam.bp0_plus, fam.bp0_minus
        return (0.0, -0.0, 0.5 * bp_plus, -0.5 * bp_minus,
                1.5 * bp_plus, -1.5 * bp_minus, math.inf, -math.inf)

    @pytest.mark.parametrize("name", list_fixtures())
    def test_matches_full_horizon(self, name):
        p = load_fixture(name)
        kind = "nor2" if name.startswith("nor") else "cgate"
        for direction in ("falling", "rising"):
            for delta in self._grid(p, direction):
                for exact_f in (True, False):
                    assert delay_by_ode(kind, direction, delta, p, exact_f) \
                        == oracles.reference_delay_by_ode(
                            kind, direction, delta, p, exact_f), \
                        (direction, delta, exact_f)

    def test_falling_crossing_in_first_mode_skips_second(self):
        # past the single-input crossing the falling output passes V_dd/2
        # before the second input arrives: the second mode is skipped
        p = load_fixture("nor15_l3")
        delta = 1.5 * _output_families(p)[False][1].bp_plus
        single = delay_by_inversion("nor2", "falling", math.inf, p)
        assert delta > single - p.delta_min
        modes = [ModeSwitch("00->10"), ModeSwitch("10->11", delta=delta)]
        t_end = 2.0 * delta
        stopped = integrate_full_ode(modes, p, t_end, stop_past=0.5)
        full = integrate_full_ode(modes, p, t_end)
        assert len(stopped.segments) == 1 and len(full.segments) == 2
        assert stopped.v1 < 0.5 < stopped.segments[0][1].vs[-2]
        assert stopped.t1 < delta
        # beyond its end the stopped solution reads its last value
        assert stopped(delta) == stopped(t_end) == stopped.v1
        assert full.t1 == t_end
        assert delay_by_ode("nor2", "falling", delta, p) == \
            oracles.reference_delay_by_ode("nor2", "falling", delta, p)


class TestTrajectoryLayerPinned:
    """Outputs of the closed-form trajectory layer on every fixture, hashed.

    eval_trajectory over all mode kinds, the switch-on decay factor's
    phi - 1/2 over both C-gate pair directions and delay_by_inversion
    from 1e-9 to 40 times each fixture's largest MIS length: a refactor of this layer must leave
    every one bit-identical.
    """

    MULTIPLES = (1e-9, 1e-6, 1e-3, 0.02, 0.1, 0.5, 1.0, 1.5, 2.0, 5.0,
                 10.0, 40.0)
    SHA256 = "158fff8217ecce09245902a21efa75195402d85d83c120fd70106f7ad367c123"

    def _outputs(self, p):
        nor = isinstance(p, NorGateParams)
        kind = "nor2" if nor else "cgate"
        bp = max(max(fam.bp0_plus, fam.bp0_minus)
                 for _, fam in _output_families(p))
        scale = delay_by_inversion(kind, "rising", 0.0, p) - p.delta_min
        ts = tuple(m * scale for m in (0.0, 0.1, 0.5, 1.0, 3.0))
        # 1e-8 sits in the near-simultaneous limit branch, 1e-3 above it
        deltas = tuple(m * scale for m in (0.0, 1e-8, 1e-3, 0.1, 1.0, 10.0)
                       ) + (math.inf,)
        out = []
        for mode in sorted(NOR_MODE_KINDS):
            for delta in deltas:
                for v0 in (None, 0.3):
                    ms = ModeSwitch(mode, delta, v0)
                    out.extend(eval_trajectory(ms, p, t) for t in ts)
        for direction in (("falling",) if nor else ("falling", "rising")):
            for delta in deltas:
                out.extend(_phi_minus_half(t, delta, p, direction)
                           for t in ts)
        for direction in ("falling", "rising"):
            for delta in (0.0, -0.0, math.inf, -math.inf) + tuple(
                    s * m * bp for m in self.MULTIPLES for s in (1.0, -1.0)):
                out.append(delay_by_inversion(kind, direction, delta, p))
        return out

    def test_outputs_bit_identical(self):
        out = []
        for name in list_fixtures():
            out.extend(self._outputs(load_fixture(name)))
        assert len(out) == 13986
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.SHA256


def _kind(p):
    return "nor2" if isinstance(p, NorGateParams) else "cgate"


def _bisect_outcome(bisect, trajectory, *args, **kwargs):
    # (result or exception type, trajectory evaluations)
    evals = 0

    def counted(t):
        nonlocal evals
        evals += 1
        return trajectory(t)

    try:
        return bisect(counted, *args, **kwargs), evals
    except Exception as exc:  # compared by type with the other bisections
        return type(exc), evals


@pytest.fixture
def crossings(monkeypatch):
    """Route every oracle crossing through a checking bisection.

    Each call bisects the trajectory three times: guided by the caller's
    near, with near=None, and by the reference bisection.  The first two
    must agree on the result or the exception type, and the reference
    too wherever both return.  Each call returns or raises what the
    guided run did, and appends (caller, near, trajectory evaluations
    of the guided run, whether the reference was compared) to the list
    the fixture returns.
    """
    bisect = trajectories.bisect_threshold_crossing
    records = []

    def checked(trajectory, level, t_lo, t_hi, tol, *, near=None):
        got, evals = _bisect_outcome(bisect, trajectory, level, t_lo, t_hi,
                                     tol, near=near)
        plain, _ = _bisect_outcome(bisect, trajectory, level, t_lo, t_hi,
                                   tol)
        ref, _ = _bisect_outcome(oracles.reference_bisect_threshold_crossing,
                                 trajectory, level, t_lo, t_hi, tol)
        assert got == plain, (got, plain, near)
        compared = isinstance(got, float) and isinstance(ref, float)
        assert got == ref or not compared, (got, ref, near)
        records.append((sys._getframe(1).f_code.co_name, near, evals,
                        compared))
        if isinstance(got, type):
            raise got("from the guided bisection")
        return got

    monkeypatch.setattr(trajectories, "bisect_threshold_crossing", checked)
    return records


def _grid(p, direction, n):
    # 0, +-inf and n points per side on (0, 3 bp]
    fam = _output_families(p)[direction == "rising"][1]
    bp = max(fam.bp0_plus, fam.bp0_minus)
    return [0.0, math.inf, -math.inf] + [
        s * 3.0 * bp * i / n for i in range(1, n + 1) for s in (1.0, -1.0)]


_CALLERS = {"_nor_fall_by_inversion", "_switch_on_by_inversion",
            "delay_by_ode"}


class TestGuidedCrossings:
    """Each oracle's crossing estimate (closed form, Newton on log phi,
    Newton on the crossing step's cubic) picks the bisection's last
    levels and leaves every delay bit-identical."""

    @pytest.mark.parametrize("name", list_fixtures())
    def test_fixture_grid_same_bits_in_five_evaluations(self, name,
                                                        crossings):
        p = load_fixture(name)
        for direction in ("falling", "rising"):
            for i, delta in enumerate(_grid(p, direction, 32)):
                delay_by_inversion(_kind(p), direction, delta, p)
                if i % 4 == 0:
                    delay_by_ode(_kind(p), direction, delta, p, i % 8 == 0)
        assert {caller for caller, *_ in crossings} == (
            _CALLERS if name.startswith("nor") else
            _CALLERS - {"_nor_fall_by_inversion"})
        # every crossing was guided and checked against the reference.
        # The evaluation count is exact, window ends included: one that
        # fell back to the plain bisection would take 20 or more
        for caller, near, evals, compared in crossings:
            assert near is not None and compared, caller
            assert evals <= 5, (caller, evals)

    def test_random_sets_bit_identical(self, crossings):
        rng = random.Random(27)
        for p in [draw(rng) for _ in range(15)
                  for draw in (random_nor, random_cgate)]:
            for direction in ("falling", "rising"):
                for i, delta in enumerate(_grid(p, direction, 6)):
                    delay_by_inversion(_kind(p), direction, delta, p)
                    if i % 3 == 0:
                        delay_by_ode(_kind(p), direction, delta, p)
        assert all(near is not None and compared
                   for _, near, _, compared in crossings)

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e12])
    def test_slow_gates_bit_identical(self, scale, crossings):
        # delays up to seconds, where tol.abs is far below an ulp of t
        # and the bisection's margin is 4,096 ulps of near
        for p in (NOR_B, CG_ISO, CG_W3):
            p = replace(p, c_load=p.c_load * scale)
            for direction in ("falling", "rising"):
                for delta in (0.0, math.inf, -1e-12 * scale, 2e-11 * scale):
                    delay_by_inversion(_kind(p), direction, delta, p)
                    if scale < 1e6:
                        delay_by_ode(_kind(p), direction, delta, p)
        assert all(near is not None and compared
                   for _, near, _, compared in crossings)

    def test_extreme_sets_bit_identical(self, crossings):
        # the TestExtremeParams sets whose tables build; a crossing may
        # raise, the same way guided or not
        for _, _, _, p in extreme_variants():
            try:
                _output_families(p)
            except DomainError:
                continue
            for direction in ("falling", "rising"):
                for delta in (0.0, 1e-12, -1e-12, math.inf, -math.inf):
                    for oracle in (delay_by_inversion, delay_by_ode):
                        try:
                            oracle(_kind(p), direction, delta, p)
                        except (ArithmeticError, ValueError, RuntimeError):
                            pass
        assert any(near is None for _, near, _, _ in crossings)
        assert sum(near is not None for _, near, _, _ in crossings) > 500


class TestOracleEdges:
    """Inputs at the edges of the float range reach each guard of the
    switch-on inversion and its decay factor."""

    def test_tau_underflow_is_a_domain_error(self):
        # 2r*c_eff = c_load*2r_p underflows to 0 with r5 = 0; it used to
        # raise ZeroDivisionError
        p = replace(load_fixture("cgate15_isolated"), c_load=2.6331e-115,
                    r_p=2.3215e-297, alpha1=1e300)
        with pytest.raises(DomainError, match="not positive"):
            delay_by_inversion("cgate", "falling", 0.0, p)

    @pytest.mark.parametrize("delta,match", [
        # a = fresh/2r underflows to 0 in the settled law; c' =
        # fresh*delta/2r, and with it d - sqrt(chi), in the dual one
        pytest.param(math.inf, "a=0.0", id="settled"),
        pytest.param(1e-12, "sqrt\\(chi\\)=0.0", id="dual"),
    ])
    def test_transient_scale_underflow_is_a_domain_error(self, delta, match):
        # both used to raise ZeroDivisionError
        p = replace(NOR_A, alpha2=5e-324)
        for oracle in (delay_by_inversion, delay_by_ode):
            with pytest.raises(DomainError, match=match):
                oracle("nor2", "rising", delta, p)

    def test_ode_horizon_below_float_spacing_is_a_domain_error(self):
        # the falling NOR chain's horizon, 12 delays, is below the float
        # spacing at |delta| = 1e7 s, so t_end == last; that used to be
        # integrate_full_ode's ValueError on t_end
        for delta in (1e7, -1e7):
            with pytest.raises(DomainError, match="float spacing"):
                delay_by_ode("nor2", "falling", delta, NOR_A)

    def test_decay_factor_past_float_range_is_no_crossing(self):
        # the bracket end's t/a overflows, so phi there is inf; the
        # bracket used to be doubled 200 times before this error
        p = replace(CG_W3, c_load=2.6331e-115, r_p=2.3215e-297,
                    alpha1=1e300)
        for oracle in (delay_by_inversion, delay_by_ode):
            with pytest.raises(NoCrossingError, match="float range"):
                oracle("cgate", "rising", math.inf, p)

    def test_estimates_that_fail_give_none(self):
        # Newton's budget runs out on a function without a real root; a
        # crossing step's cubic flat where Newton starts divides by zero
        assert trajectories._newton(lambda t: t * t + 1.0,
                                    lambda t: 2.0 * t, 0.0, 0.5,
                                    1e-19) is None
        flat = trajectories.PiecewiseSolution(
            [(0.0, OdeSolution([0.0, 1.0], [0.0, 1.0], [3.0, 3.0]))])
        assert trajectories._hermite_root(flat) is None

    def test_rounded_negative_discriminant_is_zero(self):
        # aged/2r underflows to 0 and delta = fresh/2r: chi is 0, but
        # its ratio rounds past 1.  That used to raise DomainError
        p = replace(NOR_A, alpha1=5e-324, alpha2=7.661368727868479e-09,
                    r=988.6863694964386)
        delta = 3.874519243028806e-12
        assert delta == p.alpha2 / (2.0 * p.r)
        d = delay_by_inversion("nor2", "rising", delta, p)
        for nudge in (1.0 - 1e-9, 1.0 + 1e-9):
            assert d == pytest.approx(
                delay_by_inversion("nor2", "rising", delta * nudge, p),
                rel=1e-8)
        assert -0.5 < _phi_minus_half(d - p.delta_min, delta, p) < 0.5
