import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdelay.numerics import (
    ConvergenceError,
    DomainError,
    NoCrossingError,
    NoSignChangeError,
    StepUnderflowError,
    Tolerance,
    _NEAR_REL,
    _gap_root,
    bisect_threshold_crossing,
    find_root_bracketed,
    integrate_ode,
    lambert_w_m1,
)
from misdelay.fileio import load_fixture
from misdelay.trajectories import _T_EPS, _ode_rhs, delay_by_inversion
from oracles import (lambert_w_m1_bisect,
                     reference_bisect_threshold_crossing,
                     reference_integrate_ode)


class TestLambertWm1:
    def test_branch_point_exact(self):
        assert lambert_w_m1(-math.exp(-1.0)) == -1.0

    def test_minus_two_over_e_squared_exact(self):
        assert lambert_w_m1(-2.0 * math.exp(-2.0)) == -2.0

    def test_reference_value(self):
        # frozen from the bisection oracle
        w = lambert_w_m1(-0.1)
        assert w == pytest.approx(-3.577152063957297, abs=1e-12)
        assert w == pytest.approx(-3.5771520640, abs=1e-9)

    def test_against_bisection_oracle_grid(self):
        # log-spaced magnitudes plus points snuggled up to the branch point
        xs = [-(10.0 ** e) for e in [x * (-29.0 / 39.0) - 0.5 for x in range(40)]]
        xs += [-math.exp(-1.0) + d for d in (1e-12, 1e-9, 1e-6, 1e-3)]
        # oracle bisection itself loses absolute accuracy near the branch
        # point where the residual derivative vanishes, hence abs=1e-9
        for x in xs:
            w = lambert_w_m1(x)
            w_ref = lambert_w_m1_bisect(x)
            assert w == pytest.approx(w_ref, rel=1e-12, abs=1e-9), f"x={x}"

    @given(st.floats(min_value=-299.0, max_value=-1.0001))
    @settings(max_examples=300)
    def test_defining_residual(self, log10_neg_x):
        x = -(10.0 ** log10_neg_x)
        w = lambert_w_m1(x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(abs(x), 1e-300)

    @given(st.floats(min_value=1e-16, max_value=0.367))
    @settings(max_examples=300)
    def test_residual_near_branch(self, offset):
        x = -math.exp(-1.0) + offset
        if x >= 0.0:
            return
        w = lambert_w_m1(x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(abs(x), 1e-300)

    def test_monotone_decreasing_in_x(self):
        # the lower branch runs from -1 at the branch point to -inf at 0-
        xs = [-0.367, -0.3, -0.2, -0.1, -1e-2, -1e-5, -1e-100]
        ws = [lambert_w_m1(x) for x in xs]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.5, -math.exp(-1.0) * (1 + 1e-9),
                                     math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            lambert_w_m1(bad)

    def test_tiny_magnitudes(self):
        for x in (-1e-300, -5e-324):
            w = lambert_w_m1(x)
            assert w < -600.0
            # residual in log form, since e^w underflows
            assert abs(w + math.log(-w) - math.log(-x)) <= 1e-12 * abs(math.log(-x))


def _w_pin_arguments():
    """A fixed argument set over every arm of lambert_w_m1.

    s = 1 + e*x is the distance above the branch point: the series arm
    takes s <= 1e-4, the Newton start switches at s = 0.5, and the
    far arm runs down to the subnormals.
    """
    rng = random.Random(1996)
    branch = -math.exp(-1.0)
    xs = [branch, -2.0 * math.exp(-2.0)]
    # criterion 7's log-spaced offsets below the branch point
    xs += [-math.exp(-1.0 - 10.0 ** (-12.0 + 14.78 * i / 999.0))
           for i in range(1000)]
    # the first ulps above the branch point, then 1e-18 steps
    x = branch
    for _ in range(64):
        x = math.nextafter(x, 0.0)
        xs.append(x)
    xs += [branch + k * 1e-18 for k in range(1, 257)]
    # series arm, near Newton arm, far Newton arm
    xs += [branch * (1.0 - 10.0 ** rng.uniform(-17.0, -4.0))
           for _ in range(1000)]
    xs += [branch * (1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.5)))
           for _ in range(1000)]
    xs += [-(10.0 ** rng.uniform(-307.0, math.log10(0.5 / math.e)))
           for _ in range(1000)]
    # subnormal magnitudes
    xs += [-5e-324, -1e-323, -1e-320, -1e-315, -1e-310,
           -math.nextafter(2.2250738585072014e-308, 0.0)]
    xs += [-(10.0 ** rng.uniform(-323.0, -308.0)) for _ in range(200)]
    return xs


# SHA-256 of "repr(x) repr(W(x))" lines over _w_pin_arguments().  A
# change to W that moves any bit of any result moves this pin.
W_PIN_SHA256 = (
    "fe4c718f39d92c60708c92c63f8fe71f73cee08235aa44808b0e7c08997c6064")


class TestLambertWm1Pinned:
    def test_arguments_cover_every_arm(self):
        xs = _w_pin_arguments()
        s = [1.0 + math.e * x for x in xs]
        assert sum(v <= 0.0 for v in s) >= 1
        assert sum(0.0 < v <= 1e-4 for v in s) >= 1000
        assert sum(1e-4 < v < 0.5 for v in s) >= 1000
        assert sum(v >= 0.5 for v in s) >= 1000
        assert sum(-x < 2.2250738585072014e-308 for x in xs) >= 100

    def test_results_bits_pinned(self):
        lines = "".join(f"{x!r} {lambert_w_m1(x)!r}\n"
                        for x in _w_pin_arguments())
        digest = hashlib.sha256(lines.encode("ascii")).hexdigest()
        assert digest == W_PIN_SHA256


class TestGapRoot:
    """_gap_root(e) is the y >= 0 with y - log1p(y) = e."""

    def test_zero_gap(self):
        assert _gap_root(0.0) == 0.0

    def test_matches_lambert_w_away_from_the_branch(self):
        # there forming -exp(-1 - e) costs W only a few ulp
        for i in range(200):
            e = 10.0 ** (-2.0 + 4.5 * i / 199)
            want = -1.0 - lambert_w_m1(-math.exp(-1.0 - e))
            assert math.isclose(_gap_root(e), want, rel_tol=1e-12), e

    def test_continuous_across_arm_switches(self):
        # the series arm ends at q = sqrt(2e) = 0.2, the asymptotic
        # start begins at q = 2
        for e in (0.02, 2.0):
            below = _gap_root(math.nextafter(e, 0.0))
            at = _gap_root(e)
            assert below <= at
            assert math.isclose(below, at, rel_tol=4e-16)

    def test_small_gap_is_the_square_root_law(self):
        # y = q + q**2/3 + ..., q = sqrt(2e)
        for e in (5e-324, 1e-300, 1e-40):
            q = math.sqrt(2.0 * e)
            assert math.isclose(_gap_root(e), q, rel_tol=1e-15)

    def test_nan_does_not_converge(self):
        with pytest.raises(ConvergenceError):
            _gap_root(math.nan)


class TestFindRootBracketed:
    def test_sqrt_two(self):
        r = find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0,
                                Tolerance(rel=1e-15, abs=0.0))
        assert r == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_endpoint_root_returned(self):
        assert find_root_bracketed(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert find_root_bracketed(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChangeError):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_iteration_budget(self):
        with pytest.raises(ConvergenceError):
            find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0,
                                Tolerance(rel=1e-15, abs=0.0, max_iter=2))

    def test_flat_then_steep(self):
        # function with a nasty flat region, still bracketed
        f = lambda x: math.tanh(50.0 * (x - 0.7)) + x * 1e-6
        r = find_root_bracketed(f, 0.0, 1.0, Tolerance(rel=1e-14, abs=1e-18))
        assert abs(f(r)) < 1e-9

    def test_bad_bracket_order(self):
        with pytest.raises(ValueError):
            find_root_bracketed(lambda x: x, 2.0, 1.0)


class TestBisectThresholdCrossing:
    def test_exponential_half_crossing(self):
        tau = 3.2e-12
        traj = lambda t: math.exp(-t / tau)
        t = bisect_threshold_crossing(traj, 0.5, 0.0, 1e-9,
                                      Tolerance(abs=1e-18))
        assert t == pytest.approx(tau * math.log(2.0), abs=1e-15)

    def test_rising_crossing(self):
        traj = lambda t: 1.0 - math.exp(-t / 1e-12)
        t = bisect_threshold_crossing(traj, 0.5, 0.0, 1e-9, Tolerance(abs=1e-18))
        assert t == pytest.approx(1e-12 * math.log(2.0), abs=1e-15)

    def test_no_crossing_raises(self):
        with pytest.raises(NoCrossingError):
            bisect_threshold_crossing(lambda t: 1.0, 0.5, 0.0, 1.0,
                                      Tolerance(abs=1e-12))

    def test_exact_endpoint(self):
        traj = lambda t: 1.0 - t
        assert bisect_threshold_crossing(traj, 1.0, 0.0, 1.0,
                                         Tolerance(abs=1e-12)) == 0.0

    def test_bracket_width_bound(self):
        tau = 1e-11
        traj = lambda t: math.exp(-t / tau)
        for tol_abs in (1e-14, 1e-16):
            t = bisect_threshold_crossing(traj, 0.5, 0.0, 1e-9,
                                          Tolerance(abs=tol_abs))
            assert abs(t - tau * math.log(2.0)) <= tol_abs

    @pytest.mark.parametrize("t_lo,t_hi", [
        (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
    def test_window_not_finite_raises(self, t_lo, t_hi):
        with pytest.raises(ValueError, match="not finite"):
            bisect_threshold_crossing(lambda t: math.exp(-t), 0.5, t_lo, t_hi)

    @pytest.mark.parametrize("t_lo,t_hi,tol_abs,match", [
        (1.0, 0.0, 1e-12, "invalid window"),
        (1.0, 1.0, 1e-12, "invalid window"),
        (0.0, 1.0, 0.0, "tol.abs > 0"),
    ])
    def test_bad_window_or_tolerance_raises(self, t_lo, t_hi, tol_abs,
                                            match):
        with pytest.raises(ValueError, match=match):
            bisect_threshold_crossing(lambda t: math.exp(-t), 0.5, t_lo,
                                      t_hi, Tolerance(abs=tol_abs))

    @pytest.mark.parametrize("traj,level,t_lo,t_hi,tol,root", [
        (lambda t: 1.0 - t / 1e300, 0.5, 0.0, 1e300, 1e-17, 5e299),
        # about 2,050 halvings, down to floats near 1e-300
        (lambda t: t - 1e-300, 0.0, -1e300, 1e300, 5e-324, 1e-300),
    ])
    def test_width_over_tolerance_past_float_range(self, traj, level, t_lo,
                                                   t_hi, tol, root):
        # width/tol.abs overflows: the bisection runs to adjacent floats
        probes = []

        def g(t):
            probes.append(t)
            return traj(t)

        t = bisect_threshold_crossing(g, level, t_lo, t_hi,
                                      Tolerance(abs=tol))
        assert abs(t - root) <= 2.0 * math.ulp(root)
        assert 2 < len(probes) <= 2 + 2100

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_window_near_the_top_of_the_float_range(self, sign):
        # t_lo + t_hi overflows, but the window and its midpoints are
        # finite
        t_lo, t_hi = sorted((sign * 1e308, sign * 1.5e308))
        t = bisect_threshold_crossing(lambda u: 1.0 - sign * u / 1.6e308,
                                      0.1, t_lo, t_hi, Tolerance(abs=1.0))
        root = sign * 0.9 * 1.6e308
        assert abs(t - root) <= 2.0 * math.ulp(root)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_end_value_not_finite_raises(self, end, bad):
        traj = lambda t: bad if t == end else 1.0 - t
        with pytest.raises(ValueError, match="not finite"):
            bisect_threshold_crossing(traj, 0.5, 0.0, 1.0,
                                      Tolerance(abs=1e-12))


def _decades(lo: int, hi: int):
    """10**x for x in [lo, hi] in steps of 1/8."""
    return st.integers(8 * lo, 8 * hi).map(lambda k: 10.0 ** (k / 8.0))


@st.composite
def _bisect_cases(draw):
    """A monotone trajectory, a window and a tolerance.

    A quarter of the windows span 1 to 3 adjacent floats, the rest a
    log-uniform width.  The crossing lies at the first midpoint, at a
    multiple of 1/64 of the window, anywhere inside, or outside; stair
    trajectories hold an exact zero over a whole tread.
    """
    t_lo = draw(st.floats(-1e3, 1e3))
    if draw(st.integers(0, 3)) == 0:
        t_hi = t_lo
        for _ in range(draw(st.integers(1, 3))):
            t_hi = math.nextafter(t_hi, math.inf)
    else:
        # 1e-15 of the magnitude is still a few ulps of t_lo
        t_hi = t_lo + (abs(t_lo) + 1.0) * draw(_decades(-15, 1))
    width = t_hi - t_lo
    where = draw(st.sampled_from(["midpoint", "dyadic", "inside",
                                  "outside"]))
    if where == "midpoint":
        root = 0.5 * (t_lo + t_hi)
    elif where == "dyadic":
        root = t_lo + draw(st.integers(1, 63)) / 64.0 * width
    elif where == "inside":
        root = t_lo + draw(st.integers(1, 999)) / 1000.0 * width
    else:
        root = draw(st.sampled_from([t_lo - width, t_hi + width]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["linear", "tanh", "stair"]))
    if kind == "linear":
        # a crossing a fraction of an ulp past root lies between floats
        offset = draw(st.sampled_from([0.0, 0.25, 0.5])) * math.ulp(root)
        traj = lambda t: sign * (t - root - offset)
    elif kind == "tanh":
        scale = width * draw(_decades(-12, 0))
        traj = lambda t: math.tanh(sign * (t - root) / scale)
    else:
        tread = width * draw(_decades(-12, -2))
        traj = lambda t: sign * math.floor((t - root) / tread)
    # from ten widths down to 1e-40 of one, past adjacent floats
    tol = max(width * draw(_decades(-40, 1)), 5e-324)
    return traj, t_lo, t_hi, Tolerance(abs=tol)


class TestBisectMatchesReference:
    """The trimmed bisection probes and returns what the frozen one did."""

    @staticmethod
    def _outcome(bisect, traj, t_lo, t_hi, tol):
        probes = []

        def g(t):
            probes.append(t)
            return traj(t)

        try:
            result = bisect(g, 0.0, t_lo, t_hi, tol)
        except Exception as exc:
            result = type(exc)
        return result, probes

    @settings(max_examples=150, deadline=None)
    @given(_bisect_cases())
    def test_same_probes_and_result(self, case):
        traj, t_lo, t_hi, tol = case
        got = self._outcome(bisect_threshold_crossing, traj, t_lo, t_hi, tol)
        want = self._outcome(reference_bisect_threshold_crossing, traj,
                             t_lo, t_hi, tol)
        assert got == want

    def test_cases_reach_every_exit(self):
        # a zero at the first midpoint, adjacent floats, the width test,
        # a zero at a window end and a missing crossing
        cases = [
            (lambda t: t - 0.5, 0.0, 1.0, 1e-9),
            (lambda t: t - 1.0 - 1e-300, 1.0, 1.0 + 2 ** -52, 1e-30),
            (lambda t: math.exp(-t) - 0.5, 0.0, 5.0, 1e-12),
            (lambda t: 1.0 - t, 0.0, 1.0, 1e-12),
            (lambda t: t + 2.0, 0.0, 1.0, 1e-12),
        ]
        for traj, t_lo, t_hi, tol in cases:
            tol = Tolerance(abs=tol)
            got = self._outcome(bisect_threshold_crossing, traj, t_lo, t_hi,
                                tol)
            want = self._outcome(reference_bisect_threshold_crossing, traj,
                                 t_lo, t_hi, tol)
            assert got == want


@st.composite
def _guided_cases(draw):
    """A trajectory whose computed sign is exact, a window holding its
    root, a tolerance, and an estimate within half the tolerance of the
    root."""
    t_lo = draw(st.floats(-1e3, 1e3))
    width = (abs(t_lo) + 1.0) * draw(_decades(-12, 1))
    t_hi = t_lo + width
    root = t_lo + draw(st.integers(1, 999)) / 1000.0 * width
    sign = draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        traj = lambda t: sign * (t - root)
    else:
        scale = width * draw(_decades(-12, 0))
        traj = lambda t: math.tanh(sign * (t - root) / scale)
    tol = max(width * draw(_decades(-20, -1)), 5e-324)
    near = root + draw(st.floats(-0.49, 0.49)) * tol
    return traj, t_lo, t_hi, Tolerance(abs=tol), near


class TestBisectNear:
    """An estimate of the crossing picks the bisection's last levels and
    leaves its result as it was."""

    _outcome = staticmethod(TestBisectMatchesReference._outcome)

    @staticmethod
    def _guided(traj, t_lo, t_hi, tol, near):
        return TestBisectMatchesReference._outcome(
            lambda *args: bisect_threshold_crossing(*args, near=near),
            traj, t_lo, t_hi, tol)

    @settings(max_examples=80, deadline=None)
    @given(_guided_cases())
    def test_same_result_from_fewer_probes(self, case):
        traj, t_lo, t_hi, tol, near = case
        got, probes = self._guided(traj, t_lo, t_hi, tol, near)
        want, plain_probes = self._outcome(bisect_threshold_crossing, traj,
                                           t_lo, t_hi, tol)
        assert got == want
        assert want == self._outcome(reference_bisect_threshold_crossing,
                                     traj, t_lo, t_hi, tol)[0]
        # the window ends, then only midpoints within the margin of an
        # estimate inside the window (to the rounding of near +- margin),
        # each one the plain bisection probes too
        assert probes[:2] == plain_probes[:2]
        assert set(probes) <= set(plain_probes)
        if t_lo <= near <= t_hi:
            reach = max(tol.abs, abs(near) * _NEAR_REL) + math.ulp(near)
            assert all(abs(t - near) <= reach for t in probes[2:])
        else:
            assert probes == plain_probes

    @pytest.mark.parametrize("near", [math.nan, math.inf, -math.inf,
                                      -1.0, -1e-300, 5.0 + 1e-9, 1e300])
    def test_near_outside_the_window_is_ignored(self, near):
        traj = lambda t: math.exp(-t) - 0.5
        tol = Tolerance(abs=1e-12)
        assert self._guided(traj, 0.0, 5.0, tol, near) == \
            self._outcome(bisect_threshold_crossing, traj, 0.0, 5.0, tol)

    def test_exponential_crossing_in_five_probes(self):
        # 43 halvings of [0, 5] at 1e-12; the plain bisection probes
        # 2 + 43 times
        traj = lambda t: math.exp(-t) - 0.5
        tol = Tolerance(abs=1e-12)
        got, probes = self._guided(traj, 0.0, 5.0, tol, math.log(2.0))
        want, plain_probes = self._outcome(bisect_threshold_crossing, traj,
                                           0.0, 5.0, tol)
        assert got == want and len(plain_probes) == 45
        assert len(probes) <= 5

    @pytest.mark.parametrize("root", [1.2345678, 3.3e5])
    def test_noisy_sign_past_tol_at_a_large_time_scale(self, root):
        # tol.abs is below the ulp of t here, and the computed sign is
        # noise within 8 ulps of the root: the margin of 4,096 ulps of
        # near keeps every skipped midpoint outside that band
        noise = 8.0 * math.ulp(root)
        traj = lambda t: (t - root) + noise * math.sin(t * 1e17)
        tol = Tolerance(abs=1e-17)
        for near in (root, math.nextafter(root, 0.0)):
            got, probes = self._guided(traj, 0.0, 2.0 * root, tol, near)
            want, plain_probes = self._outcome(bisect_threshold_crossing,
                                               traj, 0.0, 2.0 * root, tol)
            assert got == want
            assert len(probes) < len(plain_probes) - 20

    def test_estimate_is_trusted_outside_tol(self):
        # a midpoint farther than tol from near is not evaluated, so a
        # wrong estimate inside the window steers the result, which
        # lands within two tol of it rather than at ln 2
        traj = lambda t: math.exp(-t) - 0.5
        got, probes = self._guided(traj, 0.0, 5.0, Tolerance(abs=1e-12),
                                   1.0)
        assert abs(got - 1.0) <= 2e-12
        assert all(abs(t - 1.0) <= 1e-12 for t in probes[2:])


class TestIntegrateOde:
    def test_exponential_decay(self):
        tau = 1e-12
        sol = integrate_ode(lambda t, v: -v / tau, 0.0, 5 * tau, 1.0,
                            Tolerance(rel=1e-10, abs=1e-14))
        assert sol.v1 == pytest.approx(math.exp(-5.0), rel=1e-8)

    def test_dense_output_accuracy(self):
        tau = 2.0
        sol = integrate_ode(lambda t, v: -v / tau, 0.0, 10.0, 1.0,
                            Tolerance(rel=1e-10, abs=1e-14))
        for i in range(101):
            t = 0.1 * i
            assert sol(t) == pytest.approx(math.exp(-t / tau), rel=1e-7, abs=1e-12)

    def test_forced_linear_ode(self):
        # dv/dt = (1 - v)/tau from 0: v = 1 - e^{-t/tau}
        tau = 0.7
        sol = integrate_ode(lambda t, v: (1.0 - v) / tau, 0.0, 3.0, 0.0,
                            Tolerance(rel=1e-11, abs=1e-14))
        assert sol(1.3) == pytest.approx(1.0 - math.exp(-1.3 / tau), rel=1e-8)

    def test_reproducible_bit_for_bit(self):
        f = lambda t, v: math.sin(3.0 * t) - 0.5 * v
        s1 = integrate_ode(f, 0.0, 4.0, 0.2)
        s2 = integrate_ode(f, 0.0, 4.0, 0.2)
        assert s1.ts == s2.ts
        assert s1.vs == s2.vs
        assert s1.dvs == s2.dvs

    def test_step_underflow_raises(self):
        # right-hand side oscillating far below any resolvable step
        f = lambda t, v: 1e30 * math.sin(1e30 * t + 1.0)
        with pytest.raises(StepUnderflowError):
            integrate_ode(f, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("t0,t1", [
        (1e-18, 7.138806313176834e-12),  # rounding leaves 8e-28 s to t1
        (0.0, 1e-17),  # a 64th of the window is below the step floor
        (0.0, 1e-19),  # the whole window is
    ])
    def test_short_steps_to_horizon_are_taken(self, t0, t1):
        # only error control may drive a step below the floor short of t1
        sol = integrate_ode(lambda t, v: 0.0, t0, t1, 1.0)
        assert sol.t1 == t1
        assert sol.v1 == 1.0

    def test_bad_window_raises(self):
        with pytest.raises(ValueError):
            integrate_ode(lambda t, v: v, 1.0, 1.0, 0.0)

    def test_endpoint_hit_exactly(self):
        sol = integrate_ode(lambda t, v: -v, 0.0, 1.0, 1.0)
        assert sol.t1 == 1.0

    @pytest.mark.parametrize("t0,t1", [
        (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
        (0.0, math.nan), (-1e308, 1e308)])
    def test_window_not_finite_raises_up_front(self, t0, t1):
        g, calls = _counting(lambda t, v: -v)
        with pytest.raises(ValueError, match="finite"):
            integrate_ode(g, t0, t1, 1.0)
        assert calls == []

    @pytest.mark.parametrize("t,match", [
        (math.nan, "t=nan"),
        (-1e-3, "before solution start"),
        (1.001, "after solution end"),
    ])
    def test_probe_outside_solution_raises(self, t, match):
        sol = integrate_ode(lambda t, v: -v, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=match):
            sol(t)

    def test_zero_error_scale_grows_step(self):
        # tol.abs = 0 with v = 0 throughout: the mixed scale is 0, so
        # the zero error is measured against a tiny floor instead; each
        # step is accepted and grows 5x
        tol = Tolerance(rel=1e-10, abs=0.0)
        sol = integrate_ode(lambda t, v: 0.0, 0.0, 1.0, 0.0, tol)
        assert sol.ts == [0.0, 1 / 64, 6 / 64, 31 / 64, 1.0]
        assert set(sol.vs) == {0.0}


def _counting(f):
    """f, plus a list whose length is the number of calls made."""
    calls = []

    def g(t, v):
        calls.append(t)
        return f(t, v)

    return g, calls


class TestIntegrateOdeMatchesReference:
    """integrate_ode reproduces the generic tableau loop to the bit."""

    @staticmethod
    def _assert_same(f, t0, t1, v0, tol):
        sol = integrate_ode(f, t0, t1, v0, tol)
        ts, vs, dvs = reference_integrate_ode(f, t0, t1, v0, tol.rel, tol.abs)
        assert sol.ts == ts
        assert sol.vs == vs
        assert sol.dvs == dvs
        return sol

    def test_linear_decay(self):
        tau = 1e-12
        self._assert_same(lambda t, v: -v / tau, 0.0, 5 * tau, 1.0,
                          Tolerance(rel=1e-10, abs=1e-14))
        self._assert_same(lambda t, v: -v / 2.0, 0.0, 10.0, 1.0,
                          Tolerance(rel=1e-10, abs=1e-12))

    def test_forced(self):
        self._assert_same(lambda t, v: (1.0 - v) / 0.7, 0.0, 3.0, 0.0,
                          Tolerance(rel=1e-11, abs=1e-14))
        self._assert_same(lambda t, v: math.sin(3.0 * t) - 0.5 * v,
                          0.0, 4.0, 0.2, Tolerance(rel=1e-10, abs=1e-12))

    @pytest.mark.parametrize("exact_f", [True, False])
    @pytest.mark.parametrize("name,direction,kind,sep,v0", [
        ("nor15_l3", "rising", "01->00", 0.0, 0.0),
        ("nor15_l3", "rising", "10->00", 3e-12, 0.0),
        ("nor65_l5", "rising", "01->00", 2e-11, 0.0),
        ("cgate15_l3", "rising", "10->11", 0.0, 0.0),
        ("cgate15_l3", "rising", "01->11", 4e-12, 0.0),
        ("cgate15_l3", "falling", "01->00", 4e-12, 1.0),
    ])
    def test_dual_transient_modes(self, name, direction, kind, sep, v0,
                                  exact_f):
        # the switch-on modes delay_by_ode integrates, over its horizon
        p = load_fixture(name)
        gate_kind = "nor2" if name.startswith("nor") else "cgate"
        inv = delay_by_inversion(gate_kind, direction, sep, p)
        horizon = 12.0 * (inv - p.delta_min)
        rhs = _ode_rhs(p, kind, sep, exact_f)
        self._assert_same(rhs, _T_EPS, horizon, v0,
                          Tolerance(rel=1e-10, abs=1e-13))

    @staticmethod
    def _assert_prefix(f, t0, t1, v0, tol, level):
        # the run stopped past level is the full run up to and including
        # its first node strictly past level from v0's side
        sol = integrate_ode(f, t0, t1, v0, tol, stop_past=level)
        ts, vs, dvs = reference_integrate_ode(f, t0, t1, v0, tol.rel, tol.abs)
        past = [i for i, v in enumerate(vs)
                if v < level < v0 or v0 < level < v]
        n = past[0] + 1 if past else len(ts)
        assert sol.ts == ts[:n]
        assert sol.vs == vs[:n]
        assert sol.dvs == dvs[:n]
        return sol, len(ts)

    def test_stop_past_is_a_prefix(self):
        tol = Tolerance(rel=1e-10, abs=1e-12)
        for f, v0, level in ((lambda t, v: -v / 2.0, 1.0, 0.5),
                             (lambda t, v: (1.0 - v) / 0.7, 0.0, 0.5),
                             (lambda t, v: math.sin(3.0 * t) - 0.5 * v,
                              0.2, 0.6)):
            sol, full = self._assert_prefix(f, 0.0, 10.0, v0, tol, level)
            assert len(sol.ts) < full
            assert (sol.v1 - level) * (v0 - level) < 0.0

    @pytest.mark.parametrize("level", [-0.1, 1.0, 2.0])
    def test_stop_past_never_crossed_is_full(self, level):
        # a level the solution never passes, or the start value itself,
        # leaves the whole solution
        sol, full = self._assert_prefix(lambda t, v: -v / 2.0, 0.0, 10.0,
                                        1.0, Tolerance(rel=1e-10, abs=1e-12),
                                        level)
        assert len(sol.ts) == full
        assert sol.t1 == 10.0

    @pytest.mark.parametrize("exact_f", [True, False])
    @pytest.mark.parametrize("name,direction,kind,sep,v0", [
        ("nor15_l3", "rising", "01->00", 0.0, 0.0),
        ("nor65_l5", "rising", "01->00", 2e-11, 0.0),
        ("nor15_l3", "falling", "00->10", 0.0, 1.0),
        ("cgate15_l3", "falling", "01->00", 4e-12, 1.0),
    ])
    def test_stop_past_on_oracle_modes(self, name, direction, kind, sep, v0,
                                       exact_f):
        # the stop delay_by_ode makes, on the modes and horizon it uses
        p = load_fixture(name)
        gate_kind = "nor2" if name.startswith("nor") else "cgate"
        inv = delay_by_inversion(gate_kind, direction, sep, p)
        rhs = _ode_rhs(p, kind, sep, exact_f)
        sol, full = self._assert_prefix(rhs, _T_EPS, 12.0 * (inv - p.delta_min),
                                        v0, Tolerance(rel=1e-10, abs=1e-13),
                                        0.5)
        assert len(sol.ts) < full

    def test_rejected_steps(self):
        # a slope jump at t = 0.37 that the opening step size overshoots
        def f(t, v):
            return -v if t < 0.37 else -40.0 * (v - 2.0)

        tol = Tolerance(rel=1e-9, abs=1e-12)
        sol = self._assert_same(f, 0.0, 2.0, 1.0, tol)
        g, calls = _counting(f)
        integrate_ode(g, 0.0, 2.0, 1.0, tol)
        # each accepted step costs six calls; more means rejections
        assert len(calls) > 1 + 6 * (len(sol.ts) - 1)

    @pytest.mark.parametrize("f,v0,clamped", [
        # error at rounding level: the factor clamps to 5x growth
        (lambda t, v: t, 0.0, {5.0}),
        # stiff: rejected steps, and the factor clamps to a 5x shrink
        (lambda t, v: -1e4 * (v - math.cos(t)), 0.0, {0.2}),
        # quiet, then stiff: both clamps, and zero-error steps
        (lambda t, v: 0.0 if t < 0.5 else -1e3 * v, 1.0, {0.2, 5.0}),
    ])
    def test_step_factor_clamps(self, f, v0, clamped):
        tol = Tolerance(rel=1e-9, abs=1e-12)
        sol = integrate_ode(f, 0.0, 1.0, v0, tol)
        attempts = []
        ts, vs, dvs = reference_integrate_ode(f, 0.0, 1.0, v0, tol.rel,
                                              tol.abs, attempts)
        assert (sol.ts, sol.vs, sol.dvs) == (ts, vs, dvs)
        factors = [factor for _, factor in attempts]
        hit = {bound for bound, past in ((5.0, max(factors) > 5.0),
                                         (0.2, min(factors) < 0.2)) if past}
        assert hit == clamped
        if 0.2 in clamped:
            assert max(ratio for ratio, _ in attempts) > 1.0

    def test_nan_stage_rejects_and_shrinks_step(self):
        # NaN stages in the first attempt make the error ratio NaN: the
        # step is rejected and shrinks 5x, as any rejection does
        def f(t, v):
            return math.nan if 2 <= len(calls) <= 7 else -v

        g, calls = _counting(f)
        sol = integrate_ode(g, 0.0, 1.0, 1.0)
        assert calls[7] == 0.2 * (0.2 / 64.0)  # second attempt's stage 2
        assert sol.t1 == 1.0
        assert sol.v1 == pytest.approx(math.exp(-1.0), rel=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rhs_underflows_quickly(self, value):
        g, calls = _counting(lambda t, v: value)
        with pytest.raises(StepUnderflowError):
            integrate_ode(g, 0.0, 1.0, 0.0)
        # each attempt shrinks the step 5x from 1/64 down to 1e-18
        assert len(calls) <= 1 + 6 * 30


class TestTolerance:
    @pytest.mark.parametrize("kwargs", [
        {"rel": 0.0}, {"rel": -1.0}, {"rel": math.nan},
        {"abs": -1e-9}, {"max_iter": 0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

    def test_defaults_valid(self):
        t = Tolerance()
        assert t.rel > 0 and t.abs >= 0 and t.max_iter >= 1
