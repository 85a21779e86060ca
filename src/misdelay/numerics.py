"""Scalar numeric kernels used by the delay models.

Everything here is deterministic, dependency-free and double precision:
the lower Lambert W branch and the branch-gap root behind it, Brent
root bracketing, threshold-crossing bisection, and an adaptive embedded
Runge-Kutta integrator with dense output.  These are the only
nontrivial numerics the rest of the package relies on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

__all__ = [
    "Tolerance",
    "DomainError",
    "NoSignChangeError",
    "NoCrossingError",
    "ConvergenceError",
    "StepUnderflowError",
    "lambert_w_m1",
    "find_root_bracketed",
    "bisect_threshold_crossing",
    "integrate_ode",
    "OdeSolution",
]


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of the function."""


class NoSignChangeError(ValueError):
    """Root bracket does not actually bracket a sign change."""


class NoCrossingError(ValueError):
    """Trajectory does not cross the requested level inside the window."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the tolerance."""


class StepUnderflowError(RuntimeError):
    """Adaptive step control drove the step size below the resolvable floor."""


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request for the iterative routines.

    rel and abs combine into the usual mixed criterion
    ``abs + rel * scale``; max_iter bounds the iteration count.
    """

    rel: float = 1e-12
    abs: float = 0.0
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not (self.rel > 0.0) or not math.isfinite(self.rel):
            raise ValueError(f"tolerance rel must be finite and > 0, got {self.rel!r}")
        if not (self.abs >= 0.0) or not math.isfinite(self.abs):
            raise ValueError(f"tolerance abs must be finite and >= 0, got {self.abs!r}")
        if self.max_iter < 1:
            raise ValueError(f"tolerance max_iter must be >= 1, got {self.max_iter!r}")


_EXP_NEG1 = math.exp(-1.0)


def _branch_series(p: float) -> float:
    """S(p) of the branch-point series W_-1(x) = -1 - p * S(p).

    p = sqrt(2(1 + e*x)); six terms of Corless et al., "On the Lambert
    W function" (1996).  The gate delays use it too, for 1 + W near the
    branch point.
    """
    return 1.0 + p * (1.0 / 3.0 + p * (11.0 / 72.0 + p * (43.0 / 540.0
        + p * (769.0 / 17280.0 + p * (221.0 / 8505.0)))))


def _mantissa_trailing_zeros(w: float) -> int:
    m = int(abs(math.frexp(w)[0]) * (1 << 53))
    return (m & -m).bit_length() - 1


def _snap_to_best_neighbor(w: float, x: float) -> float:
    # Final cleanup: among w and its two float neighbors, return the one
    # minimizing |w e^w - x|.  Adjacent floats can tie at residual 0.0
    # when double arithmetic cannot separate them; ties go to the value
    # with the most trailing zero mantissa bits so that exactly
    # representable roots (e.g. -2.0 for x = -2 exp(-2)) win.  The first
    # candidate wins a full tie; trailing zeros are counted only on a
    # residual tie.
    exp, nextafter = math.exp, math.nextafter
    best, best_res, best_tz = w, abs(w * exp(w) - x), None
    for c in (nextafter(w, -math.inf), nextafter(w, math.inf)):
        res = abs(c * exp(c) - x)
        if res < best_res:
            best, best_res, best_tz = c, res, None
        elif res == best_res:
            if best_tz is None:
                best_tz = _mantissa_trailing_zeros(best)
            tz = _mantissa_trailing_zeros(c)
            if tz > best_tz:
                best, best_tz = c, tz
    return best


def lambert_w_m1(x: float) -> float:
    """Lower branch W_-1 of the Lambert W function.

    Defined for x in [-1/e, 0); returns the solution w <= -1 of
    w * exp(w) = x.  Accurate to roughly machine precision in the
    defining residual over the whole branch, including arguments within
    a few ulp of the branch point and subnormally small magnitudes.
    """
    if math.isnan(x):
        raise DomainError("lambert_w_m1: x is NaN")
    if x >= 0.0:
        raise DomainError(f"lambert_w_m1: x must be negative, got {x!r}")
    if x < -_EXP_NEG1:
        raise DomainError(
            f"lambert_w_m1: x={x!r} below branch point -1/e={-_EXP_NEG1!r}")
    log = math.log

    # Distance above the branch point, computed cancellation-free:
    # s = 1 + e*x = -expm1(1 + log(-x)).
    log_neg_x = log(-x)
    s = -math.expm1(1.0 + log_neg_x)
    if s <= 0.0:
        # x is the branch point (or within rounding of it)
        return -1.0

    p = math.sqrt(2.0 * s)
    if s <= 1e-4:
        # Branch-point series; truncation error ~ p^7 is far below the
        # residual floor here because d(w e^w)/dw vanishes at the branch.
        return _snap_to_best_neighbor(-(p * _branch_series(p)) - 1.0, x)

    # Initial guess: branch-point series close in, asymptotic expansion
    # in log(-x) farther out.  Either lies in [-751.06, -1.0142], inside
    # the bracket below, so every iterate stays below -1 and g' > 0.
    if s < 0.5:
        w = -1.0 - p - p * p / 3.0 - 11.0 * p ** 3 / 72.0
    else:
        l1 = log_neg_x
        l2 = log(-l1)
        w = l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)

    # Safeguarded Newton on the log form g(w) = w + log(-w) - log(-x),
    # which is immune to exp underflow for very negative w.
    lo, hi = -760.0, -1.0  # covers subnormal x down to 5e-324
    # Near the branch point g' = 1 + 1/w vanishes, so the rounding noise
    # in g keeps the step above the 1e-15 test below; past that floor the
    # iteration only wanders inside the bracket.  A step that no longer
    # halves, taken where g is within rounding of zero, is that floor:
    # stop there and let the Halley polish finish.
    g_floor = 1e-15 * (abs(log_neg_x) + 1.0)
    last_step = math.inf
    for _ in range(80):
        g = w + log(-w) - log_neg_x
        if g > 0.0:
            # g is increasing in w on (-inf, -1)
            hi = w
        else:
            lo = w
        w_next = w - g / (1.0 + 1.0 / w)
        if not (lo < w_next < hi):
            w_next = 0.5 * (lo + hi)
        moved = abs(w_next - w)
        if moved <= 1e-15 * abs(w_next):
            w = w_next
            break
        if moved > 0.5 * last_step and abs(g) <= g_floor:
            break
        last_step = moved
        w = w_next
    else:
        raise ConvergenceError(f"lambert_w_m1: no convergence for x={x!r}")

    # One Halley polish in the direct residual when exp(w) is resolvable.
    if w > -700.0:
        ew = math.exp(w)
        f = w * ew - x
        fp = ew * (w + 1.0)
        if fp != 0.0:
            denom = fp - f * (w + 2.0) / (2.0 * (w + 1.0))
            if denom != 0.0:
                w -= f / denom
    return _snap_to_best_neighbor(w, x)


def _gap_root(e: float) -> float:
    """The y >= 0 with y - log1p(y) = e, for a finite gap e >= 0.

    This is W_-1(-exp(-1 - e)) = -1 - y without forming the argument,
    whose rounding costs e's low bits next to the branch point.  Below
    q = sqrt(2e) = 0.2, thirteen terms of the series of y in q (the
    inverse of Temme's lambda - 1 - log(lambda) = q**2/2) are exact to
    rounding.  Farther out they, or for q >= 2 the large-gap asymptote,
    start Halley's iteration on y - log1p(y) - e.
    """
    log1p = math.log1p
    q = math.sqrt(2.0 * e)
    if q < 2.0:
        y = q * (1.0 + q * (1.0 / 3.0 + q * (1.0 / 36.0 + q * (-1.0 / 270.0
            + q * (1.0 / 4320.0 + q * (1.0 / 17010.0 + q * (-139.0 / 5443200.0
            + q * (1.0 / 204120.0 + q * (-571.0 / 2351462400.0
            + q * (-281.0 / 1515591000.0 + q * (163879.0 / 2172751257600.0
            + q * (-5221.0 / 354648294000.0
            + q * (5246819.0 / 10168475885568000.0)))))))))))))
        if q < 0.2:
            return y
    else:
        lg = log1p(e)
        y = e + lg + lg / (1.0 + e)
    for _ in range(8):
        yp = 1.0 + y
        d = (y - log1p(y) - e) * yp / y
        d /= 1.0 - d / (2.0 * y * yp)
        y -= d
        # Halley cubes the relative error (times at most 1/4), so a
        # step this small leaves y exact to rounding
        if abs(d) <= 1e-6 * y:
            return y
    raise ConvergenceError(f"_gap_root: no convergence for e={e!r}")


def find_root_bracketed(f, a: float, b: float, tol: Tolerance = Tolerance()) -> float:
    """Find a root of f on [a, b] by Brent's method.

    The endpoints must bracket a sign change (an exact zero at either
    endpoint is returned directly).  Convergence criterion is the usual
    ``tol.abs + tol.rel * |x|`` interval width.
    """
    if not (a < b):
        raise ValueError(f"invalid bracket [{a!r}, {b!r}]")
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChangeError(
            f"f({a!r})={fa!r} and f({b!r})={fb!r} have the same sign")

    c, fc = a, fa
    d = e = b - a
    for _ in range(tol.max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol_here = 2.0 * math.ulp(b) + 0.5 * (tol.abs + tol.rel * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol_here or fb == 0.0:
            return b
        if abs(e) < tol_here or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol_here * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol_here:
            b += d
        else:
            b += tol_here if m > 0.0 else -tol_here
        fb = f(b)
    raise ConvergenceError(
        f"find_root_bracketed: {tol.max_iter} iterations exhausted")


# least margin of a guided bisection relative to its estimate, 4,096 ulps
_NEAR_REL = 2.0 ** -40

# a finite window is under 2**1024 wide and floats lie at least 2**-1074
# apart, so 2,098 halvings narrow any window to adjacent floats
_MAX_HALVINGS = 2100


def bisect_threshold_crossing(trajectory, level: float, t_lo: float, t_hi: float,
                              tol: Tolerance = Tolerance(abs=1e-16), *,
                              near: float | None = None) -> float:
    """Locate where a monotone trajectory crosses a level by bisection.

    Returns the midpoint of the final bracket once its width is at most
    ``tol.abs``.  Raises NoCrossingError when trajectory - level has the
    same sign at both window ends, and ValueError when the window, its
    width or trajectory - level at either end is not finite.

    near is the caller's estimate of the crossing.  A midpoint farther
    from it than a margin, tol.abs or 2**-40 |near| if that is larger,
    takes the side that near puts it on without evaluating the
    trajectory; every other step, the end checks, the midpoints and the
    iteration budget are those of the plain bisection.  So the result
    is the plain bisection's, bit for bit, whenever the trajectory's
    computed sign outside near +- margin is its true one.
    A near that is not a number inside the window is ignored.
    """
    if not (t_lo < t_hi):
        raise ValueError(f"invalid window [{t_lo!r}, {t_hi!r}]")
    # a window end at +-inf or NaN, or a width past the float range
    if not t_hi - t_lo < math.inf:
        raise ValueError(f"window [{t_lo!r}, {t_hi!r}] is not finite")
    tol_abs = tol.abs
    if tol_abs <= 0.0:
        raise ValueError("bisect_threshold_crossing needs tol.abs > 0")
    g_lo = trajectory(t_lo) - level
    g_hi = trajectory(t_hi) - level
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise ValueError(f"trajectory - level is not finite at the window "
                         f"ends: {g_lo!r}, {g_hi!r}")
    if g_lo == 0.0:
        return t_lo
    if g_hi == 0.0:
        return t_hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise NoCrossingError(
            f"no crossing of level {level!r} in [{t_lo!r}, {t_hi!r}]")
    lo_positive = g_lo > 0.0
    # a midpoint below near_lo or above near_hi takes near's side; a
    # near that is NaN, infinite or outside the window guides nothing.
    # A trajectory's computed sign is noise within some ulps of t of its
    # root, so the margin is at least 4,096 ulps of near
    if near is not None and t_lo <= near <= t_hi:
        margin = max(tol_abs, abs(near) * _NEAR_REL)
        near_lo, near_hi = near - margin, near + margin
    else:
        near_lo, near_hi = -math.inf, math.inf
    # ceil(log2(width/tol)) iterations reach the requested bracket width;
    # the +8 covers pathological float spacing near the endpoints.  A
    # ratio past the float range takes _MAX_HALVINGS, which reach
    # adjacent floats from any finite window.
    ratio = (t_hi - t_lo) / tol_abs
    n_iter = (int(math.log2(max(ratio, 1.0))) + 8 if ratio < math.inf
              else _MAX_HALVINGS)
    for _ in range(n_iter):
        if t_hi - t_lo <= tol_abs:
            break
        mid = 0.5 * (t_lo + t_hi)
        if mid <= t_lo or mid >= t_hi:
            if -math.inf < mid < math.inf:
                break  # bracket narrowed to adjacent floats
            mid = t_lo + 0.5 * (t_hi - t_lo)  # the sum overflowed
            if mid <= t_lo or mid >= t_hi:
                break
        if mid < near_lo:
            t_lo = mid
            continue
        if mid > near_hi:
            t_hi = mid
            continue
        g_mid = trajectory(mid) - level
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == lo_positive:
            t_lo = mid
        else:
            t_hi = mid
    mid = 0.5 * (t_lo + t_hi)
    return mid if -math.inf < mid < math.inf else t_lo + 0.5 * (t_hi - t_lo)


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math.
# 6, 1980).  The last stage row equals the fifth-order weights (FSAL),
# and c = 1 for the last two stages.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0, 0.0)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)
# error weights b5 - b4
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))

_MIN_STEP = 1e-18


class OdeSolution:
    """Dense ODE solution: piecewise cubic Hermite over accepted steps."""

    __slots__ = ("ts", "vs", "dvs")

    def __init__(self, ts, vs, dvs):
        self.ts = ts
        self.vs = vs
        self.dvs = dvs

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t1(self) -> float:
        return self.ts[-1]

    @property
    def v1(self) -> float:
        return self.vs[-1]

    def __call__(self, t: float) -> float:
        ts = self.ts
        if not t > ts[0]:  # at or before the start, or NaN
            if t != t:
                raise ValueError(f"t={t!r} is not a number")
            if t < ts[0] - 1e-30:
                raise ValueError(f"t={t!r} before solution start {ts[0]!r}")
            return self.vs[0]
        if t >= ts[-1]:
            if t > ts[-1] + max(1e-30, 1e-12 * abs(ts[-1])):
                raise ValueError(f"t={t!r} after solution end {ts[-1]!r}")
            return self.vs[-1]
        i = bisect_right(ts, t) - 1
        h = ts[i + 1] - ts[i]
        x = (t - ts[i]) / h
        v0, v1 = self.vs[i], self.vs[i + 1]
        d0, d1 = self.dvs[i] * h, self.dvs[i + 1] * h
        x2 = x * x
        x3 = x2 * x
        return ((2.0 * x3 - 3.0 * x2 + 1.0) * v0
                + (x3 - 2.0 * x2 + x) * d0
                + (-2.0 * x3 + 3.0 * x2) * v1
                + (x3 - x2) * d1)


def integrate_ode(f, t0: float, t1: float, v0: float,
                  tol: Tolerance = Tolerance(rel=1e-10, abs=1e-12),
                  stop_past: float | None = None) -> OdeSolution:
    """Integrate dv/dt = f(t, v) from t0 to t1 with adaptive RK5(4).

    Returns a dense OdeSolution.  Step acceptance uses the mixed local
    error criterion ``|err| <= tol.abs + tol.rel * max(|v|, |v_new|)``.
    Raises StepUnderflowError if controlling the error would need steps
    below 1e-18 short of t1 (stiff, singular or non-finite right-hand
    side).  The integration is exactly reproducible: identical inputs
    give identical solutions.

    With stop_past set, the integration returns at the first accepted
    node strictly past that level on the far side from v0 (never when
    v0 equals it).  Step sizing still starts from and clips to t1, so
    the returned nodes are exactly a prefix of the full solution's.
    """
    # t1 - t0 is NaN or inf when an end is not finite
    if not (t1 > t0 and t1 - t0 < math.inf):
        raise ValueError(
            f"integrate_ode needs finite t0 < t1, got [{t0!r}, {t1!r}]")
    # an accepted v outside [lo, hi] ends the integration
    lo, hi = -math.inf, math.inf
    if stop_past is not None:
        if v0 > stop_past:
            lo = stop_past
        elif v0 < stop_past:
            hi = stop_past
    # one straight-line step; each sum runs left to right in tableau
    # order and skips the zero weights, so results are reproducible
    # to the bit against the generic tableau loop
    _, c2, c3, c4, c5, _, _ = _DP_C
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65)) = _DP_A
    b1, _, b3, b4, b5, b6, _ = _DP_B5
    e1, e2, e3, e4, e5, e6, e7 = _DP_E
    tol_abs, tol_rel = tol.abs, tol.rel
    ts = [t0]
    vs = [v0]
    k1 = f(t0, v0)
    dvs = [k1]
    t, v = t0, v0
    h = max((t1 - t0) / 64.0, _MIN_STEP)
    max_steps = 1_000_000
    for _ in range(max_steps):
        if t >= t1:
            return OdeSolution(ts, vs, dvs)
        if h >= t1 - t:
            h = t1 - t  # the last step lands on t1, however short
        elif h < _MIN_STEP:
            raise StepUnderflowError(
                f"step size {h!r} below {_MIN_STEP!r} at t={t!r}")
        k2 = f(t + c2 * h, v + h * a21 * k1)
        k3 = f(t + c3 * h, v + h * a31 * k1 + h * a32 * k2)
        k4 = f(t + c4 * h, v + h * a41 * k1 + h * a42 * k2 + h * a43 * k3)
        k5 = f(t + c5 * h, v + h * a51 * k1 + h * a52 * k2 + h * a53 * k3
               + h * a54 * k4)
        k6 = f(t + h, v + h * a61 * k1 + h * a62 * k2 + h * a63 * k3
               + h * a64 * k4 + h * a65 * k5)
        # the last stage is evaluated at the fifth-order solution (FSAL)
        v5 = (v + h * b1 * k1 + h * b3 * k3 + h * b4 * k4 + h * b5 * k5
              + h * b6 * k6)
        k7 = f(t + h, v5)
        err = (0.0 + h * e1 * k1 + h * e2 * k2 + h * e3 * k3 + h * e4 * k4
               + h * e5 * k5 + h * e6 * k6 + h * e7 * k7)
        # builtin max(a, b) and min(a, b), here and in the clamp below,
        # spelled out as b if b > a else a and b if b < a else a: no call
        # per step, and the same result for every input, NaN and signed
        # zeros included
        abs_v, abs_v5 = abs(v), abs(v5)
        scale = tol_abs + tol_rel * (abs_v5 if abs_v5 > abs_v else abs_v)
        if scale <= 0.0:
            scale = tol_abs if tol_abs > 0.0 else 1e-300
        ratio = abs(err) / scale
        if ratio <= 1.0:
            t, v = t + h, v5
            ts.append(t)
            vs.append(v)
            k1 = k7  # FSAL; a rejected step keeps the old stage-1 slope
            dvs.append(k1)
            if not lo <= v <= hi:
                return OdeSolution(ts, vs, dvs)
        # a NaN ratio (from a non-finite stage) rejects the step above;
        # shrink it like any other rejection
        factor = 0.9 * (1.0 / ratio) ** 0.2 if ratio > 0.0 else (
            5.0 if ratio == 0.0 else 0.2)
        factor = factor if factor > 0.2 else 0.2
        h *= factor if factor < 5.0 else 5.0
    raise ConvergenceError(f"integrate_ode: exceeded {max_steps} steps")
