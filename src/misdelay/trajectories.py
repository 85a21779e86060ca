"""Analytic output trajectories and independent delay oracles.

The closed-form delay families in :mod:`misdelay.gates` are compact
approximations of a mode-switched first-order circuit.  This module
exports two delay oracles of that circuit, built on its exact per-mode
output voltage trajectories (with the interconnect folded in by a
constant divider):

* trajectory inversion, which chains mode trajectories and bisects the
  threshold crossing;
* full ODE integration, with the interconnect either as the constant
  divider or as the exact time-varying divider f(t).

Both oracles estimate each crossing before they bisect it: the falling
NOR chain in closed form, a switch-on by Newton's method on tau*log(phi),
the ODE by Newton's method on the cubic of the step that crosses.  The
bisection (`bisect_threshold_crossing`'s near) then evaluates the
trajectory only at its last levels, about 2.4 midpoints instead of 24,
and keeps its result bit for bit: every midpoint it skips lies farther
from the estimate than the bisection's margin, where the trajectory's
computed sign is the estimate's.

`_mode_law` is the one table of the eight modes.  A dual-transient
mode's decay factor and its exponent's slope are built in one place,
`_phi`, which the inversion oracle and its Newton estimate call after
it; the ODE right-hand side `_ode_rhs` reads the same table, and
`_integrate_chain` chains its modes from the natural level, the rail
the first mode drives away from.

The oracles share with the closed forms only the description of the
gate and the argument checks: which parameter class each gate kind
names (`gates._KIND_CLASSES`), which input pair drives an output
(`gates._pair_rising`), which transient coefficients and stack that
pair engages (`gates._switch_on_pair`) and the divider-corrected loads
(`effective_caps`).  The crossing formulas and their solves stay
independent: the closed forms use Lambert W and a linearization, the
oracles bisect the chained trajectories or the integrated ODE.

The constant divider is exact for this circuit, not an approximation.
The constant-resistance modes need no divider correction at all; a
switch-on mode with gate resistance alpha_a/(t+delta) + alpha_f/t + R_s
behind r5 obeys the constant-divider law exactly when its transient
coefficients are (r5 + R_s)/R_s times those of the parameter set.  The
exact-divider ODE with the same coefficients therefore integrates a
different gate, and its gap to the constant-divider delays measures
that difference, not an approximation error.

Voltages are ratiometric: the supply is 1 and the switching threshold
is 1/2, so delays are independent of the supply; there is no supply
argument.  Mode kinds name the input-state transition, e.g. "01->00"
means input A was already low and input B falls now.  A mode's delta
is the nonnegative separation between the two input transitions of a
double transition; the order is carried by the kind itself.
"""

from __future__ import annotations

import math

from .gates import (_KIND_CLASSES, _LN2, NorGateParams, _check_time,
                    _is_rising, _pair_rising, _switch_on_pair,
                    effective_caps)
from .numerics import (
    DomainError,
    NoCrossingError,
    OdeSolution,
    Tolerance,
    bisect_threshold_crossing,
    integrate_ode,
)

__all__ = ["delay_by_inversion", "delay_by_ode"]

# mode kinds are input-state transitions "ab->a'b'", with a = input A
# and b = input B
_DOUBLE_UP = {"10->11", "01->11"}     # second input rises
_DOUBLE_DOWN = {"01->00", "10->00"}   # second input falls
_A_FIRST = {"10->11", "01->00"}       # input A switched first

# starting integration a tick after a switch keeps the 1/t transient
# coefficients finite; the voltage moved in that tick is O(1e-9) of the
# supply for any realistic parameter set
_T_EPS = 1e-18

# bracket width at which the oracles stop bisecting a crossing, and the
# step-size tolerance of the ODE oracle
_CROSSING_TOL = Tolerance(abs=1e-17)
_ODE_TOL = Tolerance(rel=1e-10, abs=1e-13)
# Newton steps allowed for a crossing estimate: three reach it on most
# fixtures, about 20 where the transient scale dwarfs tau
# (cgate15_isolated)
_NEWTON_STEPS = 64


def _phi(aged: float, fresh: float, r: float, delta: float, c_eff: float):
    """Homogeneous decay factor of a dual-transient mode, as tau and an
    exponent.

    aged and fresh are the transient coefficients of the transistor
    that switched on delta earlier and of the one switching on at
    t = 0, r the per-transistor on-resistance and c_eff the
    divider-corrected load.  With a = (aged + fresh)/2r, d = a + delta,
    c' = fresh * delta/2r and chi = d^2 - 4c', phi is a product of
    exp(-t/tau) and two power laws in 1 + 2t/(d +- sqrt(chi)).
    Returns (tau, e, de): phi(t) = exp(e(t)/tau), and de is e's
    derivative in t, as functions of mode time t with everything that
    does not depend on t computed once.  Raises DomainError when
    tau = 2r * c_eff, a or d - sqrt(chi) underflows to 0.
    """
    two_r = 2.0 * r
    tau = two_r * c_eff
    if not tau > 0.0:
        raise DomainError(f"time constant 2r*c_eff={tau!r} is not positive")
    log1p = math.log1p
    # the aged transistor has settled at delta = inf, and wherever
    # delta's square overflows, which would zero d - sqrt(chi) below
    settled = delta * delta == math.inf
    a = (fresh if settled else aged + fresh) / two_r
    if not a > 0.0:
        raise DomainError(f"transient scale a={a!r} is not positive")
    if settled or delta < 2.0 ** -53 * a:
        # single-transient law: the aged transistor has fully settled,
        # or it switched with the fresh one (the exact form's limit).
        # The law drops a correction of relative order delta/a, which
        # is below one rounding of a only where delta < 2^-53 a
        return (tau, lambda t: -t + a * log1p(t / a),
                lambda t: a / (a + t) - 1.0)
    d = a + delta
    c_prime = fresh * delta / two_r
    # chi = d^2 - 4 c' >= (fresh/2R - delta)^2 >= 0; the stable
    # forms below avoid the cancellation for small c'.  Rounding can
    # put the ratio a few ulp past 1 where chi is 0 (aged/2R
    # underflowing, delta = fresh/2R): that is chi = 0, as at ratio 1
    ratio = 4.0 * c_prime / (d * d)
    sqrt_chi = d * math.sqrt(1.0 - ratio) if ratio < 1.0 else 0.0
    chi = d * d - 4.0 * c_prime
    if sqrt_chi > 0.0:
        p_minus = 4.0 * c_prime / (d + sqrt_chi)  # = d - sqrt(chi), stably
        a_exp = (c_prime - 0.5 * a * p_minus) / sqrt_chi
    else:
        a_exp = 0.0
    p_plus = d + (math.sqrt(chi) if chi > 0.0 else 0.0)
    p_minus = 4.0 * c_prime / p_plus
    if not p_minus > 0.0:
        raise DomainError(f"transient scale d - sqrt(chi)={p_minus!r} is "
                          f"not positive")
    a_rest = a - a_exp
    return (tau,
            lambda t: (-t + a_rest * log1p(2.0 * t / p_plus)
                       + a_exp * log1p(2.0 * t / p_minus)),
            lambda t: (-1.0 + 2.0 * a_rest / (p_plus + 2.0 * t)
                       + 2.0 * a_exp / (p_minus + 2.0 * t)))


def _newton(f, df, level: float, t: float, step_tol: float) -> float | None:
    """Newton's iteration on f(t) = level from t, stopped by a step of
    at most step_tol, or None when the budget runs out first.

    The oracles pass the root to the bisection as its near, and pass
    None when f or df raises ArithmeticError or ValueError.
    """
    for _ in range(_NEWTON_STEPS):
        step = (f(t) - level) / df(t)
        t -= step
        if abs(step) <= step_tol:
            return t
    return None


def _mode_law(params, kind: str):
    """Conduction law of one mode: ('exp', rg, c_eff) for a constant
    resistance rg, ('dual', aged, fresh, r, c_eff, up) for the switch-on
    mode of a double transition, or ('hold',) when no path conducts.

    c_eff is the divider-corrected load; aged is the coefficient of the
    earlier input's transistor; up tells whether the mode drives the
    output toward the supply (the NOR pullup, the C gate's nMOS side).
    The oracles have checked params' type before they call it.
    """
    nor = isinstance(params, NorGateParams)
    up = kind in _DOUBLE_UP
    if nor and kind not in _DOUBLE_DOWN:
        caps = effective_caps(params)
        if kind in ("00->10", "11->10"):
            return ("exp", params.r_n_a, caps.c1)
        if kind in ("00->01", "11->01"):
            return ("exp", params.r_n_b, caps.c1_prime)
        rpar = params.r_n_a * params.r_n_b / (params.r_n_a + params.r_n_b)
        return ("exp", rpar, caps.c2)
    if not up and kind not in _DOUBLE_DOWN:
        # single transition breaks the conduction path; the keeper holds
        return ("hold",)
    alpha_a, alpha_b, r = _switch_on_pair(params, up)
    aged, fresh = (alpha_a, alpha_b) if kind in _A_FIRST else (alpha_b, alpha_a)
    c_eff = params.c_load * (params.r5 + 2.0 * r) / (2.0 * r)
    return ("dual", aged, fresh, r, c_eff, up or nor)


def _switch_on_kind(pair_rising: bool, delta: float) -> str:
    # the double transition of a pair whose B input switches delta after A
    if pair_rising:
        return "10->11" if delta >= 0.0 else "01->11"
    return "01->00" if delta >= 0.0 else "10->00"


def delay_by_inversion(gate_kind: str, direction: str, delta: float, params,
                       ) -> float:
    """Oracle delay by inverting the chained closed-form trajectories.

    Falling NOR outputs chain the single-input discharge into the dual
    discharge and are referenced to the first input transition; rising
    NOR outputs (and both C gate families) solve the implicit crossing
    of the dual-transient drive, referenced to the second transition.
    The transport delay delta_min is included, matching nor_delay and
    cgate_delay conventions.
    """
    _check_time("delta", delta)
    rising = _is_rising("direction", direction)
    cls = _KIND_CLASSES.get(gate_kind)
    if cls is None:
        raise ValueError(f"unknown gate_kind {gate_kind!r}")
    if not isinstance(params, cls):
        raise TypeError(f"gate_kind {gate_kind} needs {cls.__name__}")
    if not rising and cls is NorGateParams:
        return _nor_fall_by_inversion(params, delta)
    return _switch_on_by_inversion(params, _pair_rising(params, rising), delta)


def _nor_fall_by_inversion(p: NorGateParams, delta: float) -> float:
    # the single pulldown of the first rising input, then both
    _, rg1, c1 = _mode_law(p, "00->10" if delta >= 0.0 else "00->01")
    _, rg2, c2 = _mode_law(p, "10->11")
    tau1, tau2 = c1 * rg1, c2 * rg2
    sep = abs(delta)
    exp = math.exp
    # the handoff level keeps the voltage continuous at the second
    # transition
    v_sep = exp(-sep / tau1)

    def traj(t: float) -> float:
        if t <= sep:
            return exp(-t / tau1)
        return v_sep * exp(-(t - sep) / tau2)

    hi = _LN2 * tau1 * 1.0000001 if math.isinf(sep) else \
        min(sep, _LN2 * tau1) + 40.0 * tau2
    if hi == math.inf:
        # 40 tau2 overflowed; the crossing lies at or below
        # min(sep, ln2 tau1) + ln2 tau2
        hi = min(sep, _LN2 * tau1) + tau2
        if hi == math.inf:
            raise NoCrossingError("falling trajectory's window ends past "
                                  f"the float range (tau2={tau2!r} s)")
    # the crossing in closed form, so the bisection evaluates traj only
    # at the last levels; tau1 > 0 wherever sep / tau1 is formed
    near = _LN2 * tau1
    if near > sep:
        near = sep + tau2 * (_LN2 - sep / tau1)
    t_cross = bisect_threshold_crossing(traj, 0.5, 0.0, hi, _CROSSING_TOL,
                                        near=near)
    return t_cross + p.delta_min


def _switch_on_by_inversion(p, pair_rising: bool, delta: float) -> float:
    _, aged, fresh, r, c_eff, _ = _mode_law(p, _switch_on_kind(pair_rising,
                                                               delta))
    tau, expo, slope = _phi(aged, fresh, r, abs(delta), c_eff)
    exp = math.exp

    def phi(t: float) -> float:
        return exp(expo(t) / tau)

    # the hint brackets the crossing: phi decays at least as fast as
    # the simultaneous switch-on's single-transient law, which is below
    # exp(-1.8) there
    hi = max(8.0 * r * c_eff + (aged + fresh) / r, 1e-15)
    # Newton on tau*log(phi) + tau*ln2, concave and decreasing: from
    # tau*ln2 plus the log1p terms at tau*ln2, left of the root, the
    # first step lands right of it and the rest fall onto it
    shift = tau * _LN2
    try:
        near = _newton(expo, slope, -shift, 2.0 * shift + expo(shift),
                       1e-2 * _CROSSING_TOL.abs)
    except (ArithmeticError, ValueError):
        near = None
    try:
        t_cross = bisect_threshold_crossing(phi, 0.5, 0.0, hi, _CROSSING_TOL,
                                            near=near)
    except ValueError as exc:
        # the window end or phi there left the float range; a wider
        # window cannot bring either back
        raise NoCrossingError(f"drive trajectory has no crossing within "
                              f"the float range: {exc}") from None
    return t_cross + p.delta_min


class _ChainSolution:
    """Chained dense ODE solutions over consecutive modes."""

    def __init__(self, segments: list[tuple[float, OdeSolution]]):
        # segments: (absolute start time, solution in local mode time)
        self.segments = segments

    def __call__(self, t: float) -> float:
        # the last segment starting at or before t, else the first, whose
        # solution raises ValueError for a NaN t
        for start, sol in reversed(self.segments):
            if t >= start:
                break
        # min(max(s, ts[0]), ts[-1]), spelled out as in integrate_ode
        s, ts = t - start, sol.ts
        s = ts[0] if ts[0] > s else s
        return sol(ts[-1] if ts[-1] < s else s)


def _ode_rhs(params, kind: str, delta: float, exact_f: bool):
    """Right-hand side dv/dt = f(s) * (drive - v) / (C * rg(s)) for one mode.

    s is local mode time.  Returns None for non-conducting modes.
    """
    law = _mode_law(params, kind)
    if law[0] == "hold":
        return None
    c, r5 = params.c_load, params.r5
    if law[0] == "exp":
        # constant conduction path to ground: the divider is exact, no
        # approximation
        tau = c * (r5 + law[1])
        return lambda s, v: (0.0 - v) / tau
    _, aged, fresh, r, _, up = law
    drive = 1.0 if up else 0.0
    r_series = 2.0 * r
    if exact_f:
        def rhs(s: float, v: float) -> float:
            rg = aged / (s + delta) + fresh / s + r_series
            return (drive - v) / (c * (r5 + rg))
    else:
        # the constant-F branch equals the exact branch with aged and
        # fresh scaled by (r5 + r_series) / r_series
        f_const = r_series / (r5 + r_series)

        def rhs(s: float, v: float) -> float:
            rg = aged / (s + delta) + fresh / s + r_series
            return f_const * (drive - v) / (c * rg)
    return rhs


def _integrate_chain(modes, params, t_end: float, exact_f: bool,
                     stop_past: float | None) -> _ChainSolution:
    """Numerically integrate the output through a chain of modes.

    modes is a sequence of (kind, delta) pairs.  modes[0] starts at
    t = 0 at its natural level, the rail it drives away from; each later
    mode starts its own delta after the previous one and inherits the
    running voltage, so the trajectory is continuous.  Integration runs
    to t_end, past the last mode's start.  With stop_past set, each mode
    stops at its first node strictly past that level (see
    integrate_ode), and once the running voltage is past it from the
    starting side, later modes are not integrated: the solution then
    ends before t_end, and evaluating it beyond its end reads the last
    value.
    """
    starts = [0.0]
    for _, delta in modes[1:]:
        starts.append(starts[-1] + delta)
    law = _mode_law(params, modes[0][0])
    v = v_start = 0.0 if law[0] == "dual" and law[-1] else 1.0
    segments: list[tuple[float, OdeSolution]] = []
    for i, (kind, delta) in enumerate(modes):
        if stop_past is not None and (v < stop_past < v_start
                                      or v_start < stop_past < v):
            break
        seg_end = (starts[i + 1] if i + 1 < len(modes) else t_end) - starts[i]
        rhs = _ode_rhs(params, kind, delta, exact_f)
        if rhs is None or seg_end <= _T_EPS:
            # non-conducting mode, or one that ends within the tick every
            # conducting mode skips: hold v
            sol = OdeSolution([0.0, seg_end], [v, v], [0.0, 0.0])
        else:
            try:
                sol = integrate_ode(rhs, _T_EPS, seg_end, v, _ODE_TOL,
                                    stop_past)
            except ZeroDivisionError:
                # C * rg underflowed to 0 where rg settles
                raise DomainError("ODE rate divides by a load times gate "
                                  "resistance that underflows to 0") from None
        segments.append((starts[i], sol))
        v = sol.v1
    return _ChainSolution(segments)


def delay_by_ode(gate_kind: str, direction: str, delta: float, params,
                 exact_f: bool = True) -> float:
    """Oracle delay from full ODE integration of the canonical mode chain.

    Reference conventions and delta_min handling match
    delay_by_inversion.  The integration stops at its first accepted
    node past V_dd/2 instead of running to 12x the inversion delay;
    the nodes before it are the full run's and the bisection window is
    the same, so the delay is the same to the bit.  The crossing step's
    cubic, solved by Newton's method, guides the bisection (its near),
    which leaves the result unchanged too.  exact_f=True
    integrates the time-varying divider with the transient
    coefficients of params as given; that is the gate the constant
    divider describes only after those coefficients are scaled by
    (r5 + R_s)/R_s (see the module notes), so with r5 > 0 the two
    settings integrate different gates.
    """
    # the oracle also checks gate_kind, direction and the params type
    inv_hint = delay_by_inversion(gate_kind, direction, delta, params)
    horizon = 12.0 * max(inv_hint - params.delta_min, 1e-15)
    sep = abs(delta)

    if gate_kind == "nor2" and direction == "falling":
        chain = ("00->10", "10->11") if delta >= 0.0 else ("00->01", "01->11")
        if math.isinf(sep):
            modes = [(chain[0], sep)]
        elif sep == 0.0:
            modes = [(chain[1], sep)]
        else:
            modes = [(chain[0], 0.0), (chain[1], sep)]
    else:
        pair_rising = _pair_rising(params, direction == "rising")
        modes = [(_switch_on_kind(pair_rising, delta), sep)]
    last = sum(d for _, d in modes[1:])
    t_end = last + horizon
    if not last < t_end < math.inf:
        raise DomainError(f"horizon {horizon!r} s is below the float "
                          f"spacing at {last!r} s or past the float range")

    sol = _integrate_chain(modes, params, t_end, exact_f, 0.5)
    # the crossing may sit in any segment (a falling output past the
    # single-input limit crosses before the second transition arrives),
    # so bisect the chained solution as a whole; it is monotone.  It
    # ends at its first node past 0.5 and reads that value beyond, so
    # each probe has the sign the run to t_end gives it, and the window
    # is that run's: its last node lands on the last mode's end
    t_cross = bisect_threshold_crossing(sol, 0.5, 0.0, last + (t_end - last),
                                        _CROSSING_TOL, near=_hermite_root(sol))
    return t_cross + params.delta_min


def _hermite_root(sol: _ChainSolution) -> float | None:
    # Newton on the cubic Hermite of the solution's last step, which a
    # stop_past=0.5 run ends on the step that crosses 0.5; None unless
    # that step's node values straddle the level
    start, seg = sol.segments[-1]
    ts, vs, dvs = seg.ts, seg.vs, seg.dvs
    v0, v1 = vs[-2], vs[-1]
    if not min(v0, v1) < 0.5 < max(v0, v1):
        return None
    h = ts[-1] - ts[-2]
    d0, d1 = dvs[-2] * h, dvs[-1] * h
    # the step's cubic in x = (t - ts[-2])/h, in powers of x
    c2 = 3.0 * (v1 - v0) - 2.0 * d0 - d1
    c3 = 2.0 * (v0 - v1) + d0 + d1
    try:
        x = _newton(lambda x: v0 + x * (d0 + x * (c2 + x * c3)),
                    lambda x: d0 + x * (2.0 * c2 + 3.0 * x * c3), 0.5,
                    (0.5 - v0) / (v1 - v0), 1e-2 * _CROSSING_TOL.abs / h)
    except ArithmeticError:
        return None
    return None if x is None else start + ts[-2] + x * h
