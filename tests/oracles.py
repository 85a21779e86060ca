"""Independent slow-but-sure reference implementations used by the tests.

Nothing in here may import the algorithms under test; every routine is
a deliberately naive construction (plain bisection, direct summation)
so it can serve as an oracle for the fast library code.  The one
parameter map here, exact_divider_gate, uses dataclasses.replace only.
reference_integrate_ode walks the Runge-Kutta tableau in generic loops,
the form the library's straight-line step must match bit for bit.
reference_solve_z is the full 128-point bracket scan of the
characterization solve; it borrows the library's g terms and Brent
solve, so it pins only the bracket search, bit for bit.
reference_transient_scale inverts the switch-on crossing for the
transient scale in 40-digit decimal arithmetic from the same floats
the library gets, by Newton steps that fall monotonically onto the
root.
reference_write_vcd is the VCD renderer as a tuple merge and a
two-field sort, the order the library's flat-key render must keep.
reference_delay_by_ode integrates the ODE oracle's mode chain to its
full horizon and bisects over the whole solution; it borrows the
library's mode chain, integrator and bisection, so it pins only the
early stop at the threshold crossing, bit for bit.
reference_bisect_threshold_crossing is the threshold bisection as it
stood before its loop was trimmed and its window checked for finite
values; it pins the iteration count and result of every window it
accepts, bit for bit.
reference_serialize_netlist builds the netlist document as nested
dicts and renders it with json.dumps(indent=2), the form the library's
own indent-2 writer and in-place gate entries must match byte for
byte; it borrows the library's parameter-document dict, so it pins
only the netlist layout and the rendering.
"""

import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext


def lambert_w_m1_bisect(x, n_iter=220):
    """W_-1(x) by plain bisection of y*e^y = x over [-700, -1].

    Valid for x in [-1/e, 0).  220 halvings of a width-699 interval pin
    the root far below double spacing, so the midpoint is exact to ulp.
    """
    if not (-math.exp(-1.0) <= x < 0.0):
        raise ValueError(f"x={x!r} outside [-1/e, 0)")
    lo, hi = -700.0, -1.0

    def g(y):
        return y * math.exp(y) - x

    g_hi = g(hi)
    if g_hi == 0.0:
        return hi
    # g(lo) > 0 > g(hi) throughout the domain
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossing_time_bisect(func, level, t_lo, t_hi, n_iter=200):
    """Bisection crossing locator with a fixed iteration budget."""
    f_lo = func(t_lo) - level
    if f_lo == 0.0:
        return t_lo
    falling = f_lo > 0.0
    if (func(t_hi) - level > 0.0) == falling:
        raise ValueError("no crossing in window")
    for _ in range(n_iter):
        mid = 0.5 * (t_lo + t_hi)
        if mid == t_lo or mid == t_hi:
            break
        if (func(mid) - level > 0.0) == falling:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def exact_divider_gate(p):
    """The gate whose exact time-varying divider the constant divider is.

    A switch-on mode with gate resistance alpha_a/(t+delta) + alpha_f/t
    + R_s, behind series resistance r5, charges the load at
    (V - v) / (C * (r5 + R_g)).  The constant-divider law
    f * (V - v) / (C * R_g), f = R_s / (r5 + R_s), is that same equation
    with both alphas scaled by (r5 + R_s) / R_s.  R_s is 2*r for the NOR
    pull-up, 2*r_n and 2*r_p for the C gate's two stacks.  The
    constant-resistance modes need no change.
    """
    if hasattr(p, "r_n"):
        k_n = (p.r5 + 2.0 * p.r_n) / (2.0 * p.r_n)
        k_p = (p.r5 + 2.0 * p.r_p) / (2.0 * p.r_p)
        return replace(p, alpha1=p.alpha1 * k_n, alpha2=p.alpha2 * k_n,
                       alpha3=p.alpha3 * k_p, alpha4=p.alpha4 * k_p)
    k = (p.r5 + 2.0 * p.r) / (2.0 * p.r)
    return replace(p, alpha1=p.alpha1 * k, alpha2=p.alpha2 * k)


# Dormand-Prince 5(4) tableau, seven stage rows as the generic loop
# below reads them
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0, 0.0)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


def reference_integrate_ode(f, t0, t1, v0, rel=1e-10, abs_=1e-12,
                            attempts=None):
    """Adaptive Dormand-Prince 5(4) as a generic tableau loop.

    Returns the accepted (ts, vs, dvs) lists.  Step control is the
    library's for finite right-hand sides: mixed error criterion
    abs_ + rel * max(|v|, |v5|), FSAL, step factor
    min(5, max(0.2, 0.9 * ratio**-0.2)).  A NaN ratio grows the step 5x
    here; the library shrinks it 5x.  Raises
    RuntimeError("step underflow") below a 1e-18 step and
    RuntimeError("step budget") after a million steps.  A list passed
    as attempts receives (ratio, factor before the clamp) per step
    attempt.
    """
    ts, vs = [t0], [v0]
    k = [0.0] * 7
    k[0] = f(t0, v0)
    dvs = [k[0]]
    t, v = t0, v0
    h = (t1 - t0) / 64.0
    for _ in range(1_000_000):
        if t >= t1:
            return ts, vs, dvs
        h = min(h, t1 - t)
        if h < 1e-18:
            raise RuntimeError("step underflow")
        for i in range(1, 7):
            vi = v
            a_row = _DP_A[i]
            for j in range(i):
                if a_row[j] != 0.0:
                    vi += h * a_row[j] * k[j]
            k[i] = f(t + _DP_C[i] * h, vi)
        v5 = v
        err = 0.0
        for j in range(7):
            if _DP_B5[j] != 0.0:
                v5 += h * _DP_B5[j] * k[j]
            err += h * (_DP_B5[j] - _DP_B4[j]) * k[j]
        scale = abs_ + rel * max(abs(v), abs(v5))
        if scale <= 0.0:
            scale = abs_ if abs_ > 0.0 else 1e-300
        ratio = abs(err) / scale
        if ratio <= 1.0:
            t, v = t + h, v5
            ts.append(t)
            vs.append(v)
            k[0] = k[6]
            dvs.append(k[0])
        factor = 0.9 * (1.0 / ratio) ** 0.2 if ratio > 0.0 else 5.0
        if attempts is not None:
            attempts.append((ratio, factor))
        h *= min(5.0, max(0.2, factor))
    raise RuntimeError("step budget")


def reference_bisect_threshold_crossing(trajectory, level, t_lo, t_hi,
                                        tol=None):
    """Threshold bisection with the iteration budget and exits kept as
    they were: log2(width/tol) + 8 halvings, an exact zero returned at
    once, a stop on adjacent floats.  Raises the library's
    NoCrossingError; a width/tol past the float range raises
    OverflowError here.
    """
    from misdelay.numerics import NoCrossingError, Tolerance

    if tol is None:
        tol = Tolerance(abs=1e-16)
    if not (t_lo < t_hi):
        raise ValueError(f"invalid window [{t_lo!r}, {t_hi!r}]")
    if tol.abs <= 0.0:
        raise ValueError("bisect_threshold_crossing needs tol.abs > 0")
    g_lo = trajectory(t_lo) - level
    g_hi = trajectory(t_hi) - level
    if g_lo == 0.0:
        return t_lo
    if g_hi == 0.0:
        return t_hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise NoCrossingError(
            f"no crossing of level {level!r} in [{t_lo!r}, {t_hi!r}]")
    lo_positive = g_lo > 0.0
    for _ in range(int(math.log2(max((t_hi - t_lo) / tol.abs, 1.0))) + 8):
        if t_hi - t_lo <= tol.abs:
            break
        mid = 0.5 * (t_lo + t_hi)
        if mid <= t_lo or mid >= t_hi:
            break
        g_mid = trajectory(mid) - level
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == lo_positive:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def reference_solve_z(t_zero, t_first, t_second, c, z_lo):
    """Series resistance by evaluating g at every grid point, then scanning.

    The first grid zero, or the first adjacent pair whose g values
    differ in sign, decides the result; Brent refines the pair.  Raises
    the library's InvalidMeasurementsError with its messages.
    """
    from misdelay.characterize import (InvalidMeasurementsError,
                                       _a_from_extremal)
    from misdelay.numerics import find_root_bracketed

    r_min, r_max, n_grid = 1e-2, 1e9, 128

    def g(z):
        return (_a_from_extremal(t_zero, z, c)
                - _a_from_extremal(t_first, z, c)
                - _a_from_extremal(t_second, z, c))

    z_lo = max(z_lo, 2.0 * r_min)
    z_hi = min(t_zero, t_first, t_second) / (c * math.log(2.0)) * (1.0 - 1e-12)
    z_hi = min(z_hi, z_lo + 2.0 * r_max)
    if not z_lo < z_hi:
        raise InvalidMeasurementsError(
            ["extremal delays leave no admissible pull resistance"])
    ratio = z_hi / z_lo
    zs = [z_lo * ratio ** (i / (n_grid - 1)) for i in range(n_grid)]
    gs = [g(z) for z in zs]
    for i in range(n_grid - 1):
        if gs[i] == 0.0:
            return zs[i]
        if gs[i] * gs[i + 1] < 0.0:
            return find_root_bracketed(g, zs[i], zs[i + 1])
    if gs[-1] == 0.0:
        return zs[-1]
    raise InvalidMeasurementsError(
        ["rising extremal delays are mutually inconsistent: no series "
         "resistance makes the zero-separation transient the sum of "
         "the single-input ones"])


def reference_transient_scale(t, z, c, ln2):
    """Transient scale a whose switch-on crossing sits at t, as a Decimal.

    The crossing is t - a*ln(1 + t/a) = tau, tau = c*z*ln2, formed
    exactly from the given floats and solved at 40 digits.  With
    sigma = t/a and u = tau/t it reads ln(1 + sigma) = (1 - u)*sigma.
    The left side is concave, and ln(1 + s) <= s/sqrt(1 + s) puts the
    right side above it at sigma = u(2 - u)/(1 - u)**2, so Newton steps
    from there fall monotonically onto the root; they stop when
    rounding stops them falling.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        t = Decimal(t)
        u = Decimal(c) * Decimal(z) * Decimal(ln2) / t
        m = 1 - u
        sigma = u * (2 - u) / (m * m)
        for _ in range(200):
            f = (1 + sigma).ln() - m * sigma
            nxt = sigma - f / (1 / (1 + sigma) - m)
            if not nxt < sigma:
                break
            sigma = nxt
        return t / sigma


def reference_delay_by_ode(gate_kind, direction, delta, params,
                           exact_f=True):
    """ODE oracle delay integrated to 12x the inversion delay, then bisected.

    The window is the chained solution's own end.
    """
    from misdelay.gates import _pair_rising
    from misdelay.numerics import Tolerance, bisect_threshold_crossing
    from misdelay.trajectories import (_integrate_chain, _switch_on_kind,
                                       delay_by_inversion)

    inv_hint = delay_by_inversion(gate_kind, direction, delta, params)
    horizon = 12.0 * max(inv_hint - params.delta_min, 1e-15)
    sep = abs(delta)
    if gate_kind == "nor2" and direction == "falling":
        chain = ["00->10", "10->11"] if delta >= 0.0 else ["00->01", "01->11"]
        if math.isinf(sep):
            modes = [(chain[0], math.inf)]
        elif sep == 0.0:
            modes = [(chain[1], 0.0)]
        else:
            modes = [(chain[0], 0.0), (chain[1], sep)]
        t_end = (0.0 if math.isinf(sep) else sep) + horizon
    else:
        pair_rising = _pair_rising(params, direction == "rising")
        modes = [(_switch_on_kind(pair_rising, delta), sep)]
        t_end = horizon
    sol = _integrate_chain(modes, params, t_end, exact_f, None)
    start, seg = sol.segments[-1]
    t_cross = bisect_threshold_crossing(sol, 0.5, 0.0, start + seg.t1,
                                        Tolerance(abs=1e-17))
    return t_cross + params.delta_min


def _reference_vcd_id(i):
    chars = []
    while True:
        chars.append(chr(33 + i % 94))
        i //= 94
        if i == 0:
            return "".join(chars)


def reference_write_vcd(trace, initial):
    """VCD text by merging (fs, net index, value) tuples and sorting them.

    The sort is stable on (fs, index), so one net's changes within one
    femtosecond keep their trace order.
    """
    unknown = sorted(set(trace) - set(initial))
    if unknown:
        raise ValueError(f"trace nets missing from the net map: {unknown}")
    nets = sorted(initial)
    codes = {net: _reference_vcd_id(i) for i, net in enumerate(nets)}

    lines = ["$timescale 1 fs $end", "$scope module top $end"]
    for net in nets:
        lines.append(f"$var wire 1 {codes[net]} {net} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    lines.append("$dumpvars")
    for net in nets:
        value = initial[net]
        if value not in (0, 1):
            raise ValueError(f"net {net!r}: initial value must be 0 or 1")
        lines.append(f"{value}{codes[net]}")
    lines.append("$end")

    order = {net: i for i, net in enumerate(nets)}
    merged = []
    for net in nets:
        prev = -math.inf
        for t, value in trace.get(net, ()):
            if value not in (0, 1):
                raise ValueError(f"net {net!r}: change value must be 0 or 1")
            if t < prev:
                raise ValueError(f"net {net!r}: trace not time-ordered")
            prev = t
            merged.append((round(t * 1e15), order[net], value))
    merged.sort(key=lambda item: (item[0], item[1]))

    current_fs = None
    for fs, idx, value in merged:
        if fs != current_fs:
            lines.append(f"#{fs}")
            current_fs = fs
        lines.append(f"{value}{codes[nets[idx]]}")
    return "\n".join(lines) + "\n"


def reference_serialize_netlist(nl, library):
    """Netlist document as a dict per gate, rendered by json.dumps."""
    from misdelay.fileio import _params_to_doc

    gates = []
    for g in nl.gates:
        entry = {"id": g.id, "kind": g.kind}
        if g.inputs:
            entry["inputs"] = list(g.inputs)
        entry["output"] = g.output
        if g.params_ref:
            entry["params_ref"] = g.params_ref
        gates.append(entry)
    doc = {
        "gates": gates,
        "nets": {name: nl.nets[name] for name in sorted(nl.nets)},
    }
    if nl.stimuli:
        doc["stimuli"] = {
            sid: {"mu_s": s.mu, "sigma_s": s.sigma,
                  "n_transitions": s.n_transitions, "seed": s.seed}
            for sid, s in sorted(nl.stimuli.items())
        }
    if library:
        doc["params"] = {ref: _params_to_doc(library[ref])
                         for ref in sorted(library)}
    return json.dumps(doc, indent=2) + "\n"
