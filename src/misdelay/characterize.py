"""Parameter extraction from measured extremal delays.

Six delays pin down one gate: falling- and rising-output delays at
input separations 0, +inf and -inf.  Delays only constrain R*C
products, so the caller fixes the load capacitance and every
resistance and transient coefficient is referred to that choice.
The exponential (falling NOR) family inverts in closed form; the
switch-on transient families need a one-dimensional root solve for
the series resistance seen by the recharge path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, List

from .gates import (_KIND_CLASSES, _LN2, CGateParams, NorGateParams,
                    ParamError, _is_real)
from .numerics import DomainError, _gap_root, find_root_bracketed

# search window for the pull resistance; outside this range the gate is
# not a gate worth modelling
_R_MIN = 1e-2
_R_MAX = 1e9
_GRID = 128
# 1/17, ..., 1/2: the terms of the gap series past u**17 are below
# rounding for u < 0.1
_GAP_SERIES = tuple(1.0 / k for k in range(17, 1, -1))

_DELAY_FIELDS = (
    "d_down_minus_inf", "d_down_zero", "d_down_inf",
    "d_up_minus_inf", "d_up_zero", "d_up_inf",
)


class InvalidMeasurementsError(ValueError):
    """The measured delays cannot come from any gate of the assumed kind.

    `problems` lists every violated requirement, not just the first.
    """

    def __init__(self, problems: Iterable[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class MeasuredDelays:
    """Extremal delays of one gate.

    All delays include the fixed offset `delta_min`.  `c_chosen` is the
    load capacitance the extracted parameters are referred to.
    """

    d_down_minus_inf: float
    d_down_zero: float
    d_down_inf: float
    d_up_minus_inf: float
    d_up_zero: float
    d_up_inf: float
    delta_min: float
    c_chosen: float


def _is_pos(value) -> bool:
    return _is_real(value) and value > 0.0


def validate_measured(m: MeasuredDelays, kind: str) -> None:
    """Check a measurement set for structural consistency.

    Raises InvalidMeasurementsError listing every violation found;
    ordering checks are skipped for fields that already failed the
    structural ones.  Anything but a MeasuredDelays is a TypeError.
    """
    if not isinstance(m, MeasuredDelays):
        raise TypeError(f"expected MeasuredDelays, got {type(m).__name__}")
    if kind not in _KIND_CLASSES:
        raise ValueError(f"unknown gate kind {kind!r}")
    problems: List[str] = []
    for name in _DELAY_FIELDS:
        if not _is_pos(getattr(m, name)):
            problems.append(f"{name} must be a finite positive delay, "
                            f"got {getattr(m, name)!r}")
    dm_ok = _is_real(m.delta_min) and m.delta_min >= 0.0
    if not dm_ok:
        problems.append(f"delta_min must be finite and non-negative, "
                        f"got {m.delta_min!r}")
    if not _is_pos(m.c_chosen):
        problems.append(f"c_chosen must be a finite positive capacitance, "
                        f"got {m.c_chosen!r}")

    def clean(*names: str) -> bool:
        return all(_is_pos(getattr(m, n)) for n in names)

    if dm_ok:
        for name in _DELAY_FIELDS:
            if clean(name) and getattr(m, name) <= m.delta_min:
                problems.append(f"{name} must exceed delta_min")

    # rising-output delays peak at zero separation for both gate kinds
    for name in ("d_up_inf", "d_up_minus_inf"):
        if clean("d_up_zero", name) and getattr(m, name) >= m.d_up_zero:
            problems.append(f"d_up_zero must exceed {name}")
    if kind == "nor2":
        # both pull-downs acting together is the fastest discharge
        for name in ("d_down_inf", "d_down_minus_inf"):
            if clean("d_down_zero", name) and getattr(m, name) <= m.d_down_zero:
                problems.append(f"{name} must exceed d_down_zero")
    else:
        for name in ("d_down_inf", "d_down_minus_inf"):
            if clean("d_down_zero", name) and getattr(m, name) >= m.d_down_zero:
                problems.append(f"d_down_zero must exceed {name}")
    if problems:
        raise InvalidMeasurementsError(problems)


def _a_from_extremal(t: float, z: float, c: float) -> float:
    """Transient scale a = alpha/(2R) whose extremal crossing sits at t.

    z is the total series resistance of the recharge path.  The delay
    can never fall below the pure-RC bound tau = c*z*ln2, so t at or
    under it has no preimage.  The crossing t - a*log1p(t/a) = tau
    holds at a = (t - tau)/(y + u), where u = tau/t and y > 0 closes
    the branch gap y - log1p(y) = -u - log1p(-u).
    """
    tau = c * z * _LN2
    if not t > tau:
        raise DomainError(
            f"delay {t:.6g} s is at or below the pure-RC bound {tau:.6g} s")
    u = tau / t
    if u < 0.1:
        # u and log1p(-u) cancel; sum the gap's positive series
        # u**2/2 + u**3/3 + ... to rounding instead
        s = 0.0
        for k in _GAP_SERIES:
            s = k + u * s
        gap = u * u * s
    else:
        gap = -u - math.log1p(-u)
    return (t - tau) / (_gap_root(gap) + u)


# A C gate's two series totals do not depend on r5_choice, so refitting
# one measurement at another convention finds both here.  Two entries
# keep only the latest measurement's pair.  Callers pass z_lo by
# keyword, so equal inputs always share one key.
@functools.lru_cache(maxsize=2, typed=True)
def _solve_z(t_zero: float, t_first: float, t_second: float, c: float,
             z_lo: float) -> float:
    """Series resistance consistent with the three rising extremals.

    At zero separation both transients act and their scales add, so the
    correct z zeroes a(t_zero) - a(t_first) - a(t_second).
    """

    # each z is evaluated once per solve: Brent starts from the bracket
    # ends that the index bisection already evaluated
    @functools.cache
    def g(z: float) -> float:
        return (_a_from_extremal(t_zero, z, c)
                - _a_from_extremal(t_first, z, c)
                - _a_from_extremal(t_second, z, c))

    z_lo = max(z_lo, 2.0 * _R_MIN)
    z_hi = min(t_zero, t_first, t_second) / (c * _LN2) * (1.0 - 1e-12)
    z_hi = min(z_hi, z_lo + 2.0 * _R_MAX)
    if not z_lo < z_hi:
        raise InvalidMeasurementsError(
            ["extremal delays leave no admissible pull resistance"])
    # g can approach either sign limit at the low end, so the bracket
    # comes from a fixed log grid instead of the endpoints.  Where g
    # changes sign once on the grid (every fixture and every sampled
    # gate in the model's ranges), the grid's ends differ in sign and
    # bisecting the indices finds the adjacent pair that a scan up from
    # the low end finds: 9 evaluations instead of 128, and the same
    # root to the bit.  Ends of one sign bracket no root, or an even
    # number of them, and no single z can be trusted.
    ratio = z_hi / z_lo

    def z_at(i: int) -> float:
        return z_lo * ratio ** (i / (_GRID - 1))

    lo, hi = 0, _GRID - 1
    g_lo = g(z_at(lo))
    g_hi = g(z_at(hi))
    if g_lo * g_hi > 0.0:
        raise InvalidMeasurementsError(
            ["rising extremal delays are mutually inconsistent: no series "
             "resistance makes the zero-separation transient the sum of "
             "the single-input ones"])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g_mid = g(z_at(mid))
        if g_mid * g_lo > 0.0:
            lo = mid
        else:
            hi = mid
    # a grid zero ends up at lo (index 0) or hi, and Brent returns an
    # end where g is exactly 0
    return find_root_bracketed(g, z_at(lo), z_at(hi))


def _offsets(m: MeasuredDelays):
    """The six delays less delta_min, in _DELAY_FIELDS order."""
    return tuple(getattr(m, name) - m.delta_min for name in _DELAY_FIELDS)


def _fit_pair(z: float, r5: float, t_minus_inf: float, t_inf: float,
              c: float):
    """(alpha_a, alpha_b, r) of the switch-on stack whose recharge path
    totals z and whose one-sided extremals are t_minus_inf and t_inf;
    the inverse of gates._family."""
    r = (z - r5) / 2.0
    return (2.0 * r * _a_from_extremal(t_minus_inf, z, c),
            2.0 * r * _a_from_extremal(t_inf, z, c), r)


def characterize_nor(m: MeasuredDelays) -> NorGateParams:
    """Extract NOR gate parameters from its six extremal delays."""
    validate_measured(m, "nor2")
    t_dm, t_d0, t_di, t_um, t_u0, t_ui = _offsets(m)
    ln2c = _LN2 * m.c_chosen

    eps = math.sqrt((t_di - t_d0) * (t_dm - t_d0))
    r5 = (t_d0 - eps) / ln2c
    if r5 < 0.0:
        if r5 > -1e-9 * t_d0 / ln2c:
            r5 = 0.0
        else:
            raise InvalidMeasurementsError(
                ["falling delays imply a negative interconnect resistance"])
    r_n_a = (t_di - t_d0 + eps) / ln2c
    r_n_b = (t_dm - t_d0 + eps) / ln2c

    z = _solve_z(t_u0, t_ui, t_um, m.c_chosen, z_lo=r5 + 2.0 * _R_MIN)
    alpha1, alpha2, r = _fit_pair(z, r5, t_um, t_ui, m.c_chosen)
    return NorGateParams(r_n_a=r_n_a, r_n_b=r_n_b, r=r,
                         alpha1=alpha1, alpha2=alpha2,
                         c_load=m.c_chosen, r5=r5, delta_min=m.delta_min)


def characterize_cgate(m: MeasuredDelays, r5_choice: float = 0.0,
                       inverted: bool = False) -> CGateParams:
    """Extract C gate parameters from its six extremal delays.

    Delays only determine the series totals r5 + 2*r_n and r5 + 2*r_p,
    so the interconnect share is a free convention: any r5_choice in
    [0, min of the two totals) yields the same delay model.  Refitting
    the same measurement at another r5_choice reuses its two totals
    instead of solving them again; only the latest measurement's totals
    are kept.
    """
    validate_measured(m, "cgate")
    if not (_is_real(r5_choice) and r5_choice >= 0.0):
        raise ParamError(f"r5_choice must be finite and non-negative, "
                         f"got {r5_choice!r}")
    if not isinstance(inverted, bool):
        raise ParamError(f"inverted must be a bool, got {inverted!r}")
    t_dm, t_d0, t_di, t_um, t_u0, t_ui = _offsets(m)
    if inverted:
        # an inverting stage drives its output up through the p-side
        # pair when the inputs fall, so the measured families swap
        (t_u0, t_ui, t_um), (t_d0, t_di, t_dm) = \
            (t_d0, t_di, t_dm), (t_u0, t_ui, t_um)

    x = _solve_z(t_u0, t_ui, t_um, m.c_chosen, z_lo=2.0 * _R_MIN)
    y = _solve_z(t_d0, t_di, t_dm, m.c_chosen, z_lo=2.0 * _R_MIN)
    if not r5_choice < min(x, y):
        raise ParamError(
            f"r5_choice must stay below {min(x, y):.6g} ohm, the smaller "
            f"of the two series totals")
    # the falling pair's first input, A, carries alpha4 (gates._switch_on_pair)
    alpha1, alpha2, r_n = _fit_pair(x, r5_choice, t_um, t_ui, m.c_chosen)
    alpha4, alpha3, r_p = _fit_pair(y, r5_choice, t_dm, t_di, m.c_chosen)
    return CGateParams(r_n=r_n, r_p=r_p,
                       alpha1=alpha1, alpha2=alpha2,
                       alpha3=alpha3, alpha4=alpha4,
                       c_load=m.c_chosen, r5=float(r5_choice),
                       delta_min=m.delta_min, inverted=inverted)
