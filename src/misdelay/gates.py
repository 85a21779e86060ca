"""Closed-form gate delay families with input-separation dependence.

A 2-input gate hit by transitions on both inputs does not show a single
pair of up/down delays: the delay depends on the separation
``delta = t_b - t_a`` between the two input transitions (the Charlie
effect).  This module provides the piecewise closed forms for the four
delay families of a 2-input NOR gate and of a Muller C gate, their
single-input limits, and the breakpoints where the finite-separation
branch hands over to the clamped branch.

Sign convention: delta > 0 means input B switched after input A.
delta = +/-inf selects the single-input-switching limits directly.
All quantities are SI (seconds, ohms, farads); alpha parameters are
ohm-seconds.

A gate's tables, for both output directions, are built on the first
query of its parameter-set object and kept in one cache keyed by that
object's identity, which holds the last 512 sets still alive; a query
is then one lookup and a few flops.  An equal set built separately
builds its own.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from typing import Dict, NamedTuple, Tuple

from .numerics import DomainError, _branch_series, lambert_w_m1

__all__ = [
    "ParamError",
    "NorGateParams",
    "CGateParams",
    "EffectiveCaps",
    "ExtremalDelays",
    "Breakpoints",
    "DelayQuery",
    "effective_caps",
    "nor_extremal_rising",
    "nor_breakpoints",
    "nor_delay",
    "cgate_extremal",
    "cgate_breakpoints",
    "cgate_delay",
]

_LN2 = math.log(2.0)
_FLOAT_MAX = sys.float_info.max


class ParamError(ValueError):
    """Gate parameter set violates a validity constraint."""


def _is_real(value) -> bool:
    """A finite int or float; a bool is a flag, not a number.

    The range test compares an int exactly, so an int beyond the float
    range is rejected where math.isfinite would raise OverflowError.
    """
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def _is_int(value) -> bool:
    """An int; a bool is a flag, not an integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_time(name: str, value, nonnegative: bool = False) -> None:
    """ValueError unless a separation or time is a float, or an int in
    the float range, other than NaN (and with nonnegative, >= 0)."""
    if not (isinstance(value, float) or _is_real(value)):
        raise ValueError(f"{name} must be a float, got {value!r}")
    if nonnegative:
        if not value >= 0.0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif value != value:
        raise ValueError(f"{name} must not be NaN")


def _check_fields(params, positive: Tuple[str, ...]) -> None:
    """Raise ParamError naming the first field out of range; a message
    is formatted only for the check that fails."""
    for name in positive:
        value = getattr(params, name)
        if not (_is_real(value) and value > 0.0):
            raise ParamError(f"{name} must be finite and > 0, got {value!r}")
    for name in ("r5", "delta_min"):
        value = getattr(params, name)
        if not (_is_real(value) and value >= 0.0):
            raise ParamError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class NorGateParams:
    """First-order switched-resistor parameters of a 2-input NOR gate.

    r_n_a, r_n_b: on-resistances of the two pulldown transistors.
    r: common scale of the two pullup on-resistances (their series
       stack settles at 2r).
    alpha1, alpha2: switch-on transient coefficients of the pullups
       driven by input A and by input B respectively, whichever
       switches first.
    c_load: output load capacitance.
    r5: series interconnect resistance between gate and load.
    delta_min: pure interconnect transport delay, added to every delay.
    """

    r_n_a: float
    r_n_b: float
    r: float
    alpha1: float
    alpha2: float
    c_load: float
    r5: float = 0.0
    delta_min: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self, ("r_n_a", "r_n_b", "r", "alpha1", "alpha2",
                             "c_load"))


@dataclass(frozen=True)
class CGateParams:
    """First-order switched-resistor parameters of a Muller C gate.

    r_n, r_p: per-transistor on-resistances of the pulldown and pullup
       stacks (each stack settles at twice its value).
    alpha1, alpha2: switch-on transients engaged by a rising input
       pair, of input A's and input B's transistor respectively,
       whichever switches first.
    alpha4, alpha3: same for a falling input pair (alpha4 is A's).
    inverted: True if the stored output is the negated consensus; this
       only affects which delay family a given output direction maps to.
    """

    r_n: float
    r_p: float
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    c_load: float
    r5: float = 0.0
    delta_min: float = 0.0
    inverted: bool = False

    def __post_init__(self) -> None:
        _check_fields(self, ("r_n", "r_p", "alpha1", "alpha2", "alpha3",
                             "alpha4", "c_load"))
        if not isinstance(self.inverted, bool):
            raise ParamError(f"inverted must be a bool, got {self.inverted!r}")


class EffectiveCaps(NamedTuple):
    """Mode-dependent effective load capacitances of a NOR gate.

    The series interconnect resistance is folded into the load by a
    constant voltage-divider factor per conduction mode: c1/c1_prime
    for single pulldown A/B, c2 for both pulldowns, c3 for the pullup
    stack.  The fold is exact.  The pulldown modes have constant
    resistance.  The pullup's switch-on mode behaves as the
    time-varying divider of a gate whose alpha1, alpha2 are
    (r5 + 2r)/(2r) times larger.
    """

    c1: float
    c1_prime: float
    c2: float
    c3: float


class ExtremalDelays(NamedTuple):
    """Delays of one family at delta = 0, +inf and -inf (no transport term)."""

    d0: float
    d_inf: float
    d_minus_inf: float


class Breakpoints(NamedTuple):
    """|delta| values where each NOR family reaches its clamped branch."""

    down_plus: float
    down_minus: float
    up_plus: float
    up_minus: float


_DIRECTIONS = ("rising", "falling")


def _is_rising(name: str, direction) -> bool:
    """Whether direction is "rising"; ValueError unless it is a direction."""
    if direction not in _DIRECTIONS:
        raise ValueError(
            f"{name} must be one of {_DIRECTIONS}, got {direction!r}")
    return direction == "rising"


@dataclass(frozen=True)
class DelayQuery:
    """One delay lookup: output transition direction and input separation."""

    output_direction: str
    delta: float

    def __post_init__(self) -> None:
        # hot path: a direction and a plain float not NaN make no call
        if self.output_direction not in _DIRECTIONS:
            _is_rising("output_direction", self.output_direction)
        delta = self.delta
        if type(delta) is not float or delta != delta:
            _check_time("delta", delta)


def effective_caps(p: NorGateParams) -> EffectiveCaps:
    """Constant-divider effective capacitances for the four NOR modes.

    DomainError where r_n_a * r_n_b underflows to 0 or a capacitance
    is not positive (it underflows, or an overflowing field makes it
    NaN): the first divides here, the capacitances divide in the delay
    tables.  Every other divisor here is a positive field or twice one.
    """
    c, r5, ra, rb = p.c_load, p.r5, p.r_n_a, p.r_n_b
    rab = ra * rb
    if rab == 0.0:
        raise DomainError(
            f"r_n_a * r_n_b underflows to 0 ({ra!r} * {rb!r} ohm**2)")
    caps = EffectiveCaps(
        c1=c * (r5 + ra) / ra,
        c1_prime=c * (r5 + rb) / rb,
        c2=c * (r5 * (ra + rb) + rab) / rab,
        c3=c * (r5 + 2.0 * p.r) / (2.0 * p.r),
    )
    if not all(cap > 0.0 for cap in caps):
        raise DomainError(f"an effective capacitance is not positive: {caps}")
    return caps


def _extremal_delay(alpha_sum: float, r: float, r5: float, c: float) -> float:
    """Threshold-crossing time of the switch-on transient pullup mode.

    Solves the crossing of the rising trajectory driven through two
    series transistors of half-resistance r with combined transient
    coefficient alpha_sum, against load c behind interconnect r5.
    """
    q = 2.0 * r * c * (r5 + 2.0 * r) / alpha_sum
    e = q * _LN2
    if e < 1e-4:
        # forming -exp(-1-e) and taking W of it loses e to rounding;
        # expand 1+W about the branch point from e directly instead
        p = math.sqrt(-2.0 * math.expm1(-e))
        return (alpha_sum / (2.0 * r)) * p * _branch_series(p)
    arg = -math.exp(-1.0 - e)
    if arg == 0.0:
        raise DomainError(
            "switch-on transient is negligible against the RC constant "
            f"(exponent {e:.3g}); the crossing-time argument underflows")
    w = lambert_w_m1(arg)
    return -(alpha_sum / (2.0 * r)) * (1.0 + w)


# gate kind, as netlists and parameter documents name it -> parameter class
_KIND_CLASSES = {"nor2": NorGateParams, "cgate": CGateParams}


def _kind_of(params) -> str:
    """The gate kind of a parameter set; TypeError for anything else."""
    for kind, cls in _KIND_CLASSES.items():
        if isinstance(params, cls):
            return kind
    raise TypeError(f"expected gate params, got {type(params).__name__}")


def _pair_rising(p: NorGateParams | CGateParams, rising: bool) -> bool:
    """Whether the input pair driving a rising (or falling) output rises."""
    # a NOR output rises on a falling pair, as an inverted C gate's does
    return rising != (isinstance(p, NorGateParams) or p.inverted)


def _switch_on_pair(p: NorGateParams | CGateParams, pair_rising: bool
                    ) -> Tuple[float, float, float]:
    """(alpha_a, alpha_b, r) of the switch-on stack an input pair engages.

    alpha_a and alpha_b are the transient coefficients of input A's and
    input B's transistor, whichever switches first; r is the
    per-transistor on-resistance.  A NOR has one such stack, its
    pullup, engaged by a falling pair.
    """
    if isinstance(p, NorGateParams):
        return p.alpha1, p.alpha2, p.r
    if pair_rising:
        # rising input pair drives the nMOS stack
        return p.alpha1, p.alpha2, p.r_n
    # falling input pair drives the pMOS stack, A's transistor carrying
    # alpha4 and B's alpha3
    return p.alpha4, p.alpha3, p.r_p


class _Family(NamedTuple):
    # one delay family, precomputed so the hot path is a few flops; the
    # falling NOR family's fields are described in _build_families
    dmin: float
    d0: float
    d_inf: float
    d_minus_inf: float
    slope_pos: float    # alpha_a / (alpha_a + alpha_b)
    slope_neg: float
    bp_plus: float      # reported breakpoints: where the delay clamps
    bp_minus: float
    # MIS length scale (d0 - d(+-inf)) / slope; today the clamp sits there
    bp0_plus: float
    bp0_minus: float


def _family(alpha_a: float, alpha_b: float, r: float, r5: float, c: float,
            dmin: float) -> _Family:
    asum = alpha_a + alpha_b
    d0 = _extremal_delay(asum, r, r5, c)
    d_inf = _extremal_delay(alpha_b, r, r5, c)
    d_minus_inf = _extremal_delay(alpha_a, r, r5, c)
    bp0_plus = asum * (d0 - d_inf) / alpha_a
    bp0_minus = asum * (d0 - d_minus_inf) / alpha_b
    return _Family(
        dmin=dmin,
        d0=d0,
        d_inf=d_inf,
        d_minus_inf=d_minus_inf,
        slope_pos=alpha_a / asum,
        slope_neg=alpha_b / asum,
        bp_plus=bp0_plus,
        bp_minus=bp0_minus,
        bp0_plus=bp0_plus,
        bp0_minus=bp0_minus,
    )


def _family_delay(fam: _Family, delta: float) -> float:
    if delta >= 0.0:
        if delta >= fam.bp_plus:
            return fam.d_inf + fam.dmin
        return fam.d0 - fam.slope_pos * delta + fam.dmin
    mag = -delta
    if mag >= fam.bp_minus:
        return fam.d_minus_inf + fam.dmin
    return fam.d0 - fam.slope_neg * mag + fam.dmin


def _nor_fall_delay(fam: _Family, delta: float) -> float:
    if delta >= 0.0:
        if delta >= fam.bp_plus:
            return fam.d_inf + fam.dmin
        return fam.d0 - fam.slope_pos * delta + delta + fam.dmin
    mag = -delta
    if mag >= fam.bp_minus:
        return fam.d_minus_inf + fam.dmin
    return fam.d0 - fam.slope_neg * mag + mag + fam.dmin


def _build_families(p: NorGateParams | CGateParams):
    """((evaluate, table) of the family driving a falling output, that
    of a rising output); evaluate(table, delta) is the delay.  TypeError
    for anything but a gate parameter set; DomainError where a table
    field is not finite, as for a field near either end of the float
    range, so that no query can return NaN or inf."""
    if _kind_of(p) == "cgate":
        families = tuple(
            (_family_delay, _family(*_switch_on_pair(p, _pair_rising(p, r)),
                                    p.r5, p.c_load, p.delta_min))
            for r in (False, True))
    else:
        caps = effective_caps(p)
        ra, rb = p.r_n_a, p.r_n_b
        # the falling family: its single-input limits d(+-inf) are also
        # its breakpoints and its MIS length bp0, and its slopes are the
        # fall fractions; _nor_fall_delay evaluates it
        bp_plus, bp_minus = _LN2 * caps.c1 * ra, _LN2 * caps.c1_prime * rb
        fall = _Family(
            dmin=p.delta_min, d0=_LN2 * caps.c2 * ra * rb / (ra + rb),
            d_inf=bp_plus, d_minus_inf=bp_minus,
            slope_pos=caps.c2 * rb / (caps.c1 * (ra + rb)),
            slope_neg=caps.c2 * ra / (caps.c1_prime * (ra + rb)),
            bp_plus=bp_plus, bp_minus=bp_minus, bp0_plus=bp_plus,
            bp0_minus=bp_minus)
        families = ((_nor_fall_delay, fall),
                    (_family_delay, _family(*_switch_on_pair(p, False), p.r5,
                                            p.c_load, p.delta_min)))
    for _, table in families:
        if not all(map(math.isfinite, table)):
            raise DomainError(
                f"parameters give a delay table that is not finite: {table}")
    return families


_TABLE_CACHE_SIZE = 512
# id(params) -> (weak reference to params, _build_families(params)),
# oldest first.  Keying on identity spares a query the hash of every
# field that an equality key costs.  An entry answers only for the
# object it refers to; the reference drops the entry when that object
# dies, before its id can be reused, so a set built afresh for each run
# leaves no copies behind.
_tables: Dict[int, tuple] = {}


def _output_families(p: NorGateParams | CGateParams):
    """p's families by output level: [rising] is the (evaluate, table)
    pair of the family driving a rising (True) or falling output.  A
    miss builds them, evicting the oldest entry past _TABLE_CACHE_SIZE."""
    entry = _tables.get(id(p))
    if entry is None or entry[0]() is not p:
        families = _build_families(p)
        if len(_tables) >= _TABLE_CACHE_SIZE:
            del _tables[next(iter(_tables))]
        key = id(p)
        entry = _tables[key] = (
            weakref.ref(p, lambda _: _tables.pop(key, None)), families)
    return entry[1]


def _nor_family(p: NorGateParams, rising: bool) -> _Family:
    """The family driving a rising (or falling) NOR output."""
    if not isinstance(p, NorGateParams):
        raise TypeError(f"expected NorGateParams, got {type(p).__name__}")
    return _output_families(p)[rising][1]


def _cgate_family(p: CGateParams, pair_rising: bool) -> _Family:
    """The family a rising (or falling) input pair of a C gate drives."""
    if not isinstance(p, CGateParams):
        raise TypeError(f"expected CGateParams, got {type(p).__name__}")
    return _output_families(p)[pair_rising != p.inverted][1]


def nor_extremal_rising(p: NorGateParams) -> ExtremalDelays:
    """Rising-output delays at delta = 0 and in the two one-sided limits.

    The transport term delta_min is not included.
    """
    fam = _nor_family(p, True)
    return ExtremalDelays(fam.d0, fam.d_inf, fam.d_minus_inf)


def nor_breakpoints(p: NorGateParams) -> Breakpoints:
    """|delta| beyond which each family sits on its single-input branch."""
    fall, rise = _nor_family(p, False), _nor_family(p, True)
    return Breakpoints(fall.bp_plus, fall.bp_minus, rise.bp_plus,
                       rise.bp_minus)


def nor_delay(p: NorGateParams, q: DelayQuery) -> float:
    """Delay of a NOR output transition for input separation q.delta.

    Falling outputs are referenced to the first rising input, rising
    outputs to the second falling input.  The result includes the
    interconnect transport delay delta_min.
    """
    # _output_families written out: a query is one lookup and the flops
    entry = _tables.get(id(p))
    families = (entry[1] if entry is not None and entry[0]() is p
                else _output_families(p))
    evaluate, table = families[q.output_direction == "rising"]
    return evaluate(table, q.delta)


def cgate_extremal(p: CGateParams, input_direction: str) -> ExtremalDelays:
    """C gate family extremals for a rising or falling input pair.

    The transport term delta_min is not included.
    """
    fam = _cgate_family(p, _is_rising("input_direction", input_direction))
    return ExtremalDelays(fam.d0, fam.d_inf, fam.d_minus_inf)


def cgate_breakpoints(p: CGateParams, input_direction: str) -> Tuple[float, float]:
    """(plus, minus) |delta| values where this input pair's family clamps."""
    fam = _cgate_family(p, _is_rising("input_direction", input_direction))
    return fam.bp_plus, fam.bp_minus


def cgate_delay(p: CGateParams, q: DelayQuery) -> float:
    """Delay of a C gate output transition for input separation q.delta.

    The query names the output direction; with inverted=True a rising
    output is produced by a falling input pair and vice versa.  Delays
    are referenced to the second input transition and include
    delta_min.
    """
    entry = _tables.get(id(p))
    families = (entry[1] if entry is not None and entry[0]() is p
                else _output_families(p))
    evaluate, table = families[q.output_direction == "rising"]
    return evaluate(table, q.delta)
