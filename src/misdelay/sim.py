"""Event-driven timing simulation of NOR / C-element netlists.

Output transitions are scheduled through the separation-dependent delay
families, so a second input transition arriving while an output event
is pending revises that event: the delay is referenced to the first
transition of the pair, and the revised crossing can move either way.
Input reversal before the output fires cancels the pending event
outright; glitch shaping is out of scope.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass, field
from itertools import count, cycle, repeat
from typing import Dict, List, Optional, Tuple

from .gates import (_FLOAT_MAX, _KIND_CLASSES, _check_time, _is_int,
                    _is_real, _output_families)

GATE_KINDS = (*_KIND_CLASSES, "input_source")

# scheduling below this slack of the causal bound is a model error, but
# an ulp of drift from reassembling the same sum is not
_CAUSALITY_SLACK = 1e-18

_STIMULUS_GAP_FLOOR = 1e-12

# the level each input pair drives a NOR output to, indexed [a][b]
_NOR_LOGIC = ((1, 0), (0, 0))


class NetlistError(ValueError):
    """Structural problem in a netlist; lists every violation found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class CausalityError(RuntimeError):
    """A computed output time precedes its triggering input plus delta_min."""


class LivelockError(RuntimeError):
    """Event count exceeded the configured cap."""


@dataclass(frozen=True, init=False)
class SimEvent:
    """One stimulus transition: net goes to value (0 or 1) at time (s);
    seq is its index in the pulse train."""

    time: float
    net: str
    value: int
    seq: int

    def __init__(self, time: float, net: str, value: int, seq: int) -> None:
        # see Gate.__init__
        fields = self.__dict__
        fields["time"] = time
        fields["net"] = net
        fields["value"] = value
        fields["seq"] = seq


@dataclass(frozen=True)
class StimulusSpec:
    """Pulse-train description for one input source."""
    mu: float
    sigma: float
    n_transitions: int
    seed: int


@dataclass(frozen=True, init=False)
class Gate:
    """One netlist element.

    kind is one of GATE_KINDS.  A nor2 or cgate reads exactly two input
    nets and names its parameter set in the run's library through
    params_ref; an input_source has no inputs and drives output with
    the Netlist stimulus keyed by its id.
    """

    id: str
    kind: str
    inputs: Tuple[str, ...]
    output: str
    params_ref: str = ""

    def __init__(self, id: str, kind: str, inputs: Tuple[str, ...],
                 output: str, params_ref: str = "") -> None:
        # the generated __init__ of a frozen dataclass makes one
        # object.__setattr__ call per field; filling the instance dict
        # in field order costs about half of that and keeps its keys
        # shared
        fields = self.__dict__
        fields["id"] = id
        fields["kind"] = kind
        fields["inputs"] = inputs
        fields["output"] = output
        fields["params_ref"] = params_ref


@dataclass
class Netlist:
    """Gates, every net with its initial value (0 or 1), and the pulse
    train of each input source keyed by gate id."""

    gates: Tuple[Gate, ...]
    nets: Dict[str, int]
    stimuli: Dict[str, StimulusSpec] = field(default_factory=dict)


@dataclass
class SimStats:
    """Counts of one run: every net change, and the changes per net.

    wall_clock_s is the host time the run took; unlike the counts it is
    not deterministic.
    """

    events: int
    transitions: Dict[str, int]
    wall_clock_s: float


@dataclass
class SimResult:
    """What run() returns.

    changes holds every net change as (time, net, value) in the (time,
    seq) order events were processed; trace splits them per net as
    (time, value) lists, every declared net present.
    """

    trace: Dict[str, List[Tuple[float, int]]]
    changes: Tuple[Tuple[float, str, int], ...]
    stats: SimStats


# 64-bit generator with a documented, platform-independent stream:
# xoshiro256** seeded through splitmix64.

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int):
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """Deterministic 64-bit RNG; identical streams on every platform."""

    def __init__(self, seed: int):
        if not _is_int(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        gen = _splitmix64(seed & _MASK64)
        self._s = [next(gen) for _ in range(4)]
        self._gauss_spare: Optional[float] = None

    def next_u64(self) -> int:
        s = self._s
        s0, s1, s2, s3 = s
        x = s1 * 5 & _MASK64
        s2 ^= s0
        s3 ^= s1
        s[0] = s0 ^ s3
        s[1] = s1 ^ s2
        s[2] = s2 ^ (s1 << 17 & _MASK64)
        s[3] = (s3 << 45 | s3 >> 19) & _MASK64  # rotate left by 45
        return (x << 7 | x >> 57) * 9 & _MASK64  # 9 * (x rotated by 7)

    def uniform(self) -> float:
        """Uniform on (0, 1]; never zero, so log() is always safe."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def gauss(self) -> float:
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
            return z
        radius = math.sqrt(-2.0 * math.log(self.uniform()))
        theta = 2.0 * math.pi * self.uniform()
        self._gauss_spare = radius * math.sin(theta)
        return radius * math.cos(theta)


def _stimulus_problems(mu, sigma, n, seed) -> List[str]:
    """Why generate_stimulus cannot draw this train; empty if it can."""
    problems = []
    if not (_is_real(mu) and mu > 0.0):
        problems.append(f"mu must be a finite positive time, got {mu!r}")
    if not (_is_real(sigma) and sigma >= 0.0):
        problems.append(f"sigma must be finite and non-negative, got {sigma!r}")
    if not (_is_int(n) and n >= 1):
        problems.append(f"n must be a positive count, got {n!r}")
    if not _is_int(seed):
        problems.append(f"seed must be an integer, got {seed!r}")
    return problems


def generate_stimulus(mu: float, sigma: float, n: int, seed: int,
                      net: str = "input", start_value: int = 0) -> List[SimEvent]:
    """Alternating pulse train with Normal(mu, sigma) gaps.

    Gaps are truncated below at 1 ps; with sigma = 0 the transitions
    land on exact multiples of mu.  Deterministic for a fixed seed.
    """
    problems = _stimulus_problems(mu, sigma, n, seed)
    if not _is_bit(start_value):
        problems.append(f"start_value must be 0 or 1, got {start_value!r}")
    if problems:
        raise ValueError("; ".join(problems))
    if sigma == 0.0:
        times = [(i + 1) * mu for i in range(n)]
    else:
        gauss = Xoshiro256StarStar(seed).gauss
        times = []
        t = 0.0
        for _ in range(n):
            gap = mu + sigma * gauss()  # floored below as max() would
            t += _STIMULUS_GAP_FLOOR if _STIMULUS_GAP_FLOOR > gap else gap
            times.append(t)
    # times never decrease, so a train that overflows ends past the
    # float range (inf, or an int beyond it when mu is an int)
    if not times[-1] <= _FLOAT_MAX:
        first = next(i for i, t in enumerate(times) if not t <= _FLOAT_MAX)
        raise ValueError(
            f"the train overflows the time range: transition {first + 1} "
            f"of {n} lands at {times[first]!r} (mu={mu!r}, "
            f"sigma={sigma!r})")
    return list(map(SimEvent, times, repeat(net),
                    cycle((1 - start_value, start_value)), count()))


def _is_bit(value) -> bool:
    """The int 0 or 1; a bool or a float is no net value."""
    return type(value) is int and value in (0, 1)


def _is_net_name(name) -> bool:
    return isinstance(name, str) and name != "" and not any(
        ch.isspace() for ch in name)


def validate_netlist(nl: Netlist) -> None:
    """Structural checks; raises NetlistError listing every violation."""
    problems: List[str] = []
    seen_ids = set()
    drivers: Dict[str, str] = {}
    for g in nl.gates:
        if not isinstance(g.id, str) or not g.id:
            problems.append(f"gate id {g.id!r} is not a usable identifier")
            continue
        if g.id in seen_ids:
            problems.append(f"duplicate gate id {g.id!r}")
        seen_ids.add(g.id)
        if g.kind not in GATE_KINDS:
            problems.append(f"gate {g.id}: unknown kind {g.kind!r}")
            continue
        if not _is_net_name(g.output):
            problems.append(f"gate {g.id}: bad output net {g.output!r}")
        elif g.output not in nl.nets:
            problems.append(f"gate {g.id}: output net {g.output!r} not declared")
        if g.output in drivers:
            problems.append(f"net {g.output!r} driven by both "
                            f"{drivers[g.output]!r} and {g.id!r}")
        else:
            drivers[g.output] = g.id
        if g.kind == "input_source":
            if g.inputs:
                problems.append(f"source {g.id} must not have inputs")
        else:
            if len(g.inputs) != 2:
                problems.append(f"gate {g.id} needs exactly two inputs")
            else:
                for net in g.inputs:
                    if not _is_net_name(net):
                        problems.append(f"gate {g.id}: bad input net {net!r}")
                    elif net not in nl.nets:
                        problems.append(f"gate {g.id}: input net {net!r} "
                                        f"not declared")
            if not g.params_ref:
                problems.append(f"gate {g.id} has no parameter reference")
    for net, value in nl.nets.items():
        if not _is_net_name(net):
            problems.append(f"bad net name {net!r}")
        if not _is_bit(value):
            problems.append(f"net {net!r}: initial value must be 0 or 1, "
                            f"got {value!r}")
        if net not in drivers:
            problems.append(f"net {net!r} has no driver")
    for g in nl.gates:
        # initial output must agree with the steady response to the
        # initial inputs; the C element is checked at run time because
        # its polarity lives in the parameter set
        if g.kind == "nor2" and len(g.inputs) == 2 \
                and all(n in nl.nets for n in (*g.inputs, g.output)):
            a0, b0 = nl.nets[g.inputs[0]], nl.nets[g.inputs[1]]
            if _is_bit(a0) and _is_bit(b0) \
                    and nl.nets[g.output] != _NOR_LOGIC[a0][b0]:
                problems.append(f"gate {g.id}: initial output "
                                f"{nl.nets[g.output]} inconsistent with "
                                f"initial inputs ({a0}, {b0})")
    for src, spec in nl.stimuli.items():
        if src not in seen_ids:
            problems.append(f"stimulus for unknown source {src!r}")
        elif next(g.kind for g in nl.gates if g.id == src) != "input_source":
            problems.append(f"stimulus target {src!r} is not a source")
        if not isinstance(spec, StimulusSpec):
            problems.append(f"stimulus for {src!r} is malformed: {spec!r}")
            continue
        problems.extend(
            f"stimulus for {src!r} is malformed: {problem}"
            for problem in _stimulus_problems(spec.mu, spec.sigma,
                                              spec.n_transitions, spec.seed))
    if problems:
        raise NetlistError(problems)


class _NetState:
    """One net during a run; `last` is the time of its latest change and
    a source's `feed` yields the heap entries of its train not yet
    pushed.  Nets, gates and pending entries refer to each other until
    run() cuts them as it returns; per-run results must not hang on them."""

    __slots__ = ("name", "value", "last", "fanout", "feed")

    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value
        self.last = -math.inf
        self.fanout: List[_GateRun] = []
        self.feed = None


class _GateRun:
    """One gate bound for a run: its nets, logic and delay families.

    logic[a][b] is the level inputs (a, b) drive the output to, or None
    where a C gate's disagreeing inputs hold it; families[level] is the
    (evaluate, table) pair of the family driving that output level, as
    one `_output_families` lookup gives them;
    pending is the heap entry of the output event in flight, or None.
    """

    __slots__ = ("gate", "is_nor", "a", "b", "out", "logic", "delta_min",
                 "families", "pending")

    def __init__(self, gate: Gate, params, nets: Dict[str, _NetState]):
        self.gate = gate
        self.is_nor = gate.kind == "nor2"
        self.a = nets[gate.inputs[0]]
        self.b = nets[gate.inputs[1]]
        self.out = nets[gate.output]
        if self.is_nor:
            self.logic = _NOR_LOGIC
        else:
            lo = int(params.inverted)
            self.logic = ((lo, None), (None, 1 - lo))
        self.delta_min = params.delta_min
        self.families = _output_families(params)
        self.pending = None


def run(nl: Netlist, library: Dict[str, object], t_end: Optional[float] = None,
        max_events: int = 10_000_000) -> SimResult:
    """Process the netlist's events in (time, seq) order.

    Returns the per-net transition trace and run statistics.  The event
    loop is serial by contract; determinism over (netlist, seeds) is
    part of the interface.  Each gate's delay tables are bound once at
    set-up, so an event costs the closed form's flops and heap work.
    """
    if t_end is not None:
        _check_time("t_end", t_end)
    validate_netlist(nl)
    started = _time.perf_counter()

    nets = {name: _NetState(name, v) for name, v in nl.nets.items()}
    problems = []
    for g in nl.gates:
        if g.kind == "input_source":
            continue
        params = library.get(g.params_ref)
        want = _KIND_CLASSES[g.kind]
        if not isinstance(params, want):
            problems.append(f"gate {g.id}: parameter set {g.params_ref!r} "
                            f"missing or not a {want.__name__}")
            continue
        gr = _GateRun(g, params, nets)
        steady = gr.logic[gr.a.value][gr.b.value]
        if steady is not None and steady != gr.out.value:
            problems.append(f"gate {g.id}: initial output inconsistent "
                            f"with initial inputs")
        for net in g.inputs:
            nets[net].fanout.append(gr)

    # heap entries are (time, seq, driving _GateRun or None for a
    # stimulus, _NetState, value); seq is unique, so tuples never
    # compare past it.  A source's train is increasing in (time, seq),
    # so only its next entry need wait in the heap: the one popped
    # pushes the one after, and the heap holds O(gates) entries.
    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: List[Tuple[float, int, Optional[_GateRun], _NetState, int]] = []
    seq = 0
    for g in nl.gates:
        if g.kind != "input_source" or g.id not in nl.stimuli:
            continue
        spec = nl.stimuli[g.id]
        st = nets[g.output]
        try:
            times = [ev.time for ev in generate_stimulus(
                spec.mu, spec.sigma, spec.n_transitions, spec.seed,
                net=g.output, start_value=st.value)]
        except ValueError as exc:
            # validate_netlist passed the spec, so its times overflow
            problems.append(f"stimulus for {g.id!r} is malformed: {exc}")
            continue
        # keep only the times: the run then holds no SimEvent for the
        # collector to walk
        st.feed = zip(times, count(seq), repeat(None), repeat(st),
                      cycle((1 - st.value, st.value)))
        seq += len(times)
        heappush(heap, next(st.feed))
    if problems:
        raise NetlistError(problems)

    changes: List[Tuple[float, str, int]] = []
    record = changes.append
    horizon = math.inf if t_end is None else t_end
    inf = math.inf
    popped = 0

    while heap:
        popped += 1
        if popped > max_events:
            raise LivelockError(
                f"event count exceeded the cap of {max_events}; the netlist "
                f"is livelocked or the cap is too small for this workload")
        t, _, driver, st, value = entry = heappop(heap)
        if t > horizon:
            break
        if driver is not None:
            if driver.pending is not entry:
                continue  # superseded or cancelled
            driver.pending = None
        else:
            following = next(st.feed, None)
            if following is not None:
                heappush(heap, following)
        st.value = value
        st.last = t
        record((t, st.name, value))
        for gr in st.fanout:
            # revise gr's pending output event after an input change at t
            a = gr.a
            b = gr.b
            target = gr.logic[a.value][b.value]
            if target is None or target == gr.out.value:
                gr.pending = None
                continue
            if gr.is_nor and not target:
                # falling NOR output, referenced to the first rising input
                t_a = a.last if a.value else inf
                t_b = b.last if b.value else inf
                # min() without its call cost; finite, as an input held
                # at 1 since the start holds the output at 0 (validated)
                ref = t_b if t_b < t_a else t_a
            else:
                # switch-on family, referenced to the pair's second input:
                # the one that switched now, as pops come in time order;
                # both inputs sit at the pair's level, so each one's
                # latest change is its edge of the pair
                ref = t
                t_a, t_b = a.last, b.last
            delta = 0.0 if t_a == t_b else t_b - t_a
            evaluate, table = gr.families[target]
            t_new = ref + evaluate(table, delta)
            pending = gr.pending
            if pending and pending[4] == target and pending[0] == t_new:
                continue
            if t_new < t - _CAUSALITY_SLACK:
                if pending is not None:
                    # the recomputed crossing, still referenced to an
                    # earlier input, is past, as when an input reverses
                    # while the pending event sits at a delta_min floor;
                    # that event is for this level and, not yet popped,
                    # at or after t, so it stands
                    continue
                raise CausalityError(
                    f"gate {gr.gate.id}: output scheduled at {t_new:.6g} s, "
                    f"before the input event at {t:.6g} s")
            floor = t + gr.delta_min
            if t_new < floor:
                # a revision (third transition while the output is mid
                # flight) can pull the analytic crossing inside the
                # interconnect transport window; the wire still imposes
                # delta_min from the event that revealed the change
                t_new = floor
            gr.pending = entry = (t_new, seq, gr, gr.out, target)
            heappush(heap, entry)
            seq += 1

    # break the run's cycles, so that reference counting frees its state
    for st in nets.values():
        for gr in st.fanout:
            gr.pending = None
        st.fanout = st.feed = None
    # each event is recorded once, in changes; the per-net trace and
    # the transition counts are derived from it
    trace: Dict[str, List[Tuple[float, int]]] = {name: [] for name in nl.nets}
    for t, net, value in changes:
        trace[net].append((t, value))
    transitions = {name: len(tr) for name, tr in trace.items()}
    stats = SimStats(events=len(changes), transitions=transitions,
                     wall_clock_s=_time.perf_counter() - started)
    return SimResult(trace=trace, changes=tuple(changes), stats=stats)


def build_cross_coupled_chain(n_stages: int, params_ref: str = "nor",
                              mu: float = 5e-11, sigma: float = 3e-11,
                              n_transitions: int = 0,
                              seed: int = 1) -> Netlist:
    """Two rails of cross-coupled NOR gates, driven by sources i1/i2.

    Each stage's gates take the previous stage's same-rail output first
    and the opposite-rail output second; with n_transitions = 0 the
    sources stay quiet.
    """
    if not (_is_int(n_stages) and n_stages >= 1):
        raise ValueError(f"n_stages must be a positive count, got {n_stages!r}")
    nets: Dict[str, int] = {"i1": 0, "i2": 0}
    gates: List[Gate] = [
        Gate(id="src_a", kind="input_source", inputs=(), output="i1"),
        Gate(id="src_b", kind="input_source", inputs=(), output="i2"),
    ]
    prev_top, prev_bot = "i1", "i2"
    value = 0
    for stage in range(1, n_stages + 1):
        top, bot = f"t{stage}", f"b{stage}"
        value = 1 - value  # NOR flips the steady level every stage
        nets[top] = value
        nets[bot] = value
        gates.append(Gate(id=f"g_{top}", kind="nor2",
                          inputs=(prev_top, prev_bot), output=top,
                          params_ref=params_ref))
        gates.append(Gate(id=f"g_{bot}", kind="nor2",
                          inputs=(prev_bot, prev_top), output=bot,
                          params_ref=params_ref))
        prev_top, prev_bot = top, bot
    stimuli = {}
    if n_transitions:
        stimuli["src_a"] = StimulusSpec(mu, sigma, n_transitions, seed)
        stimuli["src_b"] = StimulusSpec(mu, sigma, n_transitions, seed + 1)
    return Netlist(gates=tuple(gates), nets=nets, stimuli=stimuli)
