"""Tests for the event-driven simulator and its RNG."""

import gc
import hashlib
import heapq
import math
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CG_W3, NOR_A, CountingFloat, chain_of, extreme_variants
from misdelay import load_fixture, sim
from misdelay.fileio import list_fixtures, write_vcd
from misdelay.gates import (
    CGateParams,
    DelayQuery,
    NorGateParams,
    _cgate_family,
    _nor_family,
    _output_families,
    cgate_delay,
    nor_delay,
)
from misdelay.numerics import DomainError
from misdelay.sim import (
    CausalityError,
    Gate,
    LivelockError,
    Netlist,
    NetlistError,
    StimulusSpec,
    Xoshiro256StarStar,
    build_cross_coupled_chain,
    generate_stimulus,
    run,
    validate_netlist,
)

LIB = {"nor": NOR_A, "cg": CG_W3}


class CountingInt(int):
    """An int whose repr counts on CountingFloat's counter."""

    def __repr__(self):
        CountingFloat.calls += 1
        return super().__repr__()


def single_nor(stim_a=None, stim_b=None, init=(0, 0)):
    a0, b0 = init
    out0 = 0 if (a0 or b0) else 1
    stimuli = {}
    if stim_a is not None:
        stimuli["sa"] = stim_a
    if stim_b is not None:
        stimuli["sb"] = stim_b
    return Netlist(
        gates=(Gate("sa", "input_source", (), "na"),
               Gate("sb", "input_source", (), "nb"),
               Gate("g1", "nor2", ("na", "nb"), "out", "nor")),
        nets={"na": a0, "nb": b0, "out": out0},
        stimuli=stimuli)


def single_cgate(stim_a=None, stim_b=None, params_ref="cg", out0=0,
                 level=0):
    stimuli = {}
    if stim_a is not None:
        stimuli["sa"] = stim_a
    if stim_b is not None:
        stimuli["sb"] = stim_b
    return Netlist(
        gates=(Gate("sa", "input_source", (), "na"),
               Gate("sb", "input_source", (), "nb"),
               Gate("g1", "cgate", ("na", "nb"), "out", params_ref)),
        nets={"na": level, "nb": level, "out": out0},
        stimuli=stimuli)


class TestRng:
    def test_reference_stream(self):
        # first outputs of the documented generator; pinned so the
        # stream can never drift across platforms or refactors
        r = Xoshiro256StarStar(0)
        assert [r.next_u64() for _ in range(2)] == [
            0x99EC5F36CB75F2B4, 0xBF6E1F784956452A]
        r = Xoshiro256StarStar(1)
        assert [r.next_u64() for _ in range(4)] == [
            0xB3F2AF6D0FC710C5, 0x853B559647364CEA,
            0x92F89756082A4514, 0x642E1C7BC266A3A7]

    def test_determinism_and_seed_sensitivity(self):
        a = Xoshiro256StarStar(12345)
        b = Xoshiro256StarStar(12345)
        c = Xoshiro256StarStar(12346)
        seq_a = [a.next_u64() for _ in range(32)]
        assert seq_a == [b.next_u64() for _ in range(32)]
        assert seq_a != [c.next_u64() for _ in range(32)]

    def test_uniform_range(self):
        r = Xoshiro256StarStar(42)
        us = [r.uniform() for _ in range(5000)]
        assert all(0.0 < u <= 1.0 for u in us)
        assert abs(sum(us) / len(us) - 0.5) < 0.02

    def test_gauss_moments(self):
        r = Xoshiro256StarStar(7)
        zs = [r.gauss() for _ in range(20000)]
        mean = sum(zs) / len(zs)
        var = sum((z - mean) ** 2 for z in zs) / len(zs)
        assert abs(mean) < 0.03
        assert abs(math.sqrt(var) - 1.0) < 0.03

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_state_never_all_zero(self, k):
        # splitmix64 mixes seed + k*gamma (gamma odd) by a bijection that
        # fixes 0: only the seed -k*gamma zeroes word k-1, and it leaves
        # the other three nonzero, so no seed zeroes the whole state
        gamma = 0x9E3779B97F4A7C15
        r = Xoshiro256StarStar(-k * gamma)
        assert [word == 0 for word in r._s] == [i == k - 1 for i in range(4)]
        assert any(r.next_u64() for _ in range(4))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            Xoshiro256StarStar(1.5)
        with pytest.raises(ValueError):
            Xoshiro256StarStar(True)


class TestStimulus:
    def test_deterministic(self):
        a = generate_stimulus(5e-11, 3e-11, 100, seed=9)
        b = generate_stimulus(5e-11, 3e-11, 100, seed=9)
        assert a == b

    def test_zero_sigma_multiples_of_mu(self):
        ev = generate_stimulus(5e-11, 0.0, 10, seed=1)
        assert [e.time for e in ev] == [(i + 1) * 5e-11 for i in range(10)]

    def test_alternation_and_start_value(self):
        ev = generate_stimulus(1e-11, 5e-12, 9, seed=2)
        assert [e.value for e in ev] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
        ev = generate_stimulus(1e-11, 5e-12, 4, seed=2, start_value=1)
        assert [e.value for e in ev] == [0, 1, 0, 1]

    def test_mean_gap_near_mu(self):
        ev = generate_stimulus(5e-11, 3e-11, 1000, seed=1)
        gaps = [ev[0].time] + [b.time - a.time for a, b in zip(ev, ev[1:])]
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 5e-11) <= 0.1 * 5e-11

    def test_gap_floor(self):
        # sigma far above mu drives many raw draws negative
        ev = generate_stimulus(1e-12, 1e-10, 500, seed=3)
        gaps = [ev[0].time] + [b.time - a.time for a, b in zip(ev, ev[1:])]
        # floor is applied to the drawn increments; re-deriving gaps from the
        # accumulated times can come back an ulp short
        assert min(gaps) >= 1e-12 * (1.0 - 1e-9)
        assert all(b.time > a.time for a, b in zip(ev, ev[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_stimulus(0.0, 1e-12, 5, seed=1)
        with pytest.raises(ValueError):
            generate_stimulus(1e-11, -1e-12, 5, seed=1)
        with pytest.raises(ValueError):
            generate_stimulus(1e-11, 1e-12, 0, seed=1)

    @pytest.mark.parametrize("mu,sigma,n,seed,field", [
        (math.inf, 0.0, 5, 1, "mu"),
        (math.nan, 0.0, 5, 1, "mu"),
        (True, 0.0, 5, 1, "mu"),
        (1e-11, math.inf, 5, 1, "sigma"),
        (1e-11, math.nan, 5, 1, "sigma"),
        (1e-11, False, 5, 1, "sigma"),
        (1e-11, 0.0, True, 1, "n"),
        (1e-11, 0.0, 5, 1.0, "seed"),
    ])
    def test_rejects_non_finite_bool_and_non_integer(self, mu, sigma, n,
                                                     seed, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            generate_stimulus(mu, sigma, n, seed)

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    def test_int_beyond_float_range_is_a_value_error(self, field):
        # math.isfinite would raise OverflowError on it
        args = {"mu": 1e-11, "sigma": 0.0, field: 10 ** 400}
        with pytest.raises(ValueError, match=f"^{field} must"):
            generate_stimulus(args["mu"], args["sigma"], 3, 1)

    @pytest.mark.parametrize("start", [2, -1, 0.5, 1.0, True])
    def test_start_value_must_be_a_bit(self, start):
        with pytest.raises(ValueError, match=re.escape(
                f"start_value must be 0 or 1, got {start!r}")):
            generate_stimulus(1e-11, 0.0, 3, 1, start_value=start)

    @pytest.mark.parametrize("mu,sigma,n,first", [
        (1e308, 0.0, 3, 2),
        (1e308, 1e308, 4, 4),
        (10 ** 308, 0.0, 3, 2),
    ], ids=["multiples", "gaps", "int-mu"])
    def test_overflowing_times_rejected(self, mu, sigma, n, first):
        with pytest.raises(ValueError, match=(
                f"^the train overflows the time range: transition {first} "
                f"of {n} lands at ")):
            generate_stimulus(mu, sigma, n, 1)

    def test_largest_trains_stay_finite(self):
        top = sys.float_info.max
        ev = generate_stimulus(top / 4.0, 0.0, 3, 1)
        assert [e.time for e in ev] == [top / 4.0, 2 * (top / 4.0),
                                        3 * (top / 4.0)]
        assert generate_stimulus(top, 0.0, 1, 1)[0].time == top

    def test_valid_arguments_format_nothing(self):
        spec = StimulusSpec(CountingFloat(1e-11), CountingFloat(5e-12),
                            CountingInt(4), CountingInt(2))
        CountingFloat.calls = 0
        ev = generate_stimulus(spec.mu, spec.sigma, spec.n_transitions,
                               spec.seed)
        validate_netlist(single_nor(stim_a=spec))
        assert CountingFloat.calls == 0
        assert ev == generate_stimulus(1e-11, 5e-12, 4, 2)
        with pytest.raises(ValueError):
            generate_stimulus(spec.mu, CountingFloat(-1.0), 4, 2)
        assert CountingFloat.calls == 1

    def test_trains_pinned(self):
        # (mu, sigma, n, seed, start_value): fixed and drawn gaps, gaps
        # on the 1 ps floor, both start values, and an int mu whose
        # times stay ints
        cases = [(5e-11, 3e-11, 200, 1, 0), (5e-11, 3e-11, 7, 2, 1),
                 (1e-12, 1e-10, 200, 3, 0), (1e-11, 5e-12, 2, 4, 1),
                 (2e-11, 1e-11, 1, 5, 0), (5e-11, 0.0, 200, 6, 1),
                 (5e-11, 0.0, 7, 7, 0), (1e-10, 0.0, 1, 8, 1),
                 (3, 0.0, 7, 9, 0), (3, 0, 2, 10, 1)]
        trains = [generate_stimulus(mu, sigma, n, seed, net=f"n{i}",
                                    start_value=start)
                  for i, (mu, sigma, n, seed, start) in enumerate(cases)]
        assert type(trains[-1][-1].time) is int
        assert hashlib.sha256(repr(trains).encode()).hexdigest() == (
            "78c7047529e45ce8783a39271c6bfe6c32a4e173758da3436b6da997e785cceb")


class TestSingleNor:
    def test_quiet_b_output_is_delayed_complement(self):
        nl = single_nor(stim_a=StimulusSpec(1e-10, 0.0, 6, 3))
        res = run(nl, LIB)
        fall = nor_delay(NOR_A, DelayQuery("falling", math.inf))
        rise = nor_delay(NOR_A, DelayQuery("rising", -math.inf))
        assert len(res.trace["out"]) == 6
        for (ti, vi), (to, vo) in zip(res.trace["na"], res.trace["out"]):
            assert vo == 1 - vi
            assert to == ti + (fall if vi else rise)

    def test_mis_pair_revises_to_exact_family_delay(self):
        # A rises at 2 ps, B at 3.5 ps: one fall event, referenced to
        # the first rise with the finite-separation delay
        nl = single_nor(stim_a=StimulusSpec(2e-12, 0.0, 1, 1),
                        stim_b=StimulusSpec(3.5e-12, 0.0, 1, 1))
        res = run(nl, LIB)
        want = 2e-12 + nor_delay(NOR_A, DelayQuery("falling", 1.5e-12))
        assert res.trace["out"] == [(want, 0)]

    def test_mis_pair_negative_separation(self):
        nl = single_nor(stim_a=StimulusSpec(4e-12, 0.0, 1, 1),
                        stim_b=StimulusSpec(2.5e-12, 0.0, 1, 1))
        res = run(nl, LIB)
        want = 2.5e-12 + nor_delay(NOR_A, DelayQuery("falling", -1.5e-12))
        assert res.trace["out"] == [(want, 0)]

    def test_rising_pair_referenced_to_second_fall(self):
        nl = single_nor(init=(1, 1),
                        stim_a=StimulusSpec(3e-12, 0.0, 1, 1),
                        stim_b=StimulusSpec(7e-12, 0.0, 1, 1))
        res = run(nl, LIB)
        want = 7e-12 + nor_delay(NOR_A, DelayQuery("rising", 4e-12))
        assert res.trace["out"] == [(want, 1)]

    def test_input_reversal_cancels_pending_fall(self):
        # fall delay exceeds the pulse width, so the output never moves
        nl = single_nor(stim_a=StimulusSpec(1e-12, 0.0, 2, 1))
        res = run(nl, LIB)
        assert res.trace["out"] == []
        assert res.stats.transitions["out"] == 0

    def test_beyond_breakpoint_arrival_keeps_schedule(self):
        # B rises after the down-family breakpoint but before the
        # pending fall fires: the clamped recompute must land on the
        # same instant and leave the event alone
        fall_inf = nor_delay(NOR_A, DelayQuery("falling", math.inf))
        t_b = 1e-12 + fall_inf - 1e-12  # inside (breakpoint, fall time)
        nl = single_nor(stim_a=StimulusSpec(1e-12, 0.0, 1, 1),
                        stim_b=StimulusSpec(t_b, 0.0, 1, 1))
        res = run(nl, LIB)
        assert res.trace["out"] == [(1e-12 + fall_inf, 0)]

    def test_empty_stimulus_no_transitions(self):
        res = run(single_nor(), LIB)
        assert res.stats.events == 0
        assert all(not tr for tr in res.trace.values())


class TestSingleCGate:
    def test_agreeing_inputs_schedule_from_second(self):
        nl = single_cgate(stim_a=StimulusSpec(2e-12, 0.0, 1, 1),
                          stim_b=StimulusSpec(5e-12, 0.0, 1, 1))
        res = run(nl, LIB)
        want = 5e-12 + cgate_delay(CG_W3, DelayQuery("rising", 3e-12))
        assert res.trace["out"] == [(want, 1)]

    def test_holds_through_disagreement(self):
        # rise on agreement, hold while split, fall on re-agreement
        nl = single_cgate(stim_a=StimulusSpec(2e-11, 0.0, 2, 1),
                          stim_b=StimulusSpec(3e-11, 0.0, 2, 1))
        res = run(nl, LIB)
        t_rise = 3e-11 + cgate_delay(CG_W3, DelayQuery("rising", 1e-11))
        t_fall = 6e-11 + cgate_delay(CG_W3, DelayQuery("falling", 2e-11))
        assert res.trace["out"] == [(t_rise, 1), (t_fall, 0)]

    def test_divergence_cancels_pending(self):
        # A: up at 3 ps, down at 6 ps; B: up at 5 ps. The pending rise
        # scheduled at 5 ps dies when A withdraws before it fires.
        nl = single_cgate(stim_a=StimulusSpec(3e-12, 0.0, 2, 1),
                          stim_b=StimulusSpec(5e-12, 0.0, 1, 1))
        res = run(nl, LIB)
        assert res.trace["out"] == []

    def test_inverted_element(self):
        inv = CGateParams(r_n=CG_W3.r_n, r_p=CG_W3.r_p,
                          alpha1=CG_W3.alpha1, alpha2=CG_W3.alpha2,
                          alpha3=CG_W3.alpha3, alpha4=CG_W3.alpha4,
                          c_load=CG_W3.c_load, r5=CG_W3.r5,
                          delta_min=CG_W3.delta_min, inverted=True)
        nl = single_cgate(stim_a=StimulusSpec(2e-12, 0.0, 1, 1),
                          stim_b=StimulusSpec(5e-12, 0.0, 1, 1),
                          params_ref="inv", out0=1)
        res = run(nl, {"inv": inv})
        want = 5e-12 + cgate_delay(inv, DelayQuery("falling", 3e-12))
        assert res.trace["out"] == [(want, 0)]


class TestChain:
    @pytest.mark.parametrize("n_stages", [0, -1, 1.5, True])
    def test_stage_count_validation(self, n_stages):
        with pytest.raises(ValueError, match="positive count"):
            build_cross_coupled_chain(n_stages)

    def test_smallest_chain_shape(self):
        nl = build_cross_coupled_chain(1)
        assert sum(g.kind == "nor2" for g in nl.gates) == 2
        assert len(nl.nets) == 4
        validate_netlist(nl)

    def test_fifty_stage_structure(self):
        nl = build_cross_coupled_chain(50)
        assert sum(g.kind == "nor2" for g in nl.gates) == 100
        outputs = [g.output for g in nl.gates]
        assert len(outputs) == len(set(outputs))
        validate_netlist(nl)

    def test_deterministic_trace(self):
        nl = build_cross_coupled_chain(5, mu=5e-11, sigma=3e-11,
                                       n_transitions=50, seed=11)
        a = run(nl, LIB)
        b = run(nl, LIB)
        assert a.changes == b.changes
        assert a.stats.events == b.stats.events

    def test_alternation_everywhere(self):
        nl = build_cross_coupled_chain(5, mu=5e-11, sigma=3e-11,
                                       n_transitions=200, seed=4)
        res = run(nl, LIB)
        for net, tr in res.trace.items():
            prev = nl.nets[net]
            for _, v in tr:
                assert v == 1 - prev
                prev = v

    def test_causality_floor(self):
        nl = build_cross_coupled_chain(4, mu=2e-11, sigma=1.5e-11,
                                       n_transitions=300, seed=8)
        res = run(nl, LIB)
        # committed output events never precede their driving gate's
        # stimulus-side history by less than delta_min
        for net, tr in res.trace.items():
            for (t0, _), (t1, _) in zip(tr, tr[1:]):
                assert t1 > t0

    def test_negative_delay_is_a_causality_error(self, monkeypatch):
        # no delay table gives a negative delay; a stand-in that does
        # schedules the output before the input event that caused it
        negative = (lambda table, delta: -1e-9, None)
        monkeypatch.setattr(sim, "_output_families",
                            lambda params: (negative, negative))
        nl = build_cross_coupled_chain(2, mu=5e-11, sigma=0.0,
                                       n_transitions=4, seed=1)
        with pytest.raises(CausalityError, match="before the input event"):
            run(nl, LIB)

    def test_stats_shape(self):
        nl = build_cross_coupled_chain(3, mu=5e-11, sigma=0.0,
                                       n_transitions=20, seed=2)
        res = run(nl, LIB)
        assert res.stats.events == sum(res.stats.transitions.values())
        assert res.stats.events == len(res.changes)
        assert res.stats.wall_clock_s > 0.0
        for net, tr in res.trace.items():
            assert res.stats.transitions[net] == len(tr)

    def test_t_end_truncates(self):
        nl = build_cross_coupled_chain(3, mu=5e-11, sigma=3e-11,
                                       n_transitions=60, seed=5)
        full = run(nl, LIB)
        cut = 1.5e-9
        part = run(nl, LIB, t_end=cut)
        assert part.changes == tuple(c for c in full.changes if c[0] <= cut)
        # trace and transitions are derived from changes, so they must
        # be cut at the same event
        assert 0 < len(part.changes) < len(full.changes)
        for net in nl.nets:
            want = [(t, v) for t, n, v in part.changes if n == net]
            assert part.trace[net] == want
            assert part.stats.transitions[net] == len(want)

    def test_run_builds_no_delay_queries(self, monkeypatch):
        # run() binds each gate's tables at set-up and calls the closed
        # forms directly; a validated DelayQuery per event is the cost
        # that binding removed
        built = []
        post_init = DelayQuery.__post_init__

        def counting(query):
            built.append(query)
            post_init(query)

        monkeypatch.setattr(DelayQuery, "__post_init__", counting)
        nl = build_cross_coupled_chain(5, mu=5e-11, sigma=3e-11,
                                       n_transitions=50, seed=11)
        res = run(nl, LIB)
        assert res.stats.events > 0
        assert built == []
        DelayQuery("rising", 0.0)  # the counter itself does count
        assert len(built) == 1

    @pytest.mark.parametrize("nl", [
        build_cross_coupled_chain(5, mu=5e-11, sigma=3e-11, n_transitions=50,
                                  seed=11),
        single_cgate(StimulusSpec(5e-11, 3e-11, 50, 1),
                     StimulusSpec(5e-11, 3e-11, 50, 2)),
    ], ids=["nor-chain", "cgate"])
    def test_run_looks_up_each_gate_once(self, nl, monkeypatch):
        # one lookup binds both output families of a gate
        looked_up = []
        lookup = sim._output_families

        def counting(params):
            looked_up.append(params)
            return lookup(params)

        monkeypatch.setattr(sim, "_output_families", counting)
        res = run(nl, LIB)
        assert res.stats.events > 0
        assert looked_up == [LIB[g.params_ref] for g in nl.gates
                             if g.kind != "input_source"]

    def test_livelock_cap(self):
        nl = build_cross_coupled_chain(2, mu=5e-11, sigma=0.0,
                                       n_transitions=30, seed=1)
        with pytest.raises(LivelockError):
            run(nl, LIB, max_events=10)

    def test_seq_tie_order_pinned(self):
        # sigma = 0: both sources switch at the same multiples of mu and
        # both rails switch together, so only seq orders the ties; the
        # digests were recorded when every train entered the heap up
        # front
        nl = build_cross_coupled_chain(3, params_ref="nor", mu=5e-11,
                                       sigma=0.0, n_transitions=40, seed=1)
        res = run(nl, {"nor": load_fixture("nor15_l3")})
        assert res.changes[:2] == ((5e-11, "i1", 1), (5e-11, "i2", 1))
        assert hashlib.sha256(repr(res.changes).encode()).hexdigest() == (
            "e3ac0c20bfe9deec5944c2cdbb4bf73892d7621ed631d58b1bc3879ed75519e5")
        assert hashlib.sha256(
            write_vcd(res.trace, nl.nets).encode()).hexdigest() == (
            "7ab5532e42c57b1796c8d44c22176809e8d94b963287d454bdae7778d88540bc")

    def test_heap_holds_one_entry_per_source(self, monkeypatch):
        # stimulus trains enter the heap one event per source at a time,
        # so the heap's size follows the gates, not the stimulus length
        class Tracking:
            high_water = 0

            def heappush(self, heap, item):
                heapq.heappush(heap, item)
                self.high_water = max(self.high_water, len(heap))

            def __getattr__(self, name):
                return getattr(heapq, name)

        tracking = Tracking()
        monkeypatch.setattr(sim, "heapq", tracking)
        nl = single_nor(stim_a=StimulusSpec(5e-11, 3e-11, 1000, 1),
                        stim_b=StimulusSpec(5e-11, 3e-11, 1000, 2))
        res = run(nl, LIB)
        assert res.stats.transitions["na"] == 1000
        assert res.stats.transitions["nb"] == 1000
        assert 2 <= tracking.high_water < 10

    @pytest.mark.parametrize("sigma", [0.0, 3e-11])
    def test_source_traces_match_generate_stimulus(self, sigma,
                                                   monkeypatch):
        # run() takes each train from generate_stimulus, where perfbench
        # traces the cost of drawing it, and keeps only its times; the
        # times and values must stay those of the public generator
        nl = build_cross_coupled_chain(3, mu=5e-11, sigma=sigma,
                                       n_transitions=50, seed=6)
        nl.nets["i2"] = 1
        nl.nets.update({f"{rail}{k}": value for k, value in
                        ((1, 0), (2, 1), (3, 0)) for rail in "tb"})
        drawn = []

        def recording(*args, **kwargs):
            drawn.append(kwargs["net"])
            return generate_stimulus(*args, **kwargs)

        monkeypatch.setattr(sim, "generate_stimulus", recording)
        res = run(nl, LIB)
        assert sorted(drawn) == ["i1", "i2"]
        for src, net in (("src_a", "i1"), ("src_b", "i2")):
            spec = nl.stimuli[src]
            train = generate_stimulus(spec.mu, spec.sigma,
                                      spec.n_transitions, spec.seed,
                                      net=net, start_value=nl.nets[net])
            assert res.trace[net] == [(e.time, e.value) for e in train]

    @pytest.mark.parametrize("cut", [False, True])
    def test_run_state_is_freed_and_holds_no_trace(self, cut):
        # a run's nets and gates refer to each other; what only the
        # cyclic collector frees lingers until its next pass, and each
        # full pass walks it, so run() must leave no such garbage, and
        # no net or gate may hold on to a trace list.  A t_end at a
        # source's change stops the run with the driven gate's output
        # event pending.
        nl = build_cross_coupled_chain(3, mu=5e-11, sigma=3e-11,
                                       n_transitions=20, seed=2)
        t_end = run(nl, LIB).trace["i1"][5][0] if cut else None
        gc.collect()
        gc.disable()
        try:
            res = run(nl, LIB, t_end=t_end)
            for tr in res.trace.values():
                referrers = gc.get_referrers(tr)
                assert not any(isinstance(r, (sim._NetState, sim._GateRun))
                               for r in referrers)
                assert sum(r is res.trace for r in referrers) == 1
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert res.stats.events > 0

    def test_past_revision_keeps_floored_event(self):
        # nb rises, then na falls and rises again before the output's
        # event pops; the event sits at the delta_min floor of na's fall,
        # and the re-evaluation on na's rise, still referenced to nb's
        # rise, lands in the past: the floored event must stand
        p = load_fixture("nor15_l3")
        nl = single_nor(stim_a=StimulusSpec(5e-12, 5e-12, 1000, 3),
                        stim_b=StimulusSpec(5e-12, 5e-12, 1000, 4))
        res = run(nl, {"nor": p})
        changes = list(res.changes)
        k = next(i for i, (t, net, v) in enumerate(changes)
                 if net == "na" and v == 1 and t > 9.59e-10)
        t_fall = changes[k - 1][0]
        assert changes[k - 1][1:] == ("na", 0)
        assert changes[k + 1] == (t_fall + p.delta_min, "out", 0)
        assert 9.595e-10 < changes[k][0] < t_fall + p.delta_min
        for tr in res.trace.values():
            assert all(t0 < t1 for (t0, _), (t1, _) in zip(tr, tr[1:]))


# Separations as a multiple of the breakpoint on their side: zero,
# inside the MIS window, on it, and beyond it on the clamped branch.
bp_multiples = st.one_of(
    st.just(0.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(1.0, 4.0),
    st.floats(-4.0, -1.0),
)

T_FIRST = 5e-11


class TestBoundPathMatchesClosedForms:
    """run() calls the bound tables; they must give the public delays."""

    @given(rising=st.booleans(), multiple=bp_multiples)
    @settings(max_examples=150, deadline=None)
    def test_single_nor(self, rising, multiple):
        p = load_fixture("nor15_l3")
        assert p.r5 > 0.0 and p.delta_min > 0.0
        # multiples of the family's MIS length: the switch-on family's
        # bp0, the falling family's breakpoints
        fam = _output_families(p)[rising][1]
        bp_plus, bp_minus = fam.bp0_plus, fam.bp0_minus
        bp = bp_plus if multiple >= 0 else bp_minus
        t_a = T_FIRST
        t_b = T_FIRST + multiple * bp
        # a rising output needs both inputs falling from 1, a falling
        # one both inputs rising from 0
        level = 1 if rising else 0
        nl = single_nor(stim_a=StimulusSpec(t_a, 0.0, 1, 1),
                        stim_b=StimulusSpec(t_b, 0.0, 1, 1),
                        init=(level, level))
        res = run(nl, {"nor": p})
        direction = "rising" if rising else "falling"
        ref = max(t_a, t_b) if rising else min(t_a, t_b)
        want = ref + nor_delay(p, DelayQuery(direction, t_b - t_a))
        assert res.trace["out"] == [(want, level)]

    @given(inverted=st.booleans(), pair_rising=st.booleans(),
           multiple=bp_multiples)
    @settings(max_examples=150, deadline=None)
    def test_single_cgate(self, inverted, pair_rising, multiple):
        p = replace(load_fixture("cgate15_l3"), inverted=inverted)
        assert p.r5 > 0.0 and p.delta_min > 0.0
        fam = _cgate_family(p, pair_rising)
        t_a = T_FIRST
        t_b = T_FIRST + multiple * (fam.bp0_plus if multiple >= 0
                                    else fam.bp0_minus)
        level = 0 if pair_rising else 1
        out0 = (1 - level) if inverted else level
        nl = single_cgate(stim_a=StimulusSpec(t_a, 0.0, 1, 1),
                          stim_b=StimulusSpec(t_b, 0.0, 1, 1),
                          out0=out0, level=level)
        res = run(nl, {"cg": p})
        direction = "rising" if out0 == 0 else "falling"
        want = max(t_a, t_b) + cgate_delay(p, DelayQuery(direction,
                                                         t_b - t_a))
        assert res.trace["out"] == [(want, 1 - out0)]


class TestSharedInputNet:
    """A gate whose two inputs share one net sees both switch at once.

    Each change of the net is then a double transition at delta = 0,
    referenced to that change, so the output follows it by the family's
    zero-separation delay.  The gaps are ten such delays, so that no
    output is cancelled (cgate15_isolated's are ~0.1 us).
    """

    @pytest.mark.parametrize("name,inverted", [
        ("nor15_l3", False), ("nor65_l5", False), ("cgate15_l3", False),
        ("cgate15_l3", True), ("cgate15_isolated", False)])
    def test_output_follows_each_change(self, name, inverted):
        p = load_fixture(name)
        nor = isinstance(p, NorGateParams)
        if inverted:
            p = replace(p, inverted=True)
        delay = nor_delay if nor else cgate_delay
        mu = 10.0 * max(delay(p, DelayQuery(d, 0.0))
                        for d in ("rising", "falling"))
        # the output level an input level drives
        follow = (lambda v: 1 - v) if nor or inverted else (lambda v: v)
        nl = Netlist(
            gates=(Gate("s", "input_source", (), "x"),
                   Gate("g", "nor2" if nor else "cgate", ("x", "x"), "out",
                        "p")),
            nets={"x": 0, "out": follow(0)},
            stimuli={"s": StimulusSpec(mu, 0.0, 8, 5)})
        res = run(nl, {"p": p})
        assert len(res.trace["x"]) == 8
        want = []
        for t_in, v in res.trace["x"]:
            level = follow(v)
            direction = "rising" if level else "falling"
            want.append((t_in + delay(p, DelayQuery(direction, 0.0)), level))
        assert res.trace["out"] == want


def _symmetry_chain(p, seed):
    # separations and gaps on the scale of the switch-on family, so the
    # trace runs through MIS windows, revisions and cancellations
    fam = _output_families(p)[True][1]
    mu = 2.0 * (fam.d0 + max(fam.bp0_plus, fam.bp0_minus))
    return build_cross_coupled_chain(4, params_ref="g", mu=mu, sigma=mu,
                                     n_transitions=40, seed=seed)


class TestTraceSymmetries:
    """Relabelled netlists give the relabelled trace.

    They pin that alpha1 (a C gate's falling pair: alpha4) belongs to
    input A's transistor and alpha2 (alpha3) to input B's, whichever
    input switches first.  The traces agree bit for bit except where
    one NOR table constant rounds differently (see below).
    """

    @given(name=st.sampled_from([n for n in list_fixtures()
                                 if n.startswith("nor")]),
           seed=st.integers(1, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_nor_input_swap(self, name, seed):
        p = load_fixture(name)
        swapped = replace(p, r_n_a=p.r_n_b, r_n_b=p.r_n_a,
                          alpha1=p.alpha2, alpha2=p.alpha1)
        nl = _symmetry_chain(p, seed)
        mirror = replace(nl, gates=tuple(
            replace(g, inputs=g.inputs[::-1]) for g in nl.gates))
        res = run(nl, {"g": p})
        assert len(res.changes) > 80  # the gates switch, not only the sources
        got = run(mirror, {"g": swapped}).changes
        if _nor_family(swapped, False).d0 == _nor_family(p, False).d0:
            assert got == res.changes
        else:
            # d0 = ln2*c2*ra*rb/(ra + rb) rounds differently once ra
            # and rb trade places (nor15_l3, nor15_l15_strong,
            # nor15_l15_fanout8, nor65_l25); the falling delays then
            # move by an ulp, and only the times show it
            assert [c[1:] for c in got] == [c[1:] for c in res.changes]
            assert all(math.isclose(u[0], w[0], rel_tol=1e-15, abs_tol=0.0)
                       for u, w in zip(got, res.changes))

    @given(name=st.sampled_from([n for n in list_fixtures()
                                 if n.startswith("cgate")]),
           seed=st.integers(1, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_cgate_complement(self, name, seed):
        p = replace(load_fixture(name), inverted=True)
        flipped = replace(p, r_n=p.r_p, r_p=p.r_n, alpha1=p.alpha4,
                          alpha2=p.alpha3, alpha3=p.alpha2, alpha4=p.alpha1)
        nl = _symmetry_chain(p, seed)
        nl = replace(nl, gates=tuple(
            replace(g, kind="cgate") if g.kind == "nor2" else g
            for g in nl.gates))
        complement = replace(nl, nets={n: 1 - v for n, v in nl.nets.items()})
        res = run(nl, {"g": p})
        assert len(res.changes) > 80  # the gates switch, not only the sources
        assert run(complement, {"g": flipped}).changes == tuple(
            (t, net, 1 - v) for t, net, v in res.changes)


class TestNetlistValidation:
    def test_collects_structural_problems(self):
        nl = Netlist(
            gates=(Gate("g1", "nor2", ("na",), "out", "nor"),
                   Gate("g1", "xor2", ("na", "na"), "o2", "nor"),
                   Gate("g3", "nor2", ("na", "na"), "out", "nor")),
            nets={"na": 0, "out": 2},
            stimuli={"ghost": StimulusSpec(1e-11, 0.0, 1, 1)})
        with pytest.raises(NetlistError) as exc:
            validate_netlist(nl)
        text = "; ".join(exc.value.problems)
        assert "duplicate gate id" in text
        assert "unknown kind" in text
        assert "driven by both" in text
        assert "must be 0 or 1" in text
        assert "no driver" in text
        assert "unknown source" in text

    @pytest.mark.parametrize("spec,field", [
        (StimulusSpec(math.inf, 0.0, 3, 1), "mu"),
        (StimulusSpec(1e-11, math.inf, 3, 1), "sigma"),
        (StimulusSpec(1e-11, 0.0, 3, 1.5), "seed"),
        (StimulusSpec(10 ** 400, 0.0, 3, 1), "mu"),
        (StimulusSpec(1e-11, -10 ** 400, 3, 1), "sigma"),
    ])
    def test_stimulus_checked_as_generate_stimulus_checks_it(self, spec,
                                                              field):
        # validation must catch what generate_stimulus would raise on,
        # so run() fails with NetlistError before any event
        nl = single_nor(stim_a=spec)
        with pytest.raises(NetlistError, match=f"'sa' is malformed: {field}"):
            validate_netlist(nl)
        with pytest.raises(NetlistError):
            run(nl, LIB)

    def test_overflowing_train_names_its_source(self):
        # the spec passes validation, but its times leave the float
        # range; run() must fail before any event, not process t = inf
        nl = single_nor(stim_b=StimulusSpec(1e308, 0.0, 3, 1))
        validate_netlist(nl)
        with pytest.raises(NetlistError) as exc:
            run(nl, LIB)
        assert exc.value.problems == [
            "stimulus for 'sb' is malformed: the train overflows the time "
            "range: transition 2 of 3 lands at inf (mu=1e+308, sigma=0.0)"]

    def test_run_reports_set_up_and_train_problems_together(self):
        # a missing parameter set and an overflowing train: NetlistError
        # lists every violation, not the first group found
        nl = single_nor(stim_b=StimulusSpec(1e308, 0.0, 3, 1))
        with pytest.raises(NetlistError) as exc:
            run(nl, {})
        assert exc.value.problems == [
            "gate g1: parameter set 'nor' missing or not a NorGateParams",
            "stimulus for 'sb' is malformed: the train overflows the time "
            "range: transition 2 of 3 lands at inf (mu=1e+308, sigma=0.0)"]

    @pytest.mark.parametrize("gates,nets,stimuli,problem", [
        ((Gate("", "input_source", (), "na"),), {"na": 0}, {},
         "gate id '' is not a usable identifier"),
        ((Gate("sa", "input_source", (), "n a"),), {"n a": 0}, {},
         "gate sa: bad output net 'n a'"),
        ((Gate("sa", "input_source", (), "nb"),), {"na": 0}, {},
         "gate sa: output net 'nb' not declared"),
        ((Gate("sa", "input_source", (), "na"),
          Gate("g1", "nor2", ("na", ""), "out", "nor")),
         {"na": 0, "out": 1}, {}, "gate g1: bad input net ''"),
        ((Gate("sa", "input_source", (), "na"),
          Gate("g1", "nor2", ("na", "nx"), "out", "nor")),
         {"na": 0, "out": 1}, {}, "gate g1: input net 'nx' not declared"),
        ((Gate("sa", "input_source", (), "na"),
          Gate("g1", "nor2", ("na", "na"), "out", "")),
         {"na": 0, "out": 1}, {}, "gate g1 has no parameter reference"),
        ((Gate("sa", "input_source", (), "na"),), {"na": 0, "": 0}, {},
         "bad net name ''"),
        ((Gate("sa", "input_source", (), "na"),
          Gate("g1", "nor2", ("na", "na"), "out", "nor")),
         {"na": 0, "out": 1}, {"g1": StimulusSpec(1e-11, 0.0, 1, 1)},
         "stimulus target 'g1' is not a source"),
        ((Gate("sa", "input_source", (), "na"),), {"na": 0},
         {"sa": (1e-11, 0.0, 1, 1)},
         "stimulus for 'sa' is malformed: (1e-11, 0.0, 1, 1)"),
    ], ids=["bad-id", "bad-output-net", "undeclared-output-net",
            "bad-input-net", "undeclared-input-net", "no-params-ref",
            "bad-net-name", "stimulus-for-gate", "malformed-spec"])
    def test_names_each_field_problem(self, gates, nets, stimuli, problem):
        with pytest.raises(NetlistError) as exc:
            validate_netlist(Netlist(gates=gates, nets=nets, stimuli=stimuli))
        assert problem in exc.value.problems

    def test_nan_t_end_rejected(self):
        nl = single_nor(stim_a=StimulusSpec(1e-10, 0.0, 6, 3))
        with pytest.raises(ValueError, match="t_end"):
            run(nl, LIB, t_end=math.nan)

    def test_t_end_beyond_float_range_is_a_value_error(self):
        # math.isnan would raise OverflowError on it
        nl = single_nor(stim_a=StimulusSpec(1e-10, 0.0, 6, 3))
        with pytest.raises(ValueError, match="^t_end must be a float"):
            run(nl, LIB, t_end=10 ** 400)

    @pytest.mark.parametrize("t_end", [True, "1e-12"])
    def test_t_end_bool_or_str_is_a_value_error(self, t_end):
        # True is not a time of 1 s, and "1e-12" is not a number
        nl = single_nor(stim_a=StimulusSpec(1e-10, 0.0, 6, 3))
        with pytest.raises(ValueError) as info:
            run(nl, LIB, t_end=t_end)
        assert str(info.value) == f"t_end must be a float, got {t_end!r}"

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0])
    def test_initial_value_is_an_int_bit(self, value):
        # the rule parse_netlist applies to a netlist document
        nl = single_nor()
        nl.nets["na"] = value
        with pytest.raises(NetlistError,
                           match="'na': initial value must be 0 or 1"):
            validate_netlist(nl)

    def test_initial_state_must_be_steady(self):
        nl = single_nor()
        nl.nets["out"] = 0
        with pytest.raises(NetlistError, match="inconsistent"):
            validate_netlist(nl)

    def test_missing_params_at_run(self):
        with pytest.raises(NetlistError, match="parameter set"):
            run(single_nor(), {})

    def test_wrong_params_kind_at_run(self):
        with pytest.raises(NetlistError, match="parameter set"):
            run(single_nor(), {"nor": CG_W3})

    @pytest.mark.parametrize("inverted", [False, True])
    @pytest.mark.parametrize("init", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_cgate_initial_consistency_at_run(self, inverted, init):
        # agreeing inputs fix the output at the gate's level; disagreeing
        # ones hold whatever it was
        a0, b0 = init
        lib = {"cg": replace(CG_W3, inverted=inverted)}
        for out0 in (0, 1):
            nl = single_cgate(out0=out0)
            nl.nets.update(na=a0, nb=b0)
            if a0 == b0 and out0 != (1 - a0 if inverted else a0):
                with pytest.raises(NetlistError, match="initial output"):
                    run(nl, lib)
            else:
                assert run(nl, lib).stats.events == 0

    def test_source_must_not_have_inputs(self):
        nl = Netlist(
            gates=(Gate("sa", "input_source", ("x",), "na"),),
            nets={"na": 0, "x": 0},
            stimuli={})
        with pytest.raises(NetlistError, match="must not have inputs"):
            validate_netlist(nl)


class TestExtremeParams:
    def test_changes_finite_and_in_time_order(self):
        # a NaN time would break the event heap's order without a sound
        for name, field, value, p in extreme_variants():
            nl, library = chain_of(p, 3, mu=5e-11, sigma=3e-11,
                                   n_transitions=20, seed=26)
            try:
                result = run(nl, library)
            except DomainError:
                continue
            times = [t for t, _, _ in result.changes]
            assert all(map(math.isfinite, times)), (name, field, value)
            assert times == sorted(times), (name, field, value)
