"""Tests for the document formats and the bundled fixture library."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import CG_ISO, CG_W3, NOR_A, NOR_B
from misdelay.characterize import MeasuredDelays
from misdelay.fileio import (
    SchemaError,
    _dumps,
    atomic_write,
    fixture_dir,
    list_fixtures,
    load_fixture,
    parse_measured,
    parse_netlist,
    parse_params,
    serialize_measured,
    serialize_netlist,
    serialize_params,
    serialize_stats,
    write_curve_csv,
    write_vcd,
)
from misdelay.gates import CGateParams, NorGateParams, ParamError
from misdelay.sim import (
    Gate,
    Netlist,
    SimStats,
    StimulusSpec,
    build_cross_coupled_chain,
    run,
)


class TestReferenceGates:
    """The shared reference gates restate bundled fixtures; a drift
    between a copy and its fixture must fail here, not downstream."""

    @pytest.mark.parametrize("name,ref", [
        ("nor15_l3", NOR_A), ("nor15_l15", NOR_B),
        ("cgate15_isolated", CG_ISO), ("cgate15_l3", CG_W3)])
    def test_equals_bundled_fixture(self, name, ref):
        fixture = load_fixture(name)
        assert type(fixture) is type(ref)
        for f in dataclasses.fields(ref):
            assert getattr(fixture, f.name) == getattr(ref, f.name), f.name


class TestParamsDocuments:

    def test_nor_round_trip(self):
        assert parse_params(serialize_params(NOR_A)) == NOR_A

    def test_cgate_round_trip(self):
        assert parse_params(serialize_params(CG_W3)) == CG_W3

    def test_inverted_flag_round_trip(self):
        inv = CGateParams(r_n=964.76, r_p=1146.0,
                          alpha1=645.48e-12, alpha2=264.94e-12,
                          alpha3=255.59e-12, alpha4=406.81e-12,
                          c_load=2.6331e-15, inverted=True)
        again = parse_params(serialize_params(inv))
        assert again.inverted is True
        assert parse_params(serialize_params(CG_W3)).inverted is False

    def test_bundled_l3_fixture(self):
        p = load_fixture("nor15_l3")
        assert isinstance(p, NorGateParams)
        assert p.r_n_a == 2193.6
        assert p.r5 == 399.41

    def test_missing_field_names_it(self):
        doc = json.loads(serialize_params(NOR_A))
        del doc["alpha2_ohm_s"]
        with pytest.raises(SchemaError, match="alpha2_ohm_s"):
            parse_params(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = json.loads(serialize_params(NOR_A))
        doc["vt_volts"] = 0.25
        with pytest.raises(SchemaError, match="vt_volts"):
            parse_params(json.dumps(doc))

    def test_unknown_kind(self):
        doc = json.loads(serialize_params(NOR_A))
        doc["kind"] = "nand2"
        with pytest.raises(SchemaError, match="kind"):
            parse_params(json.dumps(doc))

    def test_number_fields_reject_strings_and_nan(self):
        doc = json.loads(serialize_params(NOR_A))
        doc["r_ohm"] = "1277.1"
        with pytest.raises(SchemaError, match="r_ohm"):
            parse_params(json.dumps(doc))
        text = serialize_params(NOR_A).replace("1277.1", "NaN")
        with pytest.raises(SchemaError):
            parse_params(text)

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400])
    def test_number_fields_reject_values_beyond_float_range(self, literal):
        # 1e999 parses to inf and a long integer literal overflows float();
        # both must name the field, as a NaN literal does
        text = serialize_params(NOR_A).replace("1277.1", literal)
        with pytest.raises(SchemaError, match="r_ohm: expected a finite"):
            parse_params(text)

    def test_top_level_and_syntax_errors(self):
        with pytest.raises(SchemaError):
            parse_params("[1, 2]")
        with pytest.raises(SchemaError):
            parse_params("{not json")

    def test_invariant_violation_surfaces_as_param_error(self):
        doc = json.loads(serialize_params(NOR_A))
        doc["r_n_a_ohm"] = -5.0
        with pytest.raises(ParamError, match="r_n_a"):
            parse_params(json.dumps(doc))

    def test_serialize_parse_identity_500_random(self):
        rng = random.Random(12345)
        for _ in range(500):
            p = NorGateParams(
                r_n_a=rng.uniform(500.0, 8000.0),
                r_n_b=rng.uniform(500.0, 8000.0),
                r=rng.uniform(300.0, 2500.0),
                alpha1=rng.uniform(5e-10, 1e-8),
                alpha2=rng.uniform(5e-10, 1e-8),
                c_load=rng.uniform(5e-16, 2.5e-15),
                r5=rng.uniform(0.0, 800.0),
                delta_min=rng.uniform(0.0, 1e-11),
            )
            assert parse_params(serialize_params(p)) == p


class TestMeasuredDocuments:

    def _measured(self):
        return MeasuredDelays(d_down_minus_inf=6.4e-12, d_down_zero=5.1e-12,
                              d_down_inf=6.6e-12, d_up_minus_inf=7.9e-12,
                              d_up_zero=8.2e-12, d_up_inf=7.5e-12,
                              delta_min=4.32e-12, c_chosen=1.2831e-15)

    def test_round_trip(self):
        m = self._measured()
        again = parse_measured(serialize_measured(m), c_chosen=m.c_chosen,
                               delta_min=m.delta_min)
        assert again == m

    def test_document_carries_only_the_six_delays(self):
        doc = json.loads(serialize_measured(self._measured()))
        assert sorted(doc) == [
            "d_down_inf_s", "d_down_minus_inf_s", "d_down_zero_s",
            "d_up_inf_s", "d_up_minus_inf_s", "d_up_zero_s"]

    def test_missing_and_unknown_fields(self):
        doc = json.loads(serialize_measured(self._measured()))
        del doc["d_up_zero_s"]
        with pytest.raises(SchemaError, match="d_up_zero_s"):
            parse_measured(json.dumps(doc), c_chosen=1e-15)
        doc["d_up_zero_s"] = 8.2e-12
        doc["c_chosen_f"] = 1e-15
        with pytest.raises(SchemaError, match="c_chosen_f"):
            parse_measured(json.dumps(doc), c_chosen=1e-15)


class TestNetlistDocuments:

    def test_chain_round_trip(self):
        nl = build_cross_coupled_chain(3, params_ref="nor", mu=5e-11,
                                       sigma=3e-11, n_transitions=5, seed=2)
        library = {"nor": NOR_A}
        text = serialize_netlist(nl, library)
        again, lib_again = parse_netlist(text)
        assert again == nl
        assert lib_again == library

    def test_mixed_library_round_trip(self):
        nl = Netlist(
            gates=(Gate(id="s", kind="input_source", inputs=(), output="a"),
                   Gate(id="g", kind="cgate", inputs=("a", "a2"), output="q",
                        params_ref="cg")),
            nets={"a": 0, "a2": 0, "q": 0},
            stimuli={"s": StimulusSpec(mu=1e-11, sigma=0.0,
                                       n_transitions=4, seed=9)},
        )
        text = serialize_netlist(nl, {"cg": CG_W3})
        again, lib = parse_netlist(text)
        assert again == nl and lib == {"cg": CG_W3}

    def test_unresolved_params_ref(self):
        nl = Netlist(gates=(Gate(id="g", kind="nor2", inputs=("a", "b"),
                                 output="q", params_ref="ghost"),),
                     nets={"a": 0, "b": 0, "q": 1})
        text = serialize_netlist(nl, {"nor": NOR_A})
        with pytest.raises(SchemaError, match="params_ref"):
            parse_netlist(text)

    def test_net_initial_must_be_binary(self):
        doc = {"gates": [], "nets": {"a": 2}}
        with pytest.raises(SchemaError, match="nets.a"):
            parse_netlist(json.dumps(doc))
        doc = {"gates": [], "nets": {"a": True}}
        with pytest.raises(SchemaError, match="nets.a"):
            parse_netlist(json.dumps(doc))

    def test_stimulus_field_types(self):
        doc = {"gates": [{"id": "s", "kind": "input_source", "output": "a"}],
               "nets": {"a": 0},
               "stimuli": {"s": {"mu_s": 1e-11, "sigma_s": 0.0,
                                 "n_transitions": 2.5, "seed": 1}}}
        with pytest.raises(SchemaError, match="n_transitions"):
            parse_netlist(json.dumps(doc))

    def test_stimulus_rejects_infinite_mu(self):
        doc = {"gates": [{"id": "s", "kind": "input_source", "output": "a"}],
               "nets": {"a": 0},
               "stimuli": {"s": {"mu_s": 1e-11, "sigma_s": 0.0,
                                 "n_transitions": 2, "seed": 1}}}
        text = json.dumps(doc).replace("1e-11", "1e999")
        with pytest.raises(SchemaError, match="stimuli.s.mu_s"):
            parse_netlist(text)

    def test_gate_unknown_field(self):
        doc = {"gates": [{"id": "s", "kind": "input_source", "output": "a",
                          "flavor": "spicy"}],
               "nets": {"a": 0}}
        with pytest.raises(SchemaError, match="flavor"):
            parse_netlist(json.dumps(doc))


class TestCurveCsv:

    def test_rows_and_header(self):
        text = write_curve_csv([
            (-1e-12, 5.0e-12, "down_minus", "closed_form"),
            (0.0, 5.2e-12, "down_plus", "closed_form"),
            (1e-12, 5.1e-12, "down_plus", "closed_form"),
        ])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["delta_s", "delay_s", "family", "source"]
        assert len(rows) == 4
        # cells parse back to the exact floats
        assert float(rows[1][0]) == -1e-12
        assert float(rows[3][1]) == 5.1e-12

    def test_rejects_nan_and_unknown_labels(self):
        with pytest.raises(ValueError, match="NaN"):
            write_curve_csv([(0.0, math.nan, "down_plus", "closed_form")])
        with pytest.raises(ValueError, match="family"):
            write_curve_csv([(0.0, 1e-12, "sideways", "closed_form")])
        with pytest.raises(ValueError, match="source"):
            write_curve_csv([(0.0, 1e-12, "down_plus", "spice")])

    def test_delta_strictly_increasing_within_family(self):
        rows = [(0.0, 1e-12, "down_plus", "closed_form"),
                (0.0, 1e-12, "down_plus", "closed_form")]
        with pytest.raises(ValueError, match="increasing"):
            write_curve_csv(rows)
        # the same delta in another family or source is fine
        write_curve_csv([(0.0, 1e-12, "down_plus", "closed_form"),
                         (0.0, 1e-12, "up_plus", "closed_form"),
                         (0.0, 1e-12, "down_plus", "trajectory_oracle")])


def _vcd_change_counts(text):
    """Per-net value-change counts from a VCD document."""
    names = {}
    lines = text.splitlines()
    it = iter(lines)
    for line in it:
        if line.startswith("$var"):
            parts = line.split()
            names[parts[3]] = parts[4]
        elif line == "$dumpvars":
            break
    for line in it:
        if line == "$end":
            break
    counts = {net: 0 for net in names.values()}
    for line in it:
        if line.startswith("#"):
            continue
        counts[names[line[1:]]] += 1
    return counts


class _Seconds(float):
    """A float subclass, as a caller's own time type may be."""


class _ExactSeconds(Fraction):
    """A time type whose products stay exact and are no floats, as
    mpmath's mpf or a NumPy float32 products are."""

    def __mul__(self, other):
        return _ExactSeconds(Fraction(self) * Fraction(other))


class TestVcd:

    def test_empty_trace_has_declarations_only(self):
        text = write_vcd({}, {"a": 0, "b": 1})
        assert "$timescale 1 fs $end" in text
        assert "$var wire 1 ! a $end" in text
        assert "$var wire 1 \" b $end" in text
        assert "#" not in text
        # initial values still dumped
        assert "0!" in text and "1\"" in text

    def test_single_toggle_at_1ps(self):
        text = write_vcd({"a": [(1e-12, 1)]}, {"a": 0})
        assert "#1000\n1!" in text

    def test_same_femtosecond_changes_share_a_timestamp(self):
        text = write_vcd({"a": [(1e-12, 1)], "b": [(1e-12, 0)]},
                         {"a": 0, "b": 1})
        assert text.count("#1000") == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="net map"):
            write_vcd({"ghost": [(0.0, 1)]}, {"a": 0})
        with pytest.raises(ValueError, match="time-ordered"):
            write_vcd({"a": [(2e-12, 1), (1e-12, 0)]}, {"a": 0})
        with pytest.raises(ValueError, match="0 or 1"):
            write_vcd({"a": [(1e-12, 2)]}, {"a": 0})
        with pytest.raises(ValueError, match="0 or 1"):
            write_vcd({}, {"a": 3})

    @pytest.mark.parametrize("trace,initial,what", [
        ({"a": [(1e-12, True)]}, {"a": 0}, "change"),
        ({"a": [(1e-12, 1), (2e-12, 0.0)]}, {"a": 0}, "change"),
        ({"a": [(1e-12, 1.0)]}, {"a": 0}, "change"),
        ({}, {"a": False}, "initial"),
        ({}, {"a": 1.0}, "initial"),
    ])
    def test_bools_and_floats_are_not_bits(self, trace, initial, what):
        # a bool or float renders as "True!" or "0.0!", which is no VCD
        with pytest.raises(ValueError, match=f"{what} value must be 0 or 1"):
            write_vcd(trace, initial)

    @pytest.mark.parametrize("trace", [
        {"a": [(math.inf, 1)]},
        {"a": [(-math.inf, 1)]},
        {"a": [(math.nan, 1)]},
        {"a": [(0.0, 1)], "b": [(1e-12, 1), (math.inf, 0)]},
        {"a": [(0.0, 1)], "b": [(math.nan, 1), (1e-12, 0)]},
        {"a": [(_Seconds(math.inf), 1)]},
        {"a": [(10 ** 400, 1)]},
        {"a": [(0.0, 1)], "b": [(Fraction(10 ** 400), 1)]},
    ])
    def test_non_finite_time_names_its_net(self, trace):
        net = sorted(trace)[-1]
        with pytest.raises(ValueError,
                           match=f"net '{net}': change time is not finite"):
            write_vcd(trace, {"a": 0, "b": 0})

    def test_int_fraction_and_float_subclass_times_pinned(self):
        # every time type a trace may hold renders the same femtoseconds
        trace = {
            "a": [(0, 1), (1, 0), (3 * 10 ** 8, 1)],
            "b": [(Fraction(-7, 10 ** 15), 0), (Fraction(2, 3 * 10 ** 15), 1),
                  (Fraction(1, 3 * 10 ** 12), 0), (Fraction(5, 2), 1)],
            "c": [(_Seconds(-2.7e-15), 1), (_Seconds(2.5e-15), 0),
                  (_Seconds(1.0), 1)],
            "d": [(-5, 1), (Fraction(-1, 2), 0), (_Seconds(0.5e-15), 1),
                  (1, 0)],
        }
        text = write_vcd(trace, {"a": 0, "b": 1, "c": 0, "d": 0})
        assert text == oracles.reference_write_vcd(
            trace, {"a": 0, "b": 1, "c": 0, "d": 0})
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c126dc0040f6b98ef510d268eb183b2c08dfdbc2d656c7586d21ce5eb59a5ff7")

    def test_times_whose_products_are_not_floats_pinned(self):
        # round() rounds them; a float product ahead of one in the same
        # net does not change how the net renders
        trace = {"a": [(1e-15, 1), (_ExactSeconds(5, 2 * 10 ** 15), 0),
                       (_ExactSeconds(1, 3), 1)],
                 "b": [(_ExactSeconds(7, 2 * 10 ** 15), 1), (2, 0)]}
        text = write_vcd(trace, {"a": 0, "b": 0})
        assert text == oracles.reference_write_vcd(trace, {"a": 0, "b": 0})
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9ea247aa77eb2c900fc3d634cb0cb98ec18032d46688f938aef986258e24f332")

    def test_identifier_codes_past_one_character(self):
        nets = {f"n{i:03d}": i % 2 for i in range(200)}
        trace = {net: [(1e-12 * (i % 7), 1 - v)]
                 for i, (net, v) in enumerate(sorted(nets.items()))}
        assert write_vcd(trace, nets) == oracles.reference_write_vcd(trace,
                                                                     nets)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_renderer(self, data):
        # femtosecond buckets from negative to positive, several draws
        # per bucket, so nets tie with each other and with themselves
        names = data.draw(st.lists(st.sampled_from(
            ["a", "b", "c", "d", "e", "f", "x1", "x10", "x2"]),
            min_size=1, max_size=9, unique=True))
        initial = {net: data.draw(st.integers(0, 1)) for net in names}
        times = st.builds(lambda fs, frac: (fs + frac) * 1e-15,
                          st.integers(-20, 20),
                          st.sampled_from([0.0, 0.1, 0.25, 0.4]))
        trace = {}
        for net in names:
            if data.draw(st.booleans()):
                continue  # a net with no changes, absent from the trace
            ts = sorted(data.draw(st.lists(times, max_size=12)))
            trace[net] = [(t, data.draw(st.integers(0, 1))) for t in ts]
        assert write_vcd(trace, initial) == oracles.reference_write_vcd(
            trace, initial)

    def test_chain_counts_match_stats(self):
        nl = build_cross_coupled_chain(2, params_ref="nor", mu=5e-11,
                                       sigma=3e-11, n_transitions=10, seed=4)
        result = run(nl, {"nor": NOR_A})
        counts = _vcd_change_counts(write_vcd(result.trace, nl.nets))
        assert counts == result.stats.transitions

    def test_deterministic_bytes(self):
        nl = build_cross_coupled_chain(2, params_ref="nor", mu=5e-11,
                                       sigma=3e-11, n_transitions=10, seed=4)
        a = write_vcd(run(nl, {"nor": NOR_A}).trace, nl.nets)
        b = write_vcd(run(nl, {"nor": NOR_A}).trace, nl.nets)
        assert a == b


class TestStatsAndAtomicWrite:

    def test_stats_document(self):
        stats = SimStats(events=5, transitions={"b": 2, "a": 3},
                         wall_clock_s=0.25)
        doc = json.loads(serialize_stats(stats))
        assert doc == {"events": 5, "transitions": {"a": 3, "b": 2},
                       "wall_clock_s": 0.25}

    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(target, "first\n")
        atomic_write(target, "second\n")
        assert target.read_text() == "second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_atomic_write_failure_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.json"
        with pytest.raises(OSError):
            atomic_write(target, "text")
        assert not target.exists()

    def test_atomic_write_failed_write_removes_its_temp(self, tmp_path):
        # a lone surrogate cannot be encoded: the write fails after the
        # temp file exists
        target = tmp_path / "out.json"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(target, "new \ud800\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_atomic_write_failed_unlink_raises_the_first_error(
            self, tmp_path, monkeypatch):
        # the rename fails and so does removing the temp file: the
        # rename's error is the one reported
        def fail(name):
            def raise_(*args):
                raise PermissionError(f"{name} refused")
            return raise_
        target = tmp_path / "out.json"
        target.write_text("old\n")
        monkeypatch.setattr(os, "replace", fail("replace"))
        monkeypatch.setattr(os, "unlink", fail("unlink"))
        with pytest.raises(PermissionError, match="^replace refused$"):
            atomic_write(target, "new\n")
        assert target.read_text() == "old\n"


class TestFixtureLibrary:

    def test_bundled_set(self):
        names = list_fixtures()
        assert len(names) == 21
        assert "nor15_l3" in names and "cgate15_isolated" in names
        for name in names:
            load_fixture(name)

    def test_directory_override(self, tmp_path, monkeypatch):
        (tmp_path / "only.json").write_text(serialize_params(NOR_A))
        monkeypatch.setenv("MISDELAY_FIXTURES", str(tmp_path))
        assert fixture_dir() == tmp_path
        assert list_fixtures() == ["only"]
        assert load_fixture("only") == NOR_A
        with pytest.raises(KeyError):
            load_fixture("nor15_l3")

    def test_non_utf8_fixture_is_a_schema_error(self, tmp_path, monkeypatch):
        (tmp_path / "bad.json").write_bytes(b'{"kind": "nor2\xff"}')
        monkeypatch.setenv("MISDELAY_FIXTURES", str(tmp_path))
        with pytest.raises(SchemaError) as info:
            load_fixture("bad")
        assert info.value.path == ""
        assert str(info.value).startswith("not valid UTF-8: ")


# -- every SchemaError site, pinned -------------------------------------

class _Lit(str):
    """A raw JSON literal spliced into a document in place of a value."""


_DROP = object()


def _params_doc(params):
    return json.loads(serialize_params(params))


def _netlist_doc():
    return {
        "gates": [{"id": "s", "kind": "input_source", "output": "a"},
                  {"id": "g", "kind": "nor2", "inputs": ["a", "b"],
                   "output": "q", "params_ref": "nor"}],
        "nets": {"a": 0, "b": 0, "q": 1},
        "stimuli": {"s": {"mu_s": 1e-11, "sigma_s": 0.0,
                          "n_transitions": 2, "seed": 1}},
        "params": {"nor": _params_doc(NOR_A)},
    }


_BASES = {
    "params": lambda: _params_doc(NOR_A),
    "cgate": lambda: _params_doc(CG_W3),
    "measured": lambda: json.loads(serialize_measured(
        TestMeasuredDocuments()._measured())),
    "netlist": _netlist_doc,
}

_PARSERS = {
    "params": parse_params,
    "cgate": parse_params,
    "measured": lambda text: parse_measured(text, c_chosen=1e-15),
    "netlist": parse_netlist,
}


def _malformed(base, edits):
    """The base document with each (key path, value) edit applied; a
    value of _DROP deletes the key and a _Lit is spliced in verbatim."""
    doc = _BASES[base]()
    literals = {}
    for keys, value in edits:
        node = doc
        for key in keys[:-1]:
            node = node[key]
        if value is _DROP:
            del node[keys[-1]]
        elif isinstance(value, _Lit):
            marker = f"@lit{len(literals)}@"
            literals[json.dumps(marker)] = str(value)
            node[keys[-1]] = marker
        else:
            node[keys[-1]] = value
    text = json.dumps(doc)
    for marker, literal in literals.items():
        text = text.replace(marker, literal)
    return text


_HUGE = _Lit("1" + "0" * 400)

# (base document, edits, SchemaError path, full message); several
# cases carry two faults to pin which one is found first
_SCHEMA_CASES = [
    # whole documents
    ("params", [(("r_ohm",), _Lit("NaN"))], "",
     "non-finite number NaN is not allowed"),
    ("netlist", [(("nets", "a"), _Lit("-Infinity"))], "",
     "non-finite number -Infinity is not allowed"),
    ("measured", [(("d_up_inf_s",), _Lit("Infinity"))], "",
     "non-finite number Infinity is not allowed"),
    # parameter documents
    ("params", [(("kind",), _DROP)], "kind", "missing required field"),
    ("params", [(("kind",), 2)], "kind", "expected a string"),
    ("params", [(("kind",), "nand2")], "kind",
     "expected 'nor2' or 'cgate', got 'nand2'"),
    ("params", [(("kind",), "nand2"), (("r_ohm",), _DROP)], "kind",
     "expected 'nor2' or 'cgate', got 'nand2'"),
    ("params", [(("r_ohm",), _DROP)], "r_ohm", "missing required field"),
    ("params", [(("r_ohm",), "1277.1")], "r_ohm", "expected a number"),
    ("params", [(("r_ohm",), True)], "r_ohm", "expected a number"),
    ("params", [(("r_ohm",), None)], "r_ohm", "expected a number"),
    ("params", [(("r_ohm",), [1.0])], "r_ohm", "expected a number"),
    ("params", [(("r_ohm",), _Lit("1e999"))], "r_ohm",
     "expected a finite number"),
    ("params", [(("r_ohm",), _Lit("-1e999"))], "r_ohm",
     "expected a finite number"),
    ("params", [(("r_ohm",), _HUGE)], "r_ohm", "expected a finite number"),
    ("params", [(("delta_min_s",), "x"), (("r_n_a_ohm",), _DROP)],
     "r_n_a_ohm", "missing required field"),
    ("params", [(("inverted",), True)], "inverted", "unknown field"),
    ("params", [(("zz",), 1), (("vt_volts",), 0.25)], "vt_volts",
     "unknown field"),
    ("params", [(("metadata",), [])], "metadata", "expected an object"),
    ("params", [(("metadata",), {"label": 3})], "metadata.label",
     "expected a string"),
    ("params", [(("metadata",), {"technology": None})],
     "metadata.technology", "expected a string"),
    ("params", [(("metadata",), {"wire_length_um": "3"})],
     "metadata.wire_length_um", "expected a number"),
    ("params", [(("metadata",), {}),
                (("metadata", "wire_length_um"), _Lit("1e999"))],
     "metadata.wire_length_um", "expected a finite number"),
    ("params", [(("metadata",), {"spice_deck": "x.sp"})],
     "metadata.spice_deck", "unknown field"),
    ("params", [(("metadata",), {"spice_deck": "x.sp"}), (("zz",), 1)],
     "metadata.spice_deck", "unknown field"),
    ("cgate", [(("inverted",), "yes")], "inverted", "expected a boolean"),
    ("cgate", [(("inverted",), 1), (("metadata",), [])], "inverted",
     "expected a boolean"),
    ("cgate", [(("alpha4_ohm_s",), _DROP)], "alpha4_ohm_s",
     "missing required field"),
    ("cgate", [(("r_n_a_ohm",), 1.0)], "r_n_a_ohm", "unknown field"),
    # measured-delay documents
    ("measured", [(("d_up_zero_s",), _DROP)], "d_up_zero_s",
     "missing required field"),
    ("measured", [(("d_down_zero_s",), "5e-12")], "d_down_zero_s",
     "expected a number"),
    ("measured", [(("d_down_zero_s",), _HUGE)], "d_down_zero_s",
     "expected a finite number"),
    ("measured", [(("c_chosen_f",), 1e-15)], "c_chosen_f", "unknown field"),
    ("measured", [(("c_chosen_f",), 1e-15), (("d_up_inf_s",), _DROP)],
     "d_up_inf_s", "missing required field"),
    # netlists: gates
    ("netlist", [(("gates",), _DROP)], "gates", "missing required field"),
    ("netlist", [(("gates",), {})], "gates", "expected an array"),
    ("netlist", [(("gates",), _DROP), (("nets",), _DROP)], "gates",
     "missing required field"),
    ("netlist", [(("gates", 1), "g")], "gates[1]", "expected an object"),
    ("netlist", [(("gates", 0, "id"), _DROP)], "gates[0].id",
     "missing required field"),
    ("netlist", [(("gates", 0, "id"), 7)], "gates[0].id",
     "expected a string"),
    ("netlist", [(("gates", 1, "kind"), _DROP)], "gates[1].kind",
     "missing required field"),
    ("netlist", [(("gates", 1, "inputs"), "ab")], "gates[1].inputs",
     "expected an array of net names"),
    ("netlist", [(("gates", 1, "inputs"), ["a", 1])], "gates[1].inputs",
     "expected an array of net names"),
    ("netlist", [(("gates", 1, "output"), _DROP)], "gates[1].output",
     "missing required field"),
    ("netlist", [(("gates", 1, "output"), ["q"])], "gates[1].output",
     "expected a string"),
    ("netlist", [(("gates", 1, "params_ref"), 3)], "gates[1].params_ref",
     "expected a string"),
    ("netlist", [(("gates", 0, "flavor"), "spicy")], "gates[0].flavor",
     "unknown field"),
    ("netlist", [(("gates", 1, "flavor"), "x"), (("gates", 0, "id"), 1)],
     "gates[0].id", "expected a string"),
    ("netlist", [(("gates", 1, "params_ref"), "ghost")], "gates[1].params_ref",
     "no entry 'ghost' in params"),
    ("netlist", [(("gates", 1, "params_ref"), _DROP)], "gates[1].params_ref",
     "no entry '' in params"),
    # netlists: nets
    ("netlist", [(("nets",), _DROP)], "nets", "missing required field"),
    ("netlist", [(("nets",), [])], "nets", "expected an object"),
    ("netlist", [(("nets", "b"), 2)], "nets.b", "expected 0 or 1"),
    ("netlist", [(("nets", "b"), True)], "nets.b", "expected 0 or 1"),
    ("netlist", [(("nets", "b"), 1.0)], "nets.b", "expected 0 or 1"),
    ("netlist", [(("nets",), []), (("gates", 0, "id"), _DROP)],
     "gates[0].id", "missing required field"),
    # netlists: stimuli
    ("netlist", [(("stimuli",), [])], "stimuli", "expected an object"),
    ("netlist", [(("stimuli", "s"), 3)], "stimuli.s", "expected an object"),
    ("netlist", [(("stimuli", "s", "mu_s"), _DROP)], "stimuli.s.mu_s",
     "missing required field"),
    ("netlist", [(("stimuli", "s", "mu_s"), "1e-11")], "stimuli.s.mu_s",
     "expected a number"),
    ("netlist", [(("stimuli", "s", "mu_s"), _Lit("1e999"))],
     "stimuli.s.mu_s", "expected a finite number"),
    ("netlist", [(("stimuli", "s", "sigma_s"), _HUGE)], "stimuli.s.sigma_s",
     "expected a finite number"),
    ("netlist", [(("stimuli", "s", "n_transitions"), 2.5)],
     "stimuli.s.n_transitions", "expected an integer"),
    ("netlist", [(("stimuli", "s", "n_transitions"), True)],
     "stimuli.s.n_transitions", "expected an integer"),
    ("netlist", [(("stimuli", "s", "seed"), _DROP)], "stimuli.s.seed",
     "missing required field"),
    ("netlist", [(("stimuli", "s", "seed"), "1")], "stimuli.s.seed",
     "expected an integer"),
    ("netlist", [(("stimuli", "s", "burst"), 1)], "stimuli.s.burst",
     "unknown field"),
    ("netlist", [(("stimuli",), []), (("nets", "a"), 5)], "nets.a",
     "expected 0 or 1"),
    # netlists: parameter library
    ("netlist", [(("params",), [])], "params", "expected an object"),
    ("netlist", [(("params", "nor"), "nor15_l3")], "params.nor",
     "expected an object"),
    ("netlist", [(("params", "nor", "kind"), "nand2")], "params.nor.kind",
     "expected 'nor2' or 'cgate', got 'nand2'"),
    ("netlist", [(("params", "nor", "r_ohm"), _DROP)], "params.nor.r_ohm",
     "missing required field"),
    ("netlist", [(("params", "nor", "metadata"), {"x": 1})],
     "params.nor.metadata.x", "unknown field"),
    ("netlist", [(("params", "nor", "vt"), 1)], "params.nor.vt",
     "unknown field"),
    ("netlist", [(("params",), []), (("stimuli", "s"), 1)], "stimuli.s",
     "expected an object"),
    # netlists: the top level
    ("netlist", [(("extra",), 1)], "extra", "unknown field"),
    ("netlist", [(("extra",), 1), (("params", "nor"), 1)], "params.nor",
     "expected an object"),
    ("netlist", [(("extra",), 1), (("gates", 1, "params_ref"), "ghost")],
     "extra", "unknown field"),
]


class TestSchemaErrorsPinned:
    """Each malformed document's first fault, as (exc.path, str(exc))."""

    @pytest.mark.parametrize("base,edits,path,message", _SCHEMA_CASES)
    def test_first_fault_pinned(self, base, edits, path, message):
        with pytest.raises(SchemaError) as info:
            _PARSERS[base](_malformed(base, edits))
        want = f"{path}: {message}" if path else message
        assert (info.value.path, str(info.value)) == (path, want)

    @pytest.mark.parametrize("parse", sorted(_PARSERS))
    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "top level must be an object"),
        ('"nor2"', "top level must be an object"),
        ("{not json", "not valid JSON: Expecting property name enclosed in "
                      "double quotes: line 1 column 2 (char 1)"),
        ("", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ])
    def test_document_level_faults(self, parse, text, message):
        with pytest.raises(SchemaError) as info:
            _PARSERS[parse](text)
        assert (info.value.path, str(info.value)) == ("", message)

    @pytest.mark.parametrize("parse", sorted(_PARSERS))
    @pytest.mark.parametrize("text,message", [
        ('{"kind": ' + "9" * 5000 + "}", "number out of range: "),
        ('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "nesting too deep"),
    ], ids=["long-integer", "deep-nesting"])
    def test_unparsable_text_is_a_schema_error(self, parse, text, message):
        # json.loads raises ValueError and RecursionError on these
        with pytest.raises(SchemaError) as info:
            _PARSERS[parse](text)
        assert info.value.path == ""
        assert str(info.value).startswith(message)



class TestDuplicateKeys:
    """A repeated key is an error, never a silent last-one-wins."""

    @pytest.mark.parametrize("base,old,new,key", [
        ("params", '"r_ohm": 1277.1,', '"r_ohm": 1277.1, "r_ohm": 9.0,',
         "r_ohm"),
        ("measured", '"d_up_inf_s": 7.5e-12',
         '"d_up_inf_s": 7.5e-12, "d_up_inf_s": 1e-12', "d_up_inf_s"),
        ("netlist", '"nets": {"a": 0,', '"nets": {"a": 0, "a": 1,', "a"),
        ("netlist", '"seed": 1}', '"seed": 1, "seed": 2}', "seed"),
        ("netlist", '"params": {"nor": {"kind": "nor2",',
         '"params": {"nor": {"kind": "nor2", "kind": "nor2",', "kind"),
        ("netlist", '"stimuli":', '"nets": {}, "stimuli":', "nets"),
    ])
    def test_rejected_naming_the_key(self, base, old, new, key):
        text = _malformed(base, [])
        assert text.count(old) == 1
        with pytest.raises(SchemaError) as info:
            _PARSERS[base](text.replace(old, new))
        assert (info.value.path, str(info.value)) == (
            "", f"duplicate key {key!r}")


class TestSerializerBytesPinned:
    """SHA-256 of the serializers' output; any byte that moves fails."""

    PARAMS_SHA256 = (
        "d1c9f7df6a611628ba7c30c3178e5ea34efeecc1dd8e0021b5896e06b53844ba")
    NETLIST_SHA256 = (
        "81e979baa529f627912282b09088a25ad72728fdfa7d1b98b3b5ee052d054b5b")
    STATS_SHA256 = (
        "4ede303c92634c1bac1f1bf527e4642c29b878f191772dd6045ce561e9cfd428")

    def test_params_and_measured_bytes(self):
        out = [serialize_params(load_fixture(name)) for name in list_fixtures()]
        out.append(serialize_params(dataclasses.replace(CG_W3, inverted=True)))
        out.append(serialize_measured(TestMeasuredDocuments()._measured()))
        assert hashlib.sha256("".join(out).encode()).hexdigest() == (
            self.PARAMS_SHA256)

    def test_chain_netlist_bytes(self):
        nl = build_cross_coupled_chain(20, params_ref="nor", mu=5e-11,
                                       sigma=3e-11, n_transitions=40, seed=7)
        library = {"nor": load_fixture("nor15_l3"),
                   "cg": load_fixture("cgate15_l3")}
        text = serialize_netlist(nl, library)
        assert hashlib.sha256(text.encode()).hexdigest() == self.NETLIST_SHA256

    def test_stats_bytes(self):
        stats = SimStats(events=40321,
                         transitions={"x9": 17, "a": 3, "out_b": 0, "M": 12,
                                      "b_1": 250},
                         wall_clock_s=0.012345678901234567)
        text = serialize_stats(stats)
        assert hashlib.sha256(text.encode()).hexdigest() == self.STATS_SHA256


# names with quotes, backslashes, control characters, a lone surrogate
# and non-ASCII text
_NAMES = st.text('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\u20ac\ud800'
                 '\U0001f600ab_ ', max_size=5)
_FIXTURES = st.sampled_from([load_fixture(name) for name in list_fixtures()])
_LIBRARY_PARAMS = st.builds(
    lambda p, scale, inverted: dataclasses.replace(
        p, c_load=p.c_load * scale,
        **({"inverted": inverted} if isinstance(p, CGateParams) else {})),
    _FIXTURES, st.floats(0.5, 2.0), st.booleans())
_GATES = st.builds(
    Gate, id=_NAMES, kind=st.sampled_from(["nor2", "cgate", "input_source"]),
    inputs=st.lists(_NAMES, max_size=3).map(tuple), output=_NAMES,
    params_ref=st.one_of(st.just(""), _NAMES))
_STIMULI = st.builds(StimulusSpec, mu=st.floats(), sigma=st.floats(),
                     n_transitions=st.integers(0, 10 ** 6),
                     seed=st.integers(0, 2 ** 64))
_NETLISTS = st.builds(
    Netlist, gates=st.lists(_GATES, max_size=4).map(tuple),
    nets=st.dictionaries(_NAMES, st.integers(0, 1), max_size=4),
    stimuli=st.dictionaries(_NAMES, _STIMULI, max_size=2))

_FLOATS = st.one_of(st.floats(),
                    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
                     st.integers(-(2 ** 200), -(2 ** 64)),
                     st.integers(2 ** 64, 2 ** 200), _NAMES)
_KEYS = st.one_of(_NAMES, st.integers(), _FLOATS, st.booleans(), st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=12)


class TestIndentWriter:
    """The one JSON writer against json.dumps(indent=2) and the netlist
    serializer against its dict-per-gate reference, byte for byte."""

    @given(_NETLISTS, st.dictionaries(_NAMES, _LIBRARY_PARAMS, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_netlist_matches_reference(self, nl, library):
        assert serialize_netlist(nl, library) == (
            oracles.reference_serialize_netlist(nl, library))

    @given(_VALUES)
    @settings(max_examples=40, deadline=None)
    @example({"a": [], "b": {}, "c": (), "d": [[], {}]})
    @example([None, True, False, -0.0, math.nan, math.inf, -math.inf,
              2 ** 100, -(2 ** 70), (1, "t\u00e9\n\"")])
    @example({1: "int", 2.5: "float", False: "bool", None: "null",
              math.inf: "inf", "": {"": []}})
    @example("top-level \\ string")
    def test_dumps_matches_json(self, value):
        assert _dumps(value) == json.dumps(value, indent=2) + "\n"

    def test_rejects_what_json_rejects(self):
        for value in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                _dumps(value)

    @pytest.mark.parametrize("bad", [
        dict(id=None), dict(kind=2), dict(inputs=("a", 3)), dict(output=5),
        dict(params_ref=7), dict(inputs=5)])
    def test_non_string_gate_field_names_gate(self, bad):
        fields = dict(id="g", kind="nor2", inputs=("a", "b"), output="q",
                      params_ref="nor")
        fields.update(bad)
        gate = Gate(**fields)
        nl = Netlist(gates=(Gate(id="s", kind="input_source", inputs=(),
                                 output="a"), gate),
                     nets={"a": 0, "b": 0, "q": 1})
        with pytest.raises(TypeError) as info:
            serialize_netlist(nl, {"nor": NOR_A})
        assert str(info.value) == (
            f"gates[1]: every field must be a string (inputs a sequence of "
            f"them), got {gate!r}")
