"""End-to-end tests of the command line interface."""

import argparse
import csv
import hashlib
import json
import math
import os
import random
import re
import runpy
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import chain_of, extreme_variants, measured_from
from misdelay import cli, sim
from misdelay.cli import main
from misdelay.fileio import (
    fixture_dir,
    list_fixtures,
    load_fixture,
    parse_params,
    serialize_measured,
    serialize_netlist,
    serialize_params,
)
from misdelay.gates import (DelayQuery, NorGateParams, _output_families,
                            cgate_delay, nor_delay)
from misdelay.numerics import DomainError
from misdelay.sim import build_cross_coupled_chain
from misdelay.trajectories import delay_by_ode

L3_PATH = str(fixture_dir() / "nor15_l3.json")
CG_PATH = str(fixture_dir() / "cgate15_l3.json")


def _stderr_diag(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


class TestCharacterize:

    def test_nor_round_trip(self, tmp_path):
        p = load_fixture("nor15_l3")
        m = measured_from(p)
        measured = tmp_path / "measured.json"
        out = tmp_path / "fitted.json"
        measured.write_text(serialize_measured(m))
        code = main(["characterize", "--gate", "nor2",
                     "--measured", str(measured),
                     "--c", repr(p.c_load), "--delta-min", repr(p.delta_min),
                     "-o", str(out)])
        assert code == 0
        fitted = parse_params(out.read_text())
        for attr in ("r_n_a", "r_n_b", "r", "alpha1", "alpha2", "r5"):
            assert getattr(fitted, attr) == pytest.approx(
                getattr(p, attr), rel=1e-6)

    def test_cgate_r5_choice_preserves_delays(self, tmp_path):
        p = load_fixture("cgate15_l3")
        m = measured_from(p)
        measured = tmp_path / "measured.json"
        out = tmp_path / "fitted.json"
        measured.write_text(serialize_measured(m))
        code = main(["characterize", "--gate", "cgate",
                     "--measured", str(measured),
                     "--c", repr(p.c_load), "--delta-min", repr(p.delta_min),
                     "--r5", "0", "-o", str(out)])
        assert code == 0
        fitted = parse_params(out.read_text())
        assert fitted.r5 == 0.0
        # the r5 share is a free convention; delays must be preserved
        for delta in (-3e-12, -1e-12, 0.0, 0.5e-12, 2e-12, math.inf):
            for direction in ("rising", "falling"):
                q = DelayQuery(direction, delta)
                assert cgate_delay(fitted, q) == pytest.approx(
                    cgate_delay(p, q), rel=1e-9)

    def test_r5_flag_rejected_for_nor(self, tmp_path, capsys):
        p = load_fixture("nor15_l3")
        measured = tmp_path / "measured.json"
        measured.write_text(serialize_measured(measured_from(p)))
        code = main(["characterize", "--gate", "nor2",
                     "--measured", str(measured), "--c", "1e-15",
                     "--r5", "10", "-o", str(tmp_path / "x.json")])
        assert code == 2
        diag = _stderr_diag(capsys)
        assert diag["error"] == "validation"
        assert "--r5" in diag["message"]

    def test_schema_error_reports_path(self, tmp_path, capsys):
        measured = tmp_path / "measured.json"
        measured.write_text('{"d_down_zero_s": 5e-12}')
        code = main(["characterize", "--gate", "nor2",
                     "--measured", str(measured), "--c", "1e-15",
                     "-o", str(tmp_path / "x.json")])
        assert code == 2
        diag = _stderr_diag(capsys)
        assert diag["type"] == "SchemaError"
        assert "path" in diag

    def test_inconsistent_measurements_exit_2(self, tmp_path, capsys):
        p = load_fixture("nor15_l3")
        m = measured_from(p)
        # swap the up-family ordering so validation collects problems
        bad = replace(m, d_up_minus_inf=m.d_up_zero, d_up_zero=m.d_up_inf,
                      d_up_inf=m.d_up_minus_inf)
        measured = tmp_path / "measured.json"
        measured.write_text(serialize_measured(bad))
        code = main(["characterize", "--gate", "nor2",
                     "--measured", str(measured), "--c", repr(p.c_load),
                     "--delta-min", repr(p.delta_min),
                     "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert _stderr_diag(capsys)["problems"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["characterize", "--gate", "nor2",
                     "--measured", str(tmp_path / "nope.json"),
                     "--c", "1e-15", "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert _stderr_diag(capsys)["error"] == "io"

    def test_usage_error_is_json_too(self, capsys):
        code = main(["characterize", "--gate", "xor2"])
        assert code == 2
        assert _stderr_diag(capsys)["error"] == "usage"


# float flag values at the ends of the range: zeros, subnormals, ±1e300
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-12, -1e-12, 1.0,
                1e7, -1e7, 1e300, -1e300, 1.7e308, -1.7e308)


class TestDelayCurve:

    def test_l3_down_family_endpoints(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["delay-curve", "--params", L3_PATH,
                     "--dmin", "-50e-12", "--dmax", "50e-12",
                     "--steps", "200", "-o", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 400
        p = load_fixture("nor15_l3")
        down = [r for r in rows if r["family"].startswith("down")]
        assert float(down[0]["delay_s"]) == nor_delay(
            p, DelayQuery("falling", -math.inf))
        assert float(down[-1]["delay_s"]) == nor_delay(
            p, DelayQuery("falling", math.inf))

    def test_oracle_rows_present_and_close(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["delay-curve", "--params", L3_PATH,
                     "--dmin", "-2e-12", "--dmax", "2e-12",
                     "--steps", "9", "--oracle", "trajectory",
                     "-o", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        by_source = {}
        for r in rows:
            key = (r["source"], r["family"], r["delta_s"])
            by_source[key] = float(r["delay_s"])
        for (source, family, delta), delay in by_source.items():
            if source != "trajectory_oracle" or not family.startswith("down"):
                continue
            # falling closed form is exact against the oracle
            assert delay == pytest.approx(
                by_source[("closed_form", family, delta)], abs=1e-12)

    def test_bad_grid_exit_2(self, tmp_path, capsys):
        code = main(["delay-curve", "--params", L3_PATH,
                     "--dmin", "1e-12", "--dmax", "-1e-12",
                     "--steps", "5", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--dmax" in _stderr_diag(capsys)["message"]

    @pytest.mark.parametrize("dmin, dmax", [("-1.5e308", "1.5e308"),
                                            ("0", "1.7e308"),
                                            ("1.0", "1.0000000000000002"),
                                            ("0", "5e-324")])
    def test_unusable_grid_exit_2(self, tmp_path, capsys, dmin, dmax):
        # the first grid's span is inf, so its first point was 0 * inf;
        # the second's last point was inf, a separation never asked for.
        # The last two span one ulp, which holds no three distinct
        # points; the CSV writer raised ValueError on them (exit 1)
        out = tmp_path / "x.csv"
        code = main(["delay-curve", "--params", L3_PATH, "--dmin", dmin,
                     "--dmax", dmax, "--steps", "3", "-o", str(out)])
        assert code == 2
        assert _stderr_diag(capsys)["type"] == "CliUsageError"
        assert not out.exists()

    @pytest.mark.parametrize("dmin,steps,message", [
        ("-1e-12", "1", "--steps must be at least 2"),
        ("nan", "5", "--dmin/--dmax must be finite"),
        ("inf", "5", "--dmin/--dmax must be finite"),
    ])
    def test_bad_grid_bounds_exit_2(self, tmp_path, capsys, dmin, steps,
                                    message):
        out = tmp_path / "x.csv"
        code = main(["delay-curve", "--params", L3_PATH, "--dmin", dmin,
                     "--dmax", "1e-12", "--steps", steps, "-o", str(out)])
        assert code == 2
        assert _stderr_diag(capsys)["message"] == message
        assert not out.exists()

    def test_ode_oracle_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["delay-curve", "--params", L3_PATH,
                     "--dmin", "-2e-12", "--dmax", "2e-12",
                     "--steps", "3", "--oracle", "ode", "-o", str(out)])
        assert code == 0
        p = load_fixture("nor15_l3")
        rows = [r for r in csv.DictReader(out.open())
                if r["source"] == "ode_oracle"]
        assert len(rows) == 6
        for r in rows:
            direction = ("falling" if r["family"].startswith("down")
                         else "rising")
            assert float(r["delay_s"]) == delay_by_ode(
                "nor2", direction, float(r["delta_s"]), p)

    def test_ode_oracle_within_the_skipped_tick_exit_0(self, tmp_path):
        # the falling NOR's first mode ends within the 1e-18 s tick that
        # each conducting mode skips; that was a traceback (exit 1)
        out = tmp_path / "curve.csv"
        code = main(["delay-curve", "--params", L3_PATH,
                     "--dmin", "-1e-18", "--dmax", "1e-18",
                     "--steps", "5", "--oracle", "ode", "-o", str(out)])
        assert code == 0
        rows = [r for r in csv.DictReader(out.open())
                if r["source"] == "ode_oracle"]
        assert len(rows) == 10
        assert all(math.isfinite(float(r["delay_s"])) for r in rows)

    def test_ode_horizon_below_float_spacing_exit_3(self, tmp_path, capsys):
        # the falling NOR's horizon (~1e-10 s) vanishes beside |delta| =
        # 1e7 s; the ODE chain used to raise ValueError on t_end
        out = tmp_path / "x.csv"
        code = main(["delay-curve", "--params", L3_PATH, "--dmin", "-1e7",
                     "--dmax", "1e7", "--steps", "3", "--oracle", "ode",
                     "-o", str(out)])
        assert code == 3
        assert _stderr_diag(capsys)["type"] == "DomainError"
        assert not out.exists()

    @seed(7)
    @settings(max_examples=100, deadline=None)
    @given(dmin=st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
           dmax=st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                          st.integers(0, 3)),
           steps=st.integers(-1, 6),
           params=st.sampled_from([L3_PATH, CG_PATH]),
           oracle=st.sampled_from(["none", "trajectory"]))
    def test_numeric_flags_exit_0_2_or_3(self, tmp_path_factory, dmin, dmax,
                                         steps, params, oracle):
        # an int dmax is that many ulps above dmin, a sub-ulp span
        # when steps - 1 exceeds it
        if isinstance(dmax, int):
            ulps, dmax = dmax, dmin
            for _ in range(ulps):
                dmax = math.nextafter(dmax, math.inf)
        out = tmp_path_factory.getbasetemp() / "flags.csv"
        code = main(["delay-curve", "--params", params, f"--dmin={dmin!r}",
                     f"--dmax={dmax!r}", f"--steps={steps}",
                     "--oracle", oracle, "-o", str(out)])
        assert code in (0, 2, 3), (dmin, dmax, steps)

    def test_largest_grids_stay_finite(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["delay-curve", "--params", L3_PATH, "--dmin", "0",
                     "--dmax", "8.9e307", "--steps", "3", "-o", str(out)])
        assert code == 0
        deltas = [float(r["delta_s"]) for r in csv.DictReader(out.open())]
        assert deltas == [0.0, 4.45e307, 8.9e307] * 2


# SHA-256 of `misdelay verify --params <fixture>` standard output per
# bundled fixture.  The oracles behind verify must reproduce these bytes
# exactly; ROADMAP item D, which moves the rising closed forms, changes
# the reported deviations and re-records these hashes.
VERIFY_STDOUT_SHA256 = {
    "cgate15_doublecap":
        "f8252074d1f484840f4307e4cb31c9af2e39b75466e1ec37208e63ce567fc162",
    "cgate15_doublecap_r5zero":
        "6773c854e4823449e03b08490d7777210cc5479c43a7565a6497e9a5bc605469",
    "cgate15_halfres":
        "26cb238b6445b741eba8d793b36d3a94ad9957647e92084e8a4b7c0295a42ebe",
    "cgate15_halfres_r5zero":
        "16113cbca8e9fc41901cb89e40dc2d1b602fabd74bea89182081b8735447fba4",
    "cgate15_isolated":
        "8ea5673b7a2b88df8eab6682252cf489d1bfa784437ed7bde235db01341a7031",
    "cgate15_l15":
        "e315b88181235de68f378227b5c3c06f176bff7ab4ce59c1548f0e66249a232c",
    "cgate15_l15_r5zero":
        "3d3ac9940584598b3f15eafd1b120bec4002913aa0c92e68d00004c231841a1f",
    "cgate15_l3":
        "7e731b242b0f1c323ec91c29ed66730c472d2fca423a539d2d846067ff294b70",
    "cgate15_l3_r5zero":
        "7275025d99df54893490beaa16d248e4fe36f80c781ed88a6fa01010437d1cda",
    "nor15_l15":
        "54f61b6cddb422756114e21cedece302f79295ca41fe2f21d439c4e4f7b808d1",
    "nor15_l15_doublecap":
        "9c4db7af4ac90a3d26c12e35950766ba1749e368786f67cbbcaa982cbbfb4bb6",
    "nor15_l15_fanout2":
        "31662fe8e85bb6ae6cedaec5f41d254280fca7ce8cb606315d3379778e351a02",
    "nor15_l15_fanout8":
        "c98424c42d65dd9b2abd85495627284920d2174914cbd589666b5cd1517e17bb",
    "nor15_l15_halfres":
        "6c361a521a32e87d8aa14b913710a27764ee5daf1798a9a8b22c916d54275373",
    "nor15_l15_strong":
        "9a55f7c54b2b70befe4f8552d7fd1ef0a6b534907eca7fed20ac5188d76b0778",
    "nor15_l15_weak":
        "2be2acdc513d2c57946cb60f82c192ceb21b5ab1f1990d2e4589adac1edca050",
    "nor15_l3":
        "101ee159e63cb88bf576cd33e953b4fdb0cd7649b534f89481309a899a3adf2d",
    "nor15_l3_fanout2":
        "8a3e2318ef647abdedaa4b8615b2adf58bf989b63f14124082946e3b5d5fdacc",
    "nor15_l3_fanout8":
        "50a889037eeb251ea29ccd47f703f1fe400a63ab9f8df9ab01d643890f885a4d",
    "nor65_l25":
        "a005ac41fe3a928355a871df36ea57fba7b70a3361ed5dd16093e405153fd2ee",
    "nor65_l5":
        "38050be4e72daf8a72ca8792600834a01ccd6314f19dfffeac2156f163b6879b",
}


class TestVerify:

    def test_single_fixture_report(self, capsys):
        code = main(["verify", "--params", L3_PATH])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        block = report["fixtures"]["nor15_l3"]
        assert block["pass"] is True
        assert max(block["exact_s"].values()) <= 1e-12
        assert set(block["linearized_rel"]) == {"up_plus", "up_minus"}

    def test_cgate_families_all_linearized(self, capsys):
        code = main(["verify", "--params", CG_PATH])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        block = report["fixtures"]["cgate15_l3"]
        assert set(block["linearized_rel"]) == {
            "down_plus", "down_minus", "up_plus", "up_minus"}

    def test_all_bundled_fixtures_pass_default_tolerances(self, capsys):
        code = main(["verify"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert len(report["fixtures"]) == 21

    def test_stdout_bytes_pinned_per_fixture(self, capsys):
        assert sorted(VERIFY_STDOUT_SHA256) == list_fixtures()
        for name, want in VERIFY_STDOUT_SHA256.items():
            code = main(["verify", "--params",
                         str(fixture_dir() / f"{name}.json")])
            out = capsys.readouterr().out
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, name

    @pytest.mark.parametrize("flag", ["--tol-exact", "--tol-linearized",
                                      "--tol-ode"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_exit_2(self, tmp_path, capsys, flag, value):
        # checked before any parameter file is read: this one is missing
        code = main(["verify", "--params", str(tmp_path / "absent.json"),
                     f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["type"] == \
            "CliUsageError"

    def test_repeated_stem_exit_2(self, tmp_path, capsys):
        # the report keys blocks by stem: a second x.json would replace
        # the first one's block while its pass flag still counted
        for sub, name in (("a", "nor15_l3"), ("b", "cgate15_l3")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.json").write_text(
                serialize_params(load_fixture(name)))
        code = main(["verify", "--params", str(tmp_path / "a" / "x.json"),
                     "--params", str(tmp_path / "b" / "x.json")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["type"] == "CliUsageError"
        assert "'x'" in diag["message"]

    def test_distinct_stems_each_reported(self, capsys):
        code = main(["verify", "--params", L3_PATH, "--params", CG_PATH])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["fixtures"]) == ["nor15_l3", "cgate15_l3"]

    def test_zero_tolerance_accepted(self, capsys):
        code = main(["verify", "--params", L3_PATH, "--tol-linearized", "0"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["linearized_rel"] == 0.0

    def test_inverted_cgate_swaps_families(self, tmp_path, capsys):
        # no bundled fixture is inverted; the inverted gate's falling
        # output is the plain gate's rising one, grid and clamps included
        base = load_fixture("cgate15_l3")
        path = tmp_path / "inverted.json"
        path.write_text(serialize_params(replace(base, inverted=True)))
        assert main(["verify", "--params", CG_PATH]) == 0
        plain = json.loads(capsys.readouterr().out)["fixtures"]["cgate15_l3"]
        assert main(["verify", "--params", str(path)]) == 0
        inv = json.loads(capsys.readouterr().out)["fixtures"]["inverted"]
        for column in ("exact_s", "linearized_rel", "ode_rel"):
            for side in ("plus", "minus"):
                assert inv[column][f"down_{side}"] == \
                    plain[column][f"up_{side}"], (column, side)
                assert inv[column][f"up_{side}"] == \
                    plain[column][f"down_{side}"], (column, side)

    def test_table_build_failure_exits_3(self, tmp_path, capsys):
        # transients this weak underflow the crossing-time argument
        # while the gate's tables are built
        path = tmp_path / "weak.json"
        path.write_text(serialize_params(replace(
            load_fixture("nor15_l3"), alpha1=1e-30, alpha2=1e-30)))
        code = main(["verify", "--params", str(path)])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["type"] == \
            "DomainError"

    def test_empty_fixture_directory_exit_2(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("MISDELAY_FIXTURES", str(tmp_path))
        code = main(["verify"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert (diag["type"], diag["message"]) == (
            "CliUsageError", "no parameter sets to verify")

    def test_tight_tolerance_fails_with_exit_3(self, capsys):
        code = main(["verify", "--params", L3_PATH,
                     "--tol-linearized", "1e-6"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False


# bytes no document reader may crash on: each must exit 2 with a
# SchemaError diagnostic
_UNREADABLE = {
    "non-utf8": (b'{"kind": "nor2\xff"}', "not valid UTF-8: "),
    "long-integer": (b'{"kind": ' + b"9" * 5000 + b"}",
                     "number out of range: "),
    "deep-nesting": (b'{"kind": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                     "nesting too deep"),
}


class TestUnreadableFiles:

    @pytest.mark.parametrize("command", ["verify", "simulate",
                                         "characterize", "delay-curve"])
    @pytest.mark.parametrize("case", sorted(_UNREADABLE))
    def test_exit_2_with_schema_error(self, tmp_path, capsys, command, case):
        data, message = _UNREADABLE[case]
        doc = tmp_path / "doc.json"
        doc.write_bytes(data)
        out = str(tmp_path / "out")
        argv = {
            "verify": ["verify", "--params", str(doc)],
            "simulate": ["simulate", "--netlist", str(doc), "-o", out,
                         "--stats", out + ".stats"],
            "characterize": ["characterize", "--gate", "nor2", "--measured",
                             str(doc), "--c", "1e-15", "-o", out],
            "delay-curve": ["delay-curve", "--params", str(doc), "--dmin",
                            "0", "--dmax", "1e-12", "--steps", "3",
                            "-o", out],
        }[command]
        code = main(argv)
        stdout, err = capsys.readouterr()
        assert code == 2
        assert stdout == ""
        diag = json.loads(err.strip().splitlines()[-1])
        assert diag["type"] == "SchemaError"
        assert diag["message"].startswith(message)
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestParserReuse:
    """main builds its parser once and reuses it across calls."""

    def test_parser_is_shared_and_build_parser_is_fresh(self):
        assert cli._shared_parser() is cli._shared_parser()
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._shared_parser()

    def test_not_built_at_import(self):
        code = ("import misdelay.cli as c; "
                "print(c._shared_parser.cache_info().currsize)")
        # the child imports the same package as this process
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "0\n"

    def test_module_entry_exits_with_the_code_of_main(self, monkeypatch,
                                                      capsys):
        # `python -m misdelay.cli`, run here in process
        monkeypatch.setattr(sys, "argv", ["misdelay", "verify", "--params",
                                          CG_PATH, "--bogus"])
        with warnings.catch_warnings(), pytest.raises(SystemExit) as info:
            # runpy warns that the module is already imported
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("misdelay.cli", run_name="__main__")
        assert info.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_appended_params_do_not_leak(self, capsys):
        assert main(["verify", "--params", L3_PATH]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["verify", "--params", CG_PATH]) == 0
        second = json.loads(capsys.readouterr().out)
        assert list(first["fixtures"]) == ["nor15_l3"]
        assert list(second["fixtures"]) == ["cgate15_l3"]

    def test_usage_error_leaves_no_trace(self, capsys):
        assert main(["verify", "--params", CG_PATH, "--bogus"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "usage"
        assert main(["verify", "--params", L3_PATH]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            VERIFY_STDOUT_SHA256["nor15_l3"]

    def test_help_twice(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["--help"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "delay-curve" in outs[0]

    def test_repeated_calls_byte_identical(self, capsys):
        outs = []
        for _ in range(3):
            assert main(["verify", "--params", CG_PATH,
                         "--tol-ode", "0.5"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0] and outs[2] == outs[0]
        assert json.loads(outs[0])["tolerances"]["ode_rel"] == 0.5


def _verify_points(table):
    """Every separation verify evaluates the closed form or an oracle
    at for one direction, whichever family is exact; the grids scale
    with the family's MIS length, as verify's do."""
    points = []
    for sign, bp in zip((1.0, -1.0), (table.bp0_plus, table.bp0_minus)):
        points += [sign * 2.0 * bp * i / (cli._EXACT_GRID - 1)
                   for i in range(cli._EXACT_GRID)]
        points += [0.0, sign * math.inf]
        points += [sign * bp * i / (cli._LINEAR_GRID + 1)
                   for i in range(1, cli._LINEAR_GRID + 1)]
        points += [sign * frac * bp for frac in cli._ODE_FRACTIONS]
    return points


class TestBoundTables:

    @pytest.mark.parametrize("name", list_fixtures())
    def test_bound_table_matches_public_delay(self, name):
        p = load_fixture(name)
        for direction in ("falling", "rising"):
            evaluate, table = _output_families(p)[direction == "rising"]
            points = _verify_points(table)
            assert {math.copysign(1.0, d) for d in points if d == 0.0} \
                == {1.0, -1.0}
            for d in points:
                want = nor_delay(p, DelayQuery(direction, d))
                assert evaluate(table, d).hex() == want.hex(), (direction, d)


class TestSimulate:

    def _write_chain(self, tmp_path, n_transitions=10):
        nl = build_cross_coupled_chain(2, params_ref="nor", mu=5e-11,
                                       sigma=3e-11,
                                       n_transitions=n_transitions, seed=4)
        path = tmp_path / "chain.json"
        path.write_text(serialize_netlist(nl, {"nor": load_fixture("nor15_l3")}))
        return path

    def test_runs_and_cross_checks(self, tmp_path):
        netlist = self._write_chain(tmp_path)
        vcd = tmp_path / "trace.vcd"
        stats = tmp_path / "stats.json"
        code = main(["simulate", "--netlist", str(netlist),
                     "-o", str(vcd), "--stats", str(stats)])
        assert code == 0
        doc = json.loads(stats.read_text())
        assert doc["events"] == sum(doc["transitions"].values())
        text = vcd.read_text()
        assert text.startswith("$timescale 1 fs $end\n")
        # every transition shows up as a value-change line
        changes = sum(1 for line in text.split("$end\n")[-1].splitlines()
                      if not line.startswith("#"))
        assert changes == doc["events"]

    def test_overflowing_stimulus_exit_2(self, tmp_path, capsys):
        nl = build_cross_coupled_chain(1, mu=1e308, sigma=0.0,
                                       n_transitions=3)
        netlist = tmp_path / "chain.json"
        netlist.write_text(serialize_netlist(nl, {"nor": load_fixture("nor15_l3")}))
        vcd, stats = tmp_path / "trace.vcd", tmp_path / "stats.json"
        assert main(["simulate", "--netlist", str(netlist), "-o", str(vcd),
                     "--stats", str(stats)]) == 2
        diag = _stderr_diag(capsys)
        assert diag["type"] == "NetlistError"
        assert len(diag["problems"]) == 2
        assert all("overflows the time range" in p for p in diag["problems"])
        assert not vcd.exists() and not stats.exists()

    def test_negative_delay_exit_3(self, tmp_path, capsys, monkeypatch):
        # no delay table gives a negative delay; a stand-in that does
        # reaches run()'s causality check
        netlist = self._write_chain(tmp_path)
        negative = (lambda table, delta: -1e-9, None)
        monkeypatch.setattr(sim, "_output_families",
                            lambda params: (negative, negative))
        vcd, stats = tmp_path / "trace.vcd", tmp_path / "stats.json"
        assert main(["simulate", "--netlist", str(netlist), "-o", str(vcd),
                     "--stats", str(stats)]) == 3
        assert _stderr_diag(capsys)["type"] == "CausalityError"
        assert not vcd.exists() and not stats.exists()

    def test_deterministic_vcd_bytes(self, tmp_path):
        netlist = self._write_chain(tmp_path)
        args = lambda v, s: ["simulate", "--netlist", str(netlist),
                             "-o", str(v), "--stats", str(s)]
        v1, s1 = tmp_path / "a.vcd", tmp_path / "a.json"
        v2, s2 = tmp_path / "b.vcd", tmp_path / "b.json"
        assert main(args(v1, s1)) == 0
        assert main(args(v2, s2)) == 0
        assert v1.read_bytes() == v2.read_bytes()

    # SHA-256 of the VCD and the stats event count for a seeded 5-stage
    # chain: of NOR gates (nor15_l3), and of inverted C gates (cgate15_l3)
    @pytest.mark.parametrize("kind,fixture,vcd_sha256,events", [
        ("nor2", "nor15_l3",
         "3ac1590f5c707eed1a75b571ecb8b65bfe9c7ef264c4d539e258488047f743f4",
         920),
        ("cgate", "cgate15_l3",
         "5c26b9fcd0806bfb6de722cec70d3d8eb47c762b112d540b8a23eaeadb9212af",
         700),
    ])
    def test_vcd_bytes_pinned(self, tmp_path, kind, fixture, vcd_sha256,
                              events):
        nl = build_cross_coupled_chain(5, params_ref="g", mu=5e-11,
                                       sigma=3e-11, n_transitions=100, seed=7)
        params = load_fixture(fixture)
        if kind == "cgate":
            params = replace(params, inverted=True)
            nl = replace(nl, gates=tuple(
                replace(g, kind="cgate") if g.kind == "nor2" else g
                for g in nl.gates))
        netlist = tmp_path / "chain.json"
        netlist.write_text(serialize_netlist(nl, {"g": params}))
        vcd, stats = tmp_path / "trace.vcd", tmp_path / "stats.json"
        assert main(["simulate", "--netlist", str(netlist), "-o", str(vcd),
                     "--stats", str(stats)]) == 0
        assert hashlib.sha256(vcd.read_bytes()).hexdigest() == vcd_sha256
        assert json.loads(stats.read_text())["events"] == events

    def test_t_end_truncates(self, tmp_path):
        netlist = self._write_chain(tmp_path, n_transitions=20)
        vcd = tmp_path / "trace.vcd"
        stats = tmp_path / "stats.json"
        assert main(["simulate", "--netlist", str(netlist), "-o", str(vcd),
                     "--stats", str(stats)]) == 0
        full = json.loads(stats.read_text())["events"]
        assert main(["simulate", "--netlist", str(netlist), "-o", str(vcd),
                     "--stats", str(stats), "--t-end", "2e-10"]) == 0
        short = json.loads(stats.read_text())["events"]
        assert 0 < short < full

    def test_infinite_stimulus_exit_2(self, tmp_path, capsys):
        netlist = self._write_chain(tmp_path)
        text = netlist.read_text()
        assert '"mu_s": 5e-11' in text
        netlist.write_text(text.replace('"mu_s": 5e-11', '"mu_s": 1e999'))
        code = main(["simulate", "--netlist", str(netlist),
                     "-o", str(tmp_path / "x.vcd"),
                     "--stats", str(tmp_path / "x.json")])
        assert code == 2
        diag = _stderr_diag(capsys)
        assert diag["type"] == "SchemaError"
        assert diag["path"].endswith(".mu_s")

    @pytest.mark.parametrize("t_end", ["nan", "-1e-10"])
    def test_bad_t_end_exit_2(self, tmp_path, capsys, t_end):
        # a NaN horizon would never stop the run; reject it up front
        netlist = self._write_chain(tmp_path)
        code = main(["simulate", "--netlist", str(netlist),
                     "-o", str(tmp_path / "x.vcd"),
                     "--stats", str(tmp_path / "x.json"), "--t-end", t_end])
        assert code == 2
        assert _stderr_diag(capsys)["type"] == "CliUsageError"
        assert not (tmp_path / "x.vcd").exists()

    def test_bad_netlist_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "gates": [{"id": "g", "kind": "nor2", "inputs": ["a", "b"],
                       "output": "q", "params_ref": "ghost"}],
            "nets": {"a": 0, "b": 0, "q": 1},
        }))
        code = main(["simulate", "--netlist", str(bad),
                     "-o", str(tmp_path / "x.vcd"),
                     "--stats", str(tmp_path / "x.json")])
        assert code == 2
        assert _stderr_diag(capsys)["type"] == "SchemaError"


class TestCommandSet:
    """The subcommands that the parser offers are the ones README documents."""

    def test_readme_sections_match_subcommands(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = re.search(r"^## Command line\n(.*?)(?=^## )", text,
                            re.MULTILINE | re.DOTALL).group(1)
        documented = re.findall(r"^### ([a-z][a-z-]*)$", section,
                                re.MULTILINE)
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert documented == list(sub.choices)

    def test_retired_bench_is_a_usage_error(self, capsys):
        assert main(["bench"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "usage"
        assert "'bench'" in diag["message"]


class TestExtremeParams:
    """A field near either end of the float range gives finite delays or
    a DomainError, and no command ends in a traceback (exit 1)."""

    def test_delays_finite_or_domain_error(self):
        rng = random.Random(26)
        deltas = [0.0, math.inf, -math.inf] + [
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -9.0)
            for _ in range(6)]
        for name, field, value, p in extreme_variants():
            for direction in ("rising", "falling"):
                for delta in deltas:
                    try:
                        d = nor_delay(p, DelayQuery(direction, delta))
                    except DomainError:
                        continue
                    assert math.isfinite(d), (name, field, value, delta)

    def test_commands_exit_0_2_or_3(self, tmp_path):
        params, netlist = tmp_path / "p.json", tmp_path / "chain.json"
        csv_out, vcd, stats = (str(tmp_path / name)
                               for name in ("c.csv", "t.vcd", "s.json"))
        for name, field, value, p in extreme_variants():
            nl, library = chain_of(p, 2, mu=5e-11, sigma=3e-11,
                                   n_transitions=10, seed=26)
            params.write_text(serialize_params(p))
            netlist.write_text(serialize_netlist(nl, library))
            for argv in (["verify", "--params", str(params)],
                         ["delay-curve", "--params", str(params), "--dmin",
                          "-1e-11", "--dmax", "1e-11", "--steps", "5",
                          "-o", csv_out],
                         ["simulate", "--netlist", str(netlist), "-o", vcd,
                          "--stats", stats]):
                assert main(argv) in (0, 2, 3), (name, field, value, argv[0])

    def test_falling_window_past_float_range(self, tmp_path, capsys):
        # 40 tau2 overflows the falling NOR oracles' window end; both
        # commands used to end in a bare ValueError (exit 1)
        p = NorGateParams(r_n_a=10, r_n_b=10, r=7e-104, alpha1=1e100,
                          alpha2=1e100, c_load=1e306, r5=0,
                          delta_min=4.32e-12)
        path, out = tmp_path / "p.json", tmp_path / "c.csv"
        path.write_text(serialize_params(p))
        closed = nor_delay(p, DelayQuery("falling", 0.0))
        for oracle in ("trajectory", "ode"):
            assert main(["delay-curve", "--params", str(path), "--dmin",
                         "-1e-12", "--dmax", "1e-12", "--steps", "3",
                         "--oracle", oracle, "-o", str(out)]) == 0
            falling = [float(r["delay_s"]) for r in csv.DictReader(out.open())
                       if r["source"] == f"{oracle}_oracle"
                       and r["family"].startswith("down")]
            assert len(falling) == 3
            assert all(math.isclose(d, closed, rel_tol=1e-6)
                       for d in falling)
        capsys.readouterr()
        # the exact families miss the absolute 1e-12 s bound by far at
        # delays of 3.5e306 s: a failed report, not a traceback
        assert main(["verify", "--params", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["fixtures"]["p"]["ode_rel"]["down_plus"] < 1e-6

    def test_time_constant_underflow_exits_3(self, tmp_path, capsys):
        # three extreme fields together: with r5 = 0 the switch-on time
        # constant 2r*c_eff = c_load*2r_p underflows to 0
        p = replace(load_fixture("cgate15_isolated"), c_load=2.6331e-115,
                    r_p=2.3215e-297, alpha1=1e300)
        path = tmp_path / "p.json"
        path.write_text(serialize_params(p))
        assert main(["verify", "--params", str(path)]) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["type"] == "DomainError"
