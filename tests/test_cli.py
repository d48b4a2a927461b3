import argparse
import collections
import dataclasses
import enum
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewalks import cli, graphs, walks
from latticewalks.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestWalksCommand:
    def test_halfplane_golden_rows(self, capsys):
        code, out, _ = run(capsys, "walks", "--kind", "halfplane", "--mmax", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# params: command=walks kind=halfplane")
        assert lines[1] == "m,ball_count,closed_form,match"
        assert "4,12,12,true" in lines
        assert "6,100,100,true" in lines

    def test_bcc_golden_row(self, capsys):
        code, out, _ = run(capsys, "walks", "--kind", "bcc3", "--mmax", "4")
        assert code == 0
        assert "2,8,8,true" in out.splitlines()

    def test_parametric_kind(self, capsys):
        code, out, _ = run(capsys, "walks", "--kind", "strip", "--n", "3",
                           "--mmax", "4")
        assert code == 0
        assert "4,12,12,true" in out.splitlines()

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "walks", "--kind", "wedge", "--mmax", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["kind"] == "wedge"
        assert doc["rows"][4] == {"m": 4, "ball_count": 4, "closed_form": 4,
                                  "match": True}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "walks", "--kind", "z2", "--mmax", "8")
        _, second, _ = run(capsys, "walks", "--kind", "z2", "--mmax", "8")
        assert first == second

    def test_unknown_kind_fails(self, capsys):
        code, _, err = run(capsys, "walks", "--kind", "hexagon", "--mmax", "4")
        assert code == 1
        assert "unknown lattice kind" in err

    def test_three_d_cap(self, capsys):
        code, _, err = run(capsys, "walks", "--kind", "bcc3", "--mmax", "26")
        assert code == 1
        assert "cap 24" in err

    def test_low_dimension_cap(self, capsys):
        code, _, err = run(capsys, "walks", "--kind", "z", "--mmax", "41")
        assert code == 1
        assert "cap 40" in err
        code, _, _ = run(capsys, "walks", "--kind", "z", "--mmax", "30")
        assert code == 0

    def test_missing_parameter_fails(self, capsys):
        code, _, err = run(capsys, "walks", "--kind", "strip", "--mmax", "4")
        assert code == 1
        assert "requires parameter n" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mismatch_exits_one(self, capsys, monkeypatch, fmt):
        closed = walks.closed_form_walks
        monkeypatch.setattr(walks, "closed_form_walks",
                            lambda kind, m, **params: closed(kind, m, **params) + 1)
        code, out, _ = run(capsys, "walks", "--kind", "wedge", "--mmax", "4",
                           "--format", fmt)
        assert code == 1
        if fmt == "csv":
            assert "4,4,5,false" in out.splitlines()
        else:
            assert json.loads(out)["rows"][4]["match"] is False


class TestBudgetPlumbing:
    def test_env_budget_limits_expansion(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_WALKS_BUDGET", "10")
        code, _, err = run(capsys, "walks", "--kind", "z2", "--mmax", "12")
        assert code == 1
        assert "budget" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_WALKS_BUDGET", "10")
        code, _, _ = run(capsys, "walks", "--kind", "z2", "--mmax", "12",
                         "--radius-budget", "100000")
        assert code == 0

    def test_malformed_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_WALKS_BUDGET", "lots")
        code, _, err = run(capsys, "walks", "--kind", "z", "--mmax", "4")
        assert code == 1
        assert "LATTICE_WALKS_BUDGET" in err

    @pytest.mark.parametrize("argv,budgeted", [
        ("walks --kind hexagon --mmax 4", True),
        ("iso --kind hexagon", True),
        ("verify --suite identity", True),
        ("components --kind hexagon", True),
        ("moments --kind ww --mmax 4", False),
        ("density --kind ww --grid 5", False),
    ])
    def test_malformed_env_budget_on_every_command(self, capsys, monkeypatch,
                                                    argv, budgeted):
        # the budget is resolved before the command runs, so it is reported
        # ahead of an unknown kind; moments and density take no budget
        monkeypatch.setenv("LATTICE_WALKS_BUDGET", "lots")
        code, out, err = run(capsys, *argv.split())
        if budgeted:
            assert (code, out) == (1, "")
            assert err == "error: LATTICE_WALKS_BUDGET must be an integer, got 'lots'\n"
        else:
            assert (code, err) == (0, "")


class TestMomentsCommand:
    def test_ww_moments(self, capsys):
        code, out, _ = run(capsys, "moments", "--kind", "ww", "--mmax", "8")
        assert code == 0
        assert out.splitlines()[1:] == ["m,moment", "0,1", "1,0", "2,1", "3,0",
                                        "4,4", "5,0", "6,25", "7,0", "8,196"]

    def test_odd_path_moments_print_zero(self, capsys):
        code, out, _ = run(capsys, "moments", "--kind", "path", "--n", "24",
                           "--mmax", "40")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == 41
        assert all(v == "0" for m, v in rows if int(m) % 2)
        assert ["39", "0"] in rows

    def test_path_moments_are_exact(self, capsys):
        code, out, _ = run(capsys, "moments", "--kind", "path", "--n", "2",
                           "--mmax", "40")
        assert code == 0
        assert out.splitlines()[-1] == "40,1"
        code, out, _ = run(capsys, "moments", "--kind", "path", "--n", "24",
                           "--mmax", "40", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(type(r["moment"]) is int for r in rows)
        assert rows[39]["moment"] == 0 and '"moment": 0\n' in out
        assert rows[40]["moment"] == 6564120420

    def test_path_requires_n(self, capsys):
        code, _, err = run(capsys, "moments", "--kind", "path", "--mmax", "4")
        assert code == 1
        assert err == "error: moment kind 'path' requires parameter n\n"

    def test_moment_cap(self, capsys):
        code, _, err = run(capsys, "moments", "--kind", "aa", "--mmax", "44")
        assert code == 1
        assert "cap" in err


class TestDensityCommand:
    def test_grid_layout(self, capsys):
        code, out, _ = run(capsys, "density", "--kind", "ww", "--grid", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x,density"
        assert lines[2].startswith("-4,") and lines[-1].startswith("4,")
        assert lines[4] == "0,inf"

    def test_json_marks_infinity_as_string(self, capsys):
        code, out, _ = run(capsys, "density", "--kind", "aa", "--grid", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][1] == {"x": 0.0, "density": "inf"}

    def test_tiny_grid_rejected(self, capsys):
        code, _, err = run(capsys, "density", "--kind", "aa", "--grid", "1")
        assert code == 1
        assert "grid" in err

    def test_grid_cap(self, capsys):
        code, out, err = run(capsys, "density", "--kind", "aa", "--grid", "100002")
        assert (code, out) == (1, "")
        assert err == "error: grid 100002 exceeds the density-grid cap 100001\n"


class TestComponentsCommand:
    def test_kronecker_split(self, capsys):
        code, out, _ = run(capsys, "components", "--n", "2", "--k", "3")
        assert code == 0
        rows = out.splitlines()[2:]
        assert rows == ['0,3,"0,0"', '1,3,"0,1"']

    def test_cartesian_connected(self, capsys):
        code, out, _ = run(capsys, "components", "--kind", "cartesian",
                           "--n", "2", "--k", "3")
        assert code == 0
        assert out.splitlines()[2:] == ['0,6,"0,0"']

    @pytest.mark.parametrize("via_env", [False, True])
    def test_budget_limits_product_vertices(self, capsys, monkeypatch, via_env):
        argv = ["components", "--n", "3", "--k", "3"]
        if via_env:
            monkeypatch.setenv("LATTICE_WALKS_BUDGET", "8")
        else:
            argv += ["--radius-budget", "8"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "9 vertices" in err and "budget 8" in err
        assert "--radius-budget" in err and "LATTICE_WALKS_BUDGET" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_budget_at_product_size_passes(self, capsys, fmt):
        argv = ["components", "--n", "3", "--k", "3", "--format", fmt]
        code, full, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--radius-budget", "9")
        assert code == 0
        budget = "radius_budget={}" if fmt == "csv" else '"radius_budget": {}'
        assert out == full.replace(budget.format(5000000), budget.format(9), 1)

    def test_nonpositive_sizes_rejected_before_budget(self, capsys):
        code, _, err = run(capsys, "components", "--n", "-3000", "--k", "-3000")
        assert code == 1
        assert err == "error: path needs at least one vertex\n"


class TestIsoCommand:
    def test_strip_map_verifies(self, capsys):
        code, out, _ = run(capsys, "iso", "--kind", "strip", "--n", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["source_size"] == doc["target_size"]

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "iso", "--kind", "diamond", "--k", "4")
        assert code == 1
        assert err == "error: fold kind 'diamond' requires parameter l\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "iso", "--kind", "wedge", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "name,radius,ok,detail,source_size,target_size"


_KNOWN = {"lattice": ", ".join(walks.lattice_walk_kinds()),
          "moment": "arcsine, semicircle, aa, wa, ww, classical-aa, classical-ww, path",
          "fold": "plane, strip, halfplane, wedge, diamond",
          "density": "aa, wa, ww",
          "product": "kron, cartesian"}


@pytest.mark.parametrize("argv,message", [
    ("walks --kind hexagon --mmax 4", f"unknown lattice kind 'hexagon'; known: {_KNOWN['lattice']}"),
    ("walks --kind Z2 --mmax 4", f"unknown lattice kind 'Z2'; known: {_KNOWN['lattice']}"),
    ("walks --kind strip --mmax 4", "lattice kind 'strip' requires parameter n"),
    ("walks --kind z --n 3 --mmax 4", "lattice kind 'z' does not take parameter n"),
    ("moments --kind hexagon --mmax 4", f"unknown moment kind 'hexagon'; known: {_KNOWN['moment']}"),
    ("moments --kind path --mmax 4", "moment kind 'path' requires parameter n"),
    ("moments --kind arcsine --n 5 --mmax 4", "moment kind 'arcsine' does not take parameter n"),
    ("iso --kind hexagon", f"unknown fold kind 'hexagon'; known: {_KNOWN['fold']}"),
    ("iso --kind diamond --k 4", "fold kind 'diamond' requires parameter l"),
    ("iso --kind plane --n 3", "fold kind 'plane' does not take parameter n"),
    ("density --kind hexagon --grid 5", f"unknown density kind 'hexagon'; known: {_KNOWN['density']}"),
    ("density --kind AA --grid 5", f"unknown density kind 'AA'; known: {_KNOWN['density']}"),
    ("components --kind hexagon", f"unknown product kind 'hexagon'; known: {_KNOWN['product']}"),
    ("walks --kind z --mmax -1", "--mmax must be nonnegative"),
    ("moments --kind arcsine --mmax -1", "--mmax must be nonnegative"),
    ("walks --kind diamond --k 1 --l 3 --mmax 4", "diamond side lengths must be at least 2"),
])
def test_one_kind_rule_for_every_command(capsys, argv, message):
    # a kind matches exactly, and a parameter it does not take or out of
    # its range is an error
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_components_budget_help_names_the_product():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices

    def budget_help(command):
        return next(a.help for a in subs[command]._actions if a.dest == "radius_budget")

    tail = "(default 5000000, env LATTICE_WALKS_BUDGET)"
    assert budget_help("components") == f"vertex budget for the n*k vertices of the product {tail}"
    for command in ("walks", "verify", "iso"):
        assert budget_help(command) == f"vertex budget for ball expansion {tail}"


class TestVerifyCommand:
    def test_identity_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identity")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["suite"] == "identity"
        assert len(doc["checks"]) == 31
        assert all(c["pass"] for c in doc["checks"])
        assert {"name", "expected", "actual", "tol", "pass"} <= set(doc["checks"][0])

    def test_iso_suite_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "iso", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "name,expected,actual,tol,pass"
        assert all(line.endswith(",true") for line in lines[2:])

    def test_coincidence_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coincidence")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_path_spectrum_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "path-spectrum")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        # the suite checks the float eigenvalue/weight sums, which carry
        # rounding, not the exact moments, which would deviate by 0
        devs = [c["actual"] for c in doc["checks"]
                if c["name"].startswith("path-spectrum n=")]
        assert len(devs) == 11 and any(d > 0 for d in devs)

    def test_density_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "density")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "normalization ww" in names
        assert any(name.startswith("legendre") for name in names)

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "everything"])


class TestParserContract:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["walks", "--kind", "z", "--mmax", "4", "--fast"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code = main(["walks", "--kind", "z", "--mmax", "4",
                     "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "4,6,6,true" in target.read_text().splitlines()

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, missing_dir):
        target = tmp_path / "missing" / "x.csv" if missing_dir else tmp_path
        code, out, err = run(capsys, "walks", "--kind", "z", "--mmax", "2",
                             "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_failed_command_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, _, _ = run(capsys, "walks", "--kind", "hexagon", "--mmax", "2",
                         "--out", str(target))
        assert code == 1 and not target.exists()

    def test_interleaved_commands_carry_nothing_over(self, capsys, tmp_path):
        # one parser serves every main() call in a process, so no --out,
        # --format or --kind may leak from one command into the next
        target = tmp_path / "table.json"
        first = ["walks", "--kind", "bcc3", "--mmax", "6", "--format", "json",
                 "--out", str(target)]
        second = ["components", "--n", "3", "--k", "4"]
        assert run(capsys, *first) == (0, "", "")
        written = target.read_bytes()
        target.unlink()
        code, out, _ = run(capsys, *second)
        assert code == 0 and not target.exists()
        assert out.splitlines()[0] == ("# params: command=components kind=kron "
                                       "n=3 k=4 radius_budget=5000000 format=csv")
        assert run(capsys, *first) == (0, "", "")
        assert target.read_bytes() == written
        assert json.loads(written)["params"]["kind"] == "bcc3"
        assert run(capsys, *second) == (0, out, "")


# SHA-256 of commands whose output holds only integers and fixed text (no
# libm floats), so the digests are portable: these bytes are a contract.
BYTE_DIGESTS = [
    ("walks --kind z --mmax 20 --format csv",
     "61f02319296b58dc90d75208f0ae9a976ff617af1d67d4a8ac7125e56a74e080"),
    ("walks --kind z --mmax 20 --format json",
     "6a8ff1313f661c52aea59e1c2d55ce2a0c26b47bcc29e52e6f9bd5ac8ab79228"),
    ("walks --kind zplus --mmax 20 --format csv",
     "f15a063c3f569c13ff975f103936d982c8b9edf57092698913a75cdf3f141f83"),
    ("walks --kind zplus --mmax 20 --format json",
     "73eb79c44253747b1254890e928d7404cb4b97f76091d911a17e6d0d81e779ef"),
    ("walks --kind zplus-at-1 --mmax 20 --format csv",
     "c46fc5e86f6de245aba63c1916a838c7dfd660e19a7cb3266afb547a3f135a32"),
    ("walks --kind zplus-at-1 --mmax 20 --format json",
     "1a1b630f3122fcf701a883cd32152c22ecdc7d3b0fda35d9525a9f60eba45143"),
    ("walks --kind z2 --mmax 20 --format csv",
     "eba5e05cf0b69e28af8a979e32904ac63524e50b5937560beb97d9c98b4e90da"),
    ("walks --kind z2 --mmax 20 --format json",
     "a0e0b69344240ed3fbcb9bb6ffc5629cdb04c73eaad9d6863ba691cbe36745d9"),
    ("walks --kind halfplane --mmax 20 --format csv",
     "ce5324ebfa68cc4e553a1956ef7c33a33fa7215e54edd18b57713743fa19a7e4"),
    ("walks --kind halfplane --mmax 20 --format json",
     "914b23ebcaa2ab67f093cf2c21f2fe6315821c6ad45207f7fa4f21faef3936ce"),
    ("walks --kind wedge --mmax 20 --format csv",
     "8365888e08d80152888de6e4cbac9db04f70ca4a49cef994b64c4545cf2016a5"),
    ("walks --kind wedge --mmax 20 --format json",
     "a2f019c15575470c843a6cacfb5e24e8241613a31ba1d6261b62c2f34f4ed5f8"),
    ("walks --kind quarterplane --mmax 20 --format csv",
     "f0f4a68c3e2cc6e7f3cac62b88824b68fddecc0cffeb897161e6263ace1ecf03"),
    ("walks --kind quarterplane --mmax 20 --format json",
     "49c937f569ca496550c8d113948bef031a906b99bd602af2fc44f04f4e711a5a"),
    ("walks --kind zxzplus --mmax 20 --format csv",
     "32fc2bd4fe810218063f6b45a51e9c421eb83c95b63d27e3348453617f65bc4e"),
    ("walks --kind zxzplus --mmax 20 --format json",
     "bc9e8b82c972d22f28c2d5f166be45dfc2d6607107692bc0da6274cc715026e7"),
    ("walks --kind strip --mmax 20 --n 3 --format csv",
     "2ead0485ae4207727f6f1b46c8c7a925b1ea696dc66dc62dd0f75473ceec2334"),
    ("walks --kind strip --mmax 20 --n 3 --format json",
     "6327bac3ab81e07bc758d2fb5bd481e25bd6691cecce6b03981b027129b4c930"),
    ("walks --kind diamond --mmax 20 --k 3 --l 4 --format csv",
     "7a72ac7c03b2e38020e6b2e393e9236819a2b0949ede305eed4c33773e3f8f41"),
    ("walks --kind diamond --mmax 20 --k 3 --l 4 --format json",
     "4202ab9b2046fdddb564c3cc609e08756e51a70a2dc9754589b43f0f055ad29c"),
    ("walks --kind bcc3 --mmax 20 --format csv",
     "d215d8b6f47dac1e85cc6e08186e3f6a5861d20a49336a3ac93d43b15132a466"),
    ("walks --kind bcc3 --mmax 20 --format json",
     "c31c1ef96bf0b4c91197dd5fbd32cae50864c42db0abb3a60297df0be9233c83"),
    ("walks --kind z3cartesian --mmax 20 --format csv",
     "2ced221f29bb7c047cee60566be69baf5afbbc7992e80f5796811da09868060a"),
    ("walks --kind z3cartesian --mmax 20 --format json",
     "d7221e521e815e888bb33aa5734f1ea4c75817d507569855d11202c4d5e33d95"),
    ("walks --kind chamber3 --mmax 20 --format csv",
     "715d3d88fc6b33204ac9379f8716da195375cb738258f0c25809d97615f42ca9"),
    ("walks --kind chamber3 --mmax 20 --format json",
     "ded784e298f70e38c2f0270d8bd8401dd9d2efe25fb9fe4fd58da7e40b51d1b6"),
    ("walks --kind kkc3 --mmax 20 --format csv",
     "b47d3f3d42944daed42304990dc4f403ff6aaff4bbaf690278c57d9147663cd1"),
    ("walks --kind kkc3 --mmax 20 --format json",
     "40fcb2a5d4495e890a6e136b0ee0fe42ccad0eaa8708748e90e23e5c0ce1d50f"),
    ("moments --kind arcsine --mmax 40 --format csv",
     "39e61b8052c3a045423f41bfd76b032980a92c7507c7ec1bcbe2221310834858"),
    ("moments --kind arcsine --mmax 40 --format json",
     "421f90111c394fab1b98016b67822b6ac548a1679b71e0a3c9ed4ea28170699c"),
    ("moments --kind semicircle --mmax 40 --format csv",
     "9bd01559bc8292d0a581e4c3fde0979ef0596258abab1c70829e16a6f224abf0"),
    ("moments --kind semicircle --mmax 40 --format json",
     "66c955b45fda938c940418082044a6a2cf654168c276b0daa934489a76151aa9"),
    ("moments --kind aa --mmax 40 --format csv",
     "a3d4e8ad5325e9928f5e7d74cc26628158a774b48a876b7bc3f1b0413476d018"),
    ("moments --kind aa --mmax 40 --format json",
     "490d9bbabd36c9ee4f1c0b2a0d457eae430b11de3fae53791321aee1f9d1b819"),
    ("moments --kind wa --mmax 40 --format csv",
     "ee4851f298a45bac56e25bf9c5c0849045d813904b2c6f76ab60d1855202312e"),
    ("moments --kind wa --mmax 40 --format json",
     "5005895f9bcce378aedb93b149430f25a12b7ebfc1a22253970381cc081e8082"),
    ("moments --kind ww --mmax 40 --format csv",
     "23718730859bebb5a9d020bef0600b0183993468b5512cbfc9f0f4264079fa5b"),
    ("moments --kind ww --mmax 40 --format json",
     "2510d19d843c064ed33582f0986463cac8113d570d5c7d1d090a0f8d079d1589"),
    ("moments --kind classical-aa --mmax 40 --format csv",
     "2aaef77a62216545269498a01fc31549f622e5145e453f27a31e47d318d427f8"),
    ("moments --kind classical-aa --mmax 40 --format json",
     "b04df21088293d87bbb52995d7f58eaed6ccdda3487c2bed508bc08ead68f3a9"),
    ("moments --kind classical-ww --mmax 40 --format csv",
     "9ce60a006f4fc2ccd4b380d0ea8909a838aff4fdbc373cc49e46673ea5252057"),
    ("moments --kind classical-ww --mmax 40 --format json",
     "eb25881fa759ee6e9f131e2c175651de046ea838b4322882e02e6935bc3d7ef7"),
    ("components --kind kron --n 4 --k 5 --format csv",
     "a5f382636e3bf30c8a994568d7c2cddb2a8e22225d41fdb2a563eb9e55917dbe"),
    ("components --kind kron --n 4 --k 5 --format json",
     "d7b1fcc2b60ffbdc9a7c92dec83358d9a27fad2f6c924f477de47ab26ffe9c25"),
    ("components --kind cartesian --n 4 --k 5 --format csv",
     "c0a26d0f386b8299f5439d248c18ba965ffa2af1ed9c81d7066922b690c62d6a"),
    ("components --kind cartesian --n 4 --k 5 --format json",
     "1d661cea8532a7b5ac31081b32b70ff39515af090df547349a07551af11bc8bb"),
    ("iso --kind plane --format csv",
     "6d67b25bce47464085535a3b1529084096a8c25842b2bb8c8ac09e9daa817c5e"),
    ("iso --kind plane --format json",
     "7df500ec1af0a1a6417a53e57ad2656c8faf84733c30b8c375e38288bf203d33"),
    ("iso --kind strip --n 3 --format csv",
     "290f3b8e4058aeb2f785e233ea747539de0462049665ea2d5221972debe227ce"),
    ("iso --kind strip --n 3 --format json",
     "459123c5c8b8fad4cda1b94c5675d5de37bdb18c207900046dda68be45bcac48"),
    ("iso --kind halfplane --format csv",
     "e610dc1acc67041522d768db209afb6c797bdda7cfd1a6634019a6fcfd34112a"),
    ("iso --kind halfplane --format json",
     "ae652b15421962ab5f603ac458e8f55c8ca7ecdda0fd918e495a4dea09c60370"),
    ("iso --kind wedge --format csv",
     "4c03124e247145c1cdca50cd15d0d97548816104839742c85aa376dcdfdbfe98"),
    ("iso --kind wedge --format json",
     "8e319402a1ae0fe5c7e314acee8eb2d354331892050d065a6fc2f644fce5a614"),
    ("iso --kind diamond --k 3 --l 4 --format csv",
     "9fb7ff13d805c2ec345adb479e00be6e444ece3eec29471b306d416140ccef5c"),
    ("iso --kind diamond --k 3 --l 4 --format json",
     "031a986be71f1abba23deea42fcc11e9fe7288c85a8f142b0b91a0fd09fe2adc"),
    ("verify --suite identity --format csv",
     "528a3dd78f90e9f9d2fa5cf4ab6d0eb5b583e4b1a1d6cf0b3b1c243a899fb8e6"),
    ("verify --suite identity --format json",
     "79d0620f99d4632a90770dc8788e25b40021f1e179e2a02dbe543a0655846ba7"),
    ("verify --suite iso --format csv",
     "b41858fcd1b879b42dd66609bc522c7d7203bc8be838bc57d3a8df1dd5fc6875"),
    ("verify --suite iso --format json",
     "3a00d25076dfd765ef1c61e3370521c2a0d894892e3cced790d0525236d7ccf7"),
    ("verify --suite coincidence --format csv",
     "eb704ee4e03edb154fecacbe94f17b7683329ea51128aa8ecbe47f93741dc2f2"),
    ("verify --suite coincidence --format json",
     "f1c4b5c2538dd0185739e6475e0237e40d1f29de02235ec3ff3ac8a678786386"),
]


@pytest.mark.parametrize("argv,digest", BYTE_DIGESTS,
                         ids=[argv for argv, _ in BYTE_DIGESTS])
def test_integer_outputs_are_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The parameter echo where BYTE_DIGESTS do not reach: (argv, environment
# budget, CSV echo line, JSON "params" in key order).
ECHO_PINS = [
    ("density --kind wa --grid 3", None,
     "# params: command=density kind=wa grid=3 format=csv",
     {"command": "density", "kind": "wa", "grid": 3, "format": "json"}),
    ("components", None,
     "# params: command=components kind=kron n=2 k=2 radius_budget=5000000 format=csv",
     {"command": "components", "kind": "kron", "n": 2, "k": 2,
      "radius_budget": 5000000, "format": "json"}),
    ("verify --suite identity --tol 0.001", None,
     "# params: command=verify suite=identity tol=0.001 radius_budget=5000000 format=csv",
     {"command": "verify", "suite": "identity", "tol": 0.001,
      "radius_budget": 5000000, "format": "json"}),
    ("walks --kind z --mmax 2 --radius-budget 7", None,
     "# params: command=walks kind=z mmax=2 n=none k=none l=none radius_budget=7 format=csv",
     {"command": "walks", "kind": "z", "mmax": 2, "n": None, "k": None, "l": None,
      "radius_budget": 7, "format": "json"}),
    ("iso --kind wedge", "123456",
     "# params: command=iso kind=wedge n=none k=none l=none radius_budget=123456 format=csv",
     {"command": "iso", "kind": "wedge", "n": None, "k": None, "l": None,
      "radius_budget": 123456, "format": "json"}),
    ("moments --kind path --n 6 --mmax 4", None,
     "# params: command=moments kind=path mmax=4 n=6 format=csv",
     {"command": "moments", "kind": "path", "mmax": 4, "n": 6, "format": "json"}),
]


@pytest.mark.parametrize("argv,env_budget,csv_line,json_params", ECHO_PINS,
                         ids=[argv for argv, *_ in ECHO_PINS])
def test_parameter_echo(capsys, monkeypatch, argv, env_budget, csv_line, json_params):
    if env_budget is None:
        monkeypatch.delenv("LATTICE_WALKS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("LATTICE_WALKS_BUDGET", env_budget)
    code, out, _ = run(capsys, *argv.split(), "--format", "csv")
    assert code == 0 and out.splitlines()[0] == csv_line
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert list(json.loads(out)["params"].items()) == list(json_params.items())


# The CLI writes JSON itself, in the layout of json.dumps(indent=2).


def _written(v) -> str:
    out = []
    cli._json_write(v, "", out)
    return "".join(out)


_CHARS = st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                   st.characters())
_TEXT = st.text(_CHARS, max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, 1e16, 0.1]))
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


class TestJsonWriter:
    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(doc=_DOCS)
    def test_matches_json_dumps(self, doc):
        assert _written(doc) == json.dumps(doc, indent=2)

    def test_non_finite_floats_as_fmt_spells_them(self):
        assert _written({"v": [math.inf, -math.inf, math.nan]}) == (
            '{\n  "v": [\n    "inf",\n    "-inf",\n    "nan"\n  ]\n}')

    def test_subclasses_are_written_as_their_base(self):
        class Text(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count()"

        class Real(float):
            pass

        doc = collections.OrderedDict(
            a=[Text('q"\u00e9'), Count(7), Real(2.5), enum.IntEnum("E", "A B").B],
            b=collections.OrderedDict())
        assert _written(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("bad", [{1, 2}, {"a": [b"x"]}, [object()]])
    def test_other_types_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            _written(bad)


@pytest.mark.parametrize("argv", [
    "density --kind aa --grid 5",
    "moments --kind path --n 5 --mmax 12",
    "verify --suite density",
    "verify --suite path-spectrum",
    "iso --kind strip --n 5",
])
def test_unpinned_json_round_trips_through_the_stdlib(capsys, argv):
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_iso_witness_tuple_is_a_json_list(capsys, monkeypatch):
    fold_map = graphs.fold_map

    def broken(kind, **params):
        return dataclasses.replace(fold_map(kind, **params), matrix=((1, 0), (0, 1)))

    monkeypatch.setattr(graphs, "fold_map", broken)
    code, out, _ = run(capsys, "iso", "--kind", "halfplane")
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"] == [[0, -1]]
    assert json.dumps(doc, indent=2) + "\n" == out


def test_import_does_not_load_numpy():
    # numpy is not a runtime dependency: neither the package nor the CLI
    # may import it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, latticewalks, latticewalks.cli; "
            "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "False"


def test_import_builds_no_parser():
    # the parser is built on the first main() call, not at import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import latticewalks.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "0"
