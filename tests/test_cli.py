import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticewalks.cli import main


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

    def test_path_requires_n(self, capsys):
        code, _, err = run(capsys, "moments", "--kind", "path", "--mmax", "4")
        assert code == 1
        assert "--n" in err

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
        assert "--l" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "iso", "--kind", "wedge", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "name,radius,ok,detail,source_size,target_size"


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
        assert json.loads(out)["pass"] is True

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
