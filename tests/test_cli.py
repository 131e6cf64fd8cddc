import json

import mpmath
import pytest
from mpmath import mp

import planepart as pp
from planepart import cli
from planepart.arith import PrecisionError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def outputs(stdout):
    doc = json.loads(stdout)
    assert doc["schema_version"] == "1"
    return doc["outputs"]


class TestExact:
    def test_750(self, capsys):
        code, out, _ = run(capsys, "exact", "750")
        assert code == 0
        p2 = outputs(out)["p2"]
        assert len(p2) == 70 and p2.endswith("966061")

    def test_small(self, capsys):
        for n, expected in [("2", "3"), ("0", "1")]:
            code, out, _ = run(capsys, "exact", n)
            assert code == 0
            assert outputs(out)["p2"] == expected

    def test_invalid_n_exits_2(self, capsys):
        code, _, err = run(capsys, "exact", "--", "-1")
        assert code == 2
        assert "error" in err

    def test_table_csv(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "--csv", str(path), "exact", "6", "--table")
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "n,p2"
        assert lines[-1] == "6,48"


class TestEstimate:
    def test_n1(self, capsys):
        code, out, _ = run(capsys, "estimate", "1", "--with-exact")
        assert code == 0
        o = outputs(out)
        assert o["rounded"] == "1" and o["exact"] == "1"

    def test_deterministic_json(self, capsys, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code, _, _ = run(capsys, "--json", str(path), "--quiet",
                             "estimate", "100", "--with-exact")
            assert code == 0
            doc = json.loads(path.read_text())
            doc.pop("timings")
            texts.append(json.dumps(doc, indent=2, sort_keys=True))
        assert texts[0] == texts[1]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "estimate", "50")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out.strip()

    def test_precision_failure_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise PrecisionError("synthetic failure")

        monkeypatch.setattr(cli.circle, "p2_estimate", boom)
        code, _, err = run(capsys, "estimate", "50")
        assert code == 3
        assert "numerical failure" in err

    def test_nonpositive_threshold_exits_2(self, capsys):
        for n, thr in (("1", "0"), ("50", "-1")):
            code, _, err = run(capsys, "estimate", n, "--k-threshold", thr)
            assert code == 2
            assert "k_threshold" in err

    def test_cutoff_past_arc_limit_exits_2(self, capsys):
        code, _, err = run(capsys, "estimate", "50", "--kappa2", "1e400")
        assert code == 2
        assert "N(n)" in err


class TestPhi:
    def test_table1_k5_row(self, capsys):
        code, out, _ = run(capsys, "phi", "750", "5")
        assert code == 0
        val = mpmath.mpf(outputs(out)["phi_value"])
        with mp.workdps(40):
            assert abs(val - mpmath.mpf("249747729385.715")) < mpmath.mpf("0.01")

    def test_per_m_csv(self, capsys, tmp_path):
        path = tmp_path / "terms.csv"
        code, _, _ = run(capsys, "--csv", str(path), "--quiet",
                         "phi", "200", "3", "--per-m")
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "k,m,value,abs_value"
        assert len(lines) >= 2


class TestScanBmin:
    def test_k2_row(self, capsys, tmp_path):
        path = tmp_path / "bmin.csv"
        code, out, _ = run(capsys, "--csv", str(path), "scan-bmin", "--k-list", "2")
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "k,argmin_h,b_min"
        k, h, val = lines[1].split(",")
        assert (k, h) == ("2", "1")
        with mp.workdps(30):
            assert abs(mpmath.mpf(val) - mp.log(2) / 4) < mpmath.mpf(10) ** -20

    def test_primes_spec(self, capsys, tmp_path):
        path = tmp_path / "bmin.csv"
        code, _, _ = run(capsys, "--csv", str(path), "--quiet",
                         "scan-bmin", "--k-list", "p:35-60")
        assert code == 0
        ks = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        assert ks == [37, 41, 43, 47, 53, 59]

    def test_bad_list_exits_2(self, capsys):
        code, _, _ = run(capsys, "scan-bmin", "--k-list", "1")
        assert code == 2


class TestDedekind:
    def test_1_2(self, capsys):
        code, out, _ = run(capsys, "dedekind", "1", "2")
        assert code == 0
        o = outputs(out)
        with mp.workdps(40):
            assert abs(mpmath.mpf(o["C_hk"]) + mp.log(2) / 12) < mpmath.mpf(10) ** -30
            assert abs(mpmath.mpf(o["b_hk"]) - mp.log(2) / 4) < mpmath.mpf(10) ** -30

    def test_0_1(self, capsys):
        code, out, _ = run(capsys, "dedekind", "0", "1")
        assert code == 0
        o = outputs(out)
        assert mpmath.mpf(o["C_hk"]) == 0
        assert o["b_hk"] is None

    def test_7_100_bounds(self, capsys):
        code, out, _ = run(capsys, "dedekind", "7", "100")
        assert code == 0
        flags = outputs(out)["bound_flags"]
        assert all(v is True for v in flags.values()), flags

    def test_non_coprime_exits_2(self, capsys):
        code, _, _ = run(capsys, "dedekind", "2", "4")
        assert code == 2


class TestConstants:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "--digits", "30", "constants")
        assert code == 0
        o = outputs(out)
        assert o["c1"].startswith("0.73026")
        assert o["c2"].startswith("2.00944")
        assert o["c_at_0"].startswith("29.4696")
        assert o["lambda_c"].startswith("0.18011")


class TestDigits:
    @pytest.mark.parametrize("argv", [
        ["--digits", "-5", "constants"],
        ["--digits", "-5", "dedekind", "2", "5"],
        ["--digits", "-5", "scan-bmin", "--k-list", "2-5"],
        ["--digits", "0", "constants"],
        ["--digits", "0", "estimate", "50"],
    ], ids=" ".join)
    def test_nonpositive_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--digits" in capsys.readouterr().err

    def test_display_digits_below_working_floor(self, capsys):
        # 10 display digits over the 30-digit working floor
        code, out, _ = run(capsys, "--digits", "10", "constants")
        assert code == 0
        o = outputs(out)
        assert o["a"] == "1.202056903"
        assert o["c2"] == "2.009445661"
