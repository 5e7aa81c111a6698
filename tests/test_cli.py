import pytest

from diophlab import cli, counting, harness
from diophlab.cli import dispatch, fmt30
from diophlab.counting import (ApproxConfig, SieveSideParams, congruence_pairs,
                               sieve_side_counts)
from diophlab.fixedreal import CVector, constant


class TestFormatting:
    def test_thirty_digits(self):
        from fractions import Fraction

        from diophlab.fixedreal import FixedReal

        assert fmt30(FixedReal.from_decimal("0.5")) == "0.5"
        assert fmt30(Fraction(1, 3)).startswith("0.3333333333")
        assert fmt30(7) == "7"
        assert len(fmt30(Fraction(2, 3)).replace("0.", "")) == 30


class TestSearch:
    def test_contract(self, tmp_path):
        out = tmp_path / "tuples.csv"
        code = dispatch(["search", "--d", "1", "--c", "phi", "--k", "1",
                         "--eps", "0.1", "--alpha", "sqrt3", "--N", "20000",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,r,q_1,slack0,slack_1"
        assert lines[-2].startswith("# config_hash=")
        assert lines[-1].startswith("# version=")
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "3" and first[2] == "5"

    def test_dimension_mismatch(self, tmp_path):
        code = dispatch(["search", "--d", "2", "--c", "phi", "--k", "1",
                         "--eps", "0.1", "--N", "100",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestValidation:
    def test_eps_outside_window(self, capsys):
        code = dispatch(["search", "--c", "phi", "--k", "1", "--eps", "0.25",
                         "--alpha", "sqrt3", "--N", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "0 < eps < 1/(d*(3k+2))" in err

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert dispatch([]) == 2


class TestMalformedValues:
    INSTANCE = ["--c", "phi", "--k", "1", "--eps", "0.1"]

    @pytest.mark.parametrize("command, key, value", [
        ("integrate", "Ngrid", "abc"), ("search", "N", "12x"),
        ("search", "k", "abc"), ("audit", "Pgrid", "1x"),
        ("sieve-side", "Q", "q"), ("upper", "samples", "x"),
        ("search", "alpha", "1/0")])
    def test_flag_exits_config(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "out.csv"
        code = dispatch([command, *self.INSTANCE, f"--{key}", value,
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key}=" in err
        assert not out.exists()

    def test_config_file_value_exits_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[instance]\nc = phi\nk = 1\neps = 0.1\n"
                       "[run]\nN = 12x\n")
        out = tmp_path / "out.csv"
        code = dispatch(["search", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: bad value N=")
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sieve_side_needs_samples(self, tmp_path, capsys, monkeypatch,
                                      samples):
        def no_work(*args, **kwargs):
            raise AssertionError("sieve-side ran")

        monkeypatch.setattr(cli, "sieve_side_rows", no_work)
        monkeypatch.setattr(cli, "average_error_check", no_work)
        out = tmp_path / "sieve.csv"
        code = dispatch(["sieve-side", *self.INSTANCE, "--N", "2000",
                         f"--samples={samples}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "samples=" in err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_vaaler_check_needs_points(self, capsys, points):
        assert dispatch(["vaaler-check", f"--points={points}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""


class TestDeterminism:
    def test_integrate_byte_identical(self, tmp_path):
        args = ["integrate", "--c", "phi", "--k", "1", "--eps", "0.1",
                "--Ngrid", "1024,2048,4096"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConfigFile:
    def test_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[instance]\nc = phi\nk = 1\neps = 0.1\nA = 1.0\nB = 2.0\n"
            "[run]\nalpha = sqrt3\nN = 500\nout = from_file.csv\n"
        )
        out = tmp_path / "flag_wins.csv"
        code = dispatch(["search", "--config", str(cfg), "--out", str(out)])
        assert code == 0 and out.exists()
        assert "(p <= 500)" in capsys.readouterr().out  # N from the file
        code = dispatch(["search", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    @pytest.mark.parametrize("text, name", [
        ("[instance]\nc = phi\nk = 1\neps = 0.1\n[run]\nNgird = 64\n",
         "'Ngird'"),
        ("[instanse]\nc = phi\nk = 1\neps = 0.1\n[run]\nNgrid = 64\n",
         "[instanse]"),
        ("[instance]\nc = phi\nk = 1\neps = 0.1\nNgrid = 64\n", "'Ngrid'"),
        ("[DEFAULT]\nNgrid = 64\n[instance]\nc = phi\nk = 1\neps = 0.1\n",
         "[DEFAULT]")],
        ids=["misspelt-key", "misspelt-section", "key-in-other-section",
             "default-section"])
    def test_unknown_key_or_section_exits_config(self, tmp_path, capsys, text,
                                                 name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        code = dispatch(["integrate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown") and name in err
        assert not out.exists()


class TestChecks:
    def test_audit_csv(self, tmp_path):
        out = tmp_path / "audit.csv"
        code = dispatch(["audit", "--c", "phi", "--k", "1", "--eps", "0.1",
                         "--P", "1024", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,P,exact,bound,ratio,J,u"
        assert any(line.startswith("Z1,") for line in lines)
        assert any(line.startswith("T_A,") for line in lines)

    def test_audit_bad_split_exits_config(self, tmp_path):
        code = dispatch(["audit", "--c", "phi", "--k", "1", "--eps", "0.1",
                         "--P", "1024", "--u", "nan",
                         "--out", str(tmp_path / "audit.csv")])
        assert code == 2
        assert not (tmp_path / "audit.csv").exists()

    def test_vaaler_check(self):
        assert dispatch(["vaaler-check", "--points", "2000"]) == 0

    def test_vaughan_check_small(self):
        assert dispatch(["vaughan-check", "--N", "1500"]) == 0

    def test_dioph_certify(self, capsys):
        code = dispatch(["dioph-certify", "--c", "sqrt2,sqrt3", "--k", "2",
                         "--Nbound", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C_est" in out and "v_min" in out

    def test_sieve_side(self, tmp_path, monkeypatch):
        def no_build(limit):
            raise AssertionError("sieve-side builds no arithmetic table")

        monkeypatch.setattr(cli, "build_arith_table", no_build)
        monkeypatch.setattr(harness, "build_arith_table", no_build)
        out = tmp_path / "sieve.csv"
        code = dispatch(["sieve-side", "--c", "phi", "--k", "1", "--eps",
                         "0.1", "--alpha", "sqrt3", "--N", "2000",
                         "--Q", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,t1,t2,S_exact,main_term,E_bound"
        assert len(lines) > 3

    def test_sieve_side_builds_product_set_once(self, tmp_path, monkeypatch):
        # the rows equal those of per-pair sieve_side_counts
        built = []
        product = counting.product_set

        def spy(*args):
            built.append(args)
            return product(*args)

        monkeypatch.setattr(counting, "product_set", spy)
        monkeypatch.setattr(cli, "average_error_check",
                            lambda *args, **kwargs: [])
        out = tmp_path / "sieve.csv"
        code = dispatch(["sieve-side", "--c", "phi", "--k", "1", "--eps",
                         "0.1", "--alpha", "sqrt3", "--N", "2000",
                         "--Q", "3", "--out", str(out)])
        monkeypatch.undo()
        assert code == 0
        assert len(built) == 1
        cfg = ApproxConfig(c=CVector((constant("phi"),), 1.0), epsilon=0.1,
                           A=1.0, B=2.0)
        want = []
        for t1, t2 in congruence_pairs(3.0):
            sp = SieveSideParams.from_config(cfg, 2000, t1, t2, Q=3.0)
            res = sieve_side_counts(constant("sqrt3"), sp, cfg)
            want.append(",".join(fmt30(v) for v in (
                2000, t1, t2, res.s_exact, res.main_term, res.e_bound)))
        assert out.read_text().splitlines()[1:-2] == want

    @pytest.mark.parametrize("flag, want", [([], 8), (["--samples", "3"], 3),
                                            (["--samples", "1"], 1)])
    def test_sieve_side_honours_samples(self, tmp_path, monkeypatch, flag,
                                        want):
        seen = []

        def spy(grid, cfg, alpha_samples, seed):
            seen.append(alpha_samples)
            return []

        monkeypatch.setattr(cli, "average_error_check", spy)
        code = dispatch(["sieve-side", "--c", "phi", "--k", "1", "--eps",
                         "0.1", "--N", "2000", "--Q", "3", *flag,
                         "--out", str(tmp_path / "sieve.csv")])
        assert code == 0
        assert seen == [want]

    def test_upper(self, tmp_path):
        out = tmp_path / "upper.csv"
        code = dispatch(["upper", "--c", "phi", "--k", "1", "--eps", "0.1",
                         "--Ngrid", "256,512", "--samples", "10",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,v_n,target_main,vn_over_target,k_estimate"
