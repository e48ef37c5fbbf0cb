import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ri1d import __version__
from ri1d import cli
from ri1d.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExactCommands:
    def test_vacant_exact(self, capsys):
        code, out = run(capsys, "vacant-exact", "--alpha", "1",
                        "--min", "0", "--max", "2")
        assert code == 0
        assert "0.367879441171" in out

    def test_capacity(self, capsys):
        code, out = run(capsys, "capacity", "--min", "-2", "--max", "3")
        assert code == 0
        assert "capacity_hat = 2.5" in out

    def test_count_paths(self, capsys):
        code, out = run(capsys, "count-paths", "--x", "1", "--delta", "3",
                        "--k", "2")
        assert code == 0 and "count = 2" in out

    def test_eval_h_both(self, capsys):
        code, out = run(capsys, "eval-h", "--n", "10", "--x", "5",
                        "--t", "200", "--backend", "both")
        assert code == 0
        lines = dict(l.split(" = ") for l in out.strip().splitlines())
        assert abs(float(lines["h_dp"]) / float(lines["h_spectral"]) - 1) <= 1e-10

    def test_ring_vacant(self, capsys):
        code, out = run(capsys, "ring-vacant-exact", "--n", "12", "--t", "30",
                        "--x0", "6", "--a", "2", "--b", "1")
        assert code == 0 and out.startswith("vacant_prob = ")

    def test_localtime_cf(self, capsys):
        code, out = run(capsys, "localtime-cf", "--alpha", "1", "--x", "3",
                        "--t", "0")
        assert code == 0 and "real = 1" in out

    def test_twelve_digits(self, capsys):
        _, out = run(capsys, "vacant-exact", "--alpha", "1",
                     "--min", "0", "--max", "3")
        val = out.split("=")[1].strip()
        assert len(val.replace(".", "").lstrip("0")) >= 12


class TestErrors:
    def test_domain_error_exit_2(self, capsys):
        code = main(["vacant-exact", "--alpha", "-1", "--min", "0", "--max", "2"])
        assert code == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 2

    def test_computation_error_exit_2(self, capsys):
        # no pmf truncation point below 1e7 exists at x = 10000
        code = main(["localtime-pmf", "--alpha", "1", "--x", "10000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ri1d: error: ")
        assert "x = 10000" in err

    def test_removed_verify_target(self):
        # check 13 has one target name, "martingale"
        with pytest.raises(SystemExit) as e:
            main(["verify", "hitting"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        "verify pi4 --x 3",
        "verify thm3 --alpha 2",
        "selftest --samples 5",
        "sample-window --alpha 1 --L 5 --workers 2",
        "sample-ring --n 8 --t 20 --x0 4 --workers 2",
        "vacant-exact --alpha 1 --min 0 --max 2 --format json",
    ])
    def test_flag_the_command_lacks_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv.split())
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_horizon_exit_2(self, capsys):
        code = main(["ring-vacant-exact", "--n", "10", "--t", "-5", "--x0", "5",
                     "--a", "1", "--b", "1"])
        assert code == 2
        assert "need t >= 0" in capsys.readouterr().err

    def test_ring_domain_error(self, capsys):
        code = main(["ring-vacant-exact", "--n", "10", "--t", "5", "--x0", "2",
                     "--a", "1", "--b", "3"])
        assert code == 2


class TestSamplers:
    def test_sample_window_reproducible(self, capsys):
        _, out1 = run(capsys, "sample-window", "--alpha", "1", "--L", "5",
                      "--seed", "3")
        _, out2 = run(capsys, "sample-window", "--alpha", "1", "--L", "5",
                      "--seed", "3")
        assert out1 == out2

    def test_sample_localtime_worker_invariance(self, capsys):
        _, out1 = run(capsys, "sample-localtime", "--alpha", "1", "--x", "3",
                      "--samples", "200000", "--seed", "5", "--workers", "1")
        _, out2 = run(capsys, "sample-localtime", "--alpha", "1", "--x", "3",
                      "--samples", "200000", "--seed", "5", "--workers", "4")
        assert out1 == out2

    def test_sample_ring(self, capsys):
        code, out = run(capsys, "sample-ring", "--n", "8", "--t", "20",
                        "--x0", "4", "--seed", "1")
        assert code == 0
        lines = dict(l.split(" = ") for l in out.strip().splitlines())
        assert 0 < int(lines["min"]) and int(lines["max"]) < 8


class TestOutputs:
    def test_json_fields(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _ = run(capsys, "verify", "clt", "--alpha", "1", "--x", "50",
                      "--samples", "20000", "--seed", "7", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["version"] == __version__
        assert doc["seed"] == 7
        assert doc["inputs"]["x"] == 50
        assert doc["wall_time_s"] > 0
        assert doc["verdicts"] and {"name", "statistic", "threshold", "passed"} \
            <= set(doc["verdicts"][0])

    def test_json_pmf_table(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _ = run(capsys, "localtime-pmf", "--alpha", "1", "--x", "2",
                      "--out", str(out))
        assert code == 0
        pmf = json.loads(out.read_text())["tables"]["pmf"]
        assert pmf[0] == ["s", "probability"]
        assert pmf[1][0] == 0
        assert pmf[1][1] == pytest.approx(math.exp(-1), rel=1e-10)

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        code = main(["capacity", "--min", "0", "--max", "1",
                     "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ri1d: error: ")


def _stub_check(seed, workers=None):
    return []


class TestRunRecord:
    """``command`` and ``inputs`` of the JSON record, for every subcommand.

    The acceptance checks behind ``verify`` and ``selftest`` are stubbed out:
    the record depends only on the parsed arguments.
    """

    CASES = [
        ("vacant-exact --alpha 1 --min 0 --max 2", "vacant-exact",
         {"alpha": 1.0, "min": 0, "max": 2}),
        ("capacity --min -2 --max 3", "capacity", {"min": -2, "max": 3}),
        ("count-paths --x 1 --delta 3 --k 2", "count-paths",
         {"x": 1, "delta": 3, "k": 2}),
        ("eval-h --n 10 --x 5 --t 200", "eval-h",
         {"n": 10, "x": 5, "t": 200, "backend": "both"}),
        ("ring-vacant-exact --n 12 --t 30 --x0 6 --a 2 --b 1",
         "ring-vacant-exact", {"n": 12, "t": 30, "x0": 6, "a": 2, "b": 1}),
        ("localtime-pmf --alpha 1 --x 2", "localtime-pmf",
         {"alpha": 1.0, "x": 2, "s_max": None}),
        ("localtime-cf --alpha 1 --x 3 --t 0.5", "localtime-cf",
         {"alpha": 1.0, "x": 3, "t": 0.5}),
        ("sample-window --alpha 1 --L 5 --seed 3", "sample-window",
         {"alpha": 1.0, "L": 5, "seed": 3}),
        ("sample-localtime --alpha 1 --x 3 --samples 2000 --seed 5 --workers 2",
         "sample-localtime", {"alpha": 1.0, "x": 3, "samples": 2000, "seed": 5}),
        ("sample-ring --n 8 --t 20 --x0 4 --seed 1", "sample-ring",
         {"n": 8, "t": 20, "x0": 4, "seed": 1}),
        ("ring-localtime --n-half 8 --alpha 1 --x 2 --samples 200 --seed 3",
         "ring-localtime",
         {"n_half": 8, "alpha": 1.0, "x": 2, "samples": 200, "seed": 3}),
        ("verify clt --alpha 1 --x 50 --samples 2000 --seed 7 --workers 2",
         "verify clt", {"seed": 7, "alpha": 1.0, "x": 50, "samples": 2000}),
        ("selftest --seed 8 --workers 2", "selftest", {"seed": 8}),
    ] + [(f"verify {t} --seed 7", f"verify {t}", {"seed": 7})
         for t in ("martingale", "pi4", "mid-tail", "no-hit", "endpoint",
                   "asymp-h", "thm1", "thm3")]

    @pytest.mark.parametrize("argv,command,inputs", CASES,
                             ids=[c[1] for c in CASES])
    def test_command_and_inputs(self, argv, command, inputs, tmp_path,
                                capsys, monkeypatch):
        for target in cli.VERIFY_CHECKS:
            monkeypatch.setitem(cli.VERIFY_CHECKS, target, _stub_check)
        monkeypatch.setattr(cli.acceptance, "run_all", _stub_check)
        out = tmp_path / "r.json"
        main([*argv.split(), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["command"] == command
        assert doc["inputs"] == inputs
        assert doc["seed"] == inputs.get("seed")


class TestVerify:
    def test_verify_clt_passes(self, capsys):
        code, out = run(capsys, "verify", "clt", "--alpha", "1", "--x", "400",
                        "--samples", "100000", "--seed", "7")
        assert code == 0 and out.startswith("PASS")

    def test_verify_martingale(self, capsys):
        code, out = run(capsys, "verify", "martingale", "--seed", "7")
        assert "martingale defect" in out

    def test_verify_pi4(self, capsys):
        code, out = run(capsys, "verify", "pi4", "--seed", "7")
        assert code == 0 and out.count("PASS") == 3


class TestModuleRun:
    """``python -m ri1d.cli`` runs the same command line as ``ri1d``."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "ri1d.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_vacant_exact(self):
        proc = self.run_module("vacant-exact", "--alpha", "1", "--min", "0",
                               "--max", "2")
        assert proc.returncode == 0
        assert "vacant_prob = 0.367879441171" in proc.stdout

    def test_unknown_command_exits_2(self):
        assert self.run_module("no-such-command").returncode == 2
