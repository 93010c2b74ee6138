"""Command-line surface: formats, exit codes, determinism."""
import json
import os
import subprocess
import sys

import pytest

import bethe_xxz
from bethe_xxz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_env():
    """os.environ without BETHE_TWO_LOG, with this bethe_xxz importable."""
    env = {k: v for k, v in os.environ.items() if k != "BETHE_TWO_LOG"}
    src = os.path.dirname(os.path.dirname(bethe_xxz.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    return env


class TestEnumerate:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "8", "--zeta", "0.6"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "records", "summary"}
        assert payload["params"] == {"n": 8, "zeta": 0.6}
        assert payload["summary"]["count"] == 28
        assert len(payload["records"]) == 28
        assert payload["records"][0]["j1"].count("/") <= 1

    def test_json_round_trip_is_idempotent(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "8", "--zeta", "0.6")
        reserialized = json.dumps(json.loads(out), indent=2) + "\n"
        assert reserialized == out

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "8", "--zeta", "0.6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,zeta,j1,j2,class"
        assert len(lines) == 29

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "pairs.json"
        code, out, _ = run(
            capsys, "enumerate", "--n", "8", "--zeta", "0.6",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["summary"]["count"] == 28


class TestSolve:
    def test_single_pair(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--n", "12", "--zeta", "0.57",
            "--j1", "11/2", "--j2", "11/2",
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert [r["class"] for r in records] == ["extra_two_string"]
        assert records[0]["status"] == "ok"
        assert records[0]["lambda1_im"] > 0.0

    def test_shared_label_emits_both_classes(self, capsys):
        # (5/2, 7/2) is carried by both the infinite real family and a wide
        # complex pair; both variants must be emitted.
        code, out, _ = run(
            capsys, "solve", "--n", "8", "--zeta", "0.6",
            "--j1", "5/2", "--j2", "7/2",
        )
        assert code == 0
        classes = {r["class"] for r in json.loads(out)["records"]}
        assert classes == {"infinite_family_real", "wide_pair_complex"}

    def test_unknown_pair_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "solve", "--n", "8", "--zeta", "0.6",
            "--j1", "1/2", "--j2", "1/2",
        )
        assert code == 2
        assert "not an enumerated pair" in err

    def test_missing_labels_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--n", "8", "--zeta", "0.6")
        assert code == 2

    def test_negative_labels_after_a_space(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--n", "8", "--zeta", "0.6",
            "--j1", "-7/2", "--j2", "-5/2",
        )
        assert code == 0
        classes = {r["class"] for r in json.loads(out)["records"]}
        assert classes == {"infinite_family_real", "wide_pair_complex"}
        _, joined, _ = run(
            capsys, "solve", "--n", "8", "--zeta", "0.6",
            "--j1=-7/2", "--j2=-5/2",
        )
        assert joined == out


    def test_debug_log_goes_to_stderr_only(self):
        argv = [
            sys.executable, "-m", "bethe_xxz.cli", "solve", "--n", "8",
            "--zeta", "0.6", "--j1", "5/2", "--j2", "5/2",
        ]
        env = _subprocess_env()
        quiet = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=60
        )
        loud = subprocess.run(
            argv, capture_output=True, text=True, timeout=60,
            env=dict(env, BETHE_TWO_LOG="DEBUG"),
        )
        assert quiet.returncode == loud.returncode == 0
        assert loud.stdout == quiet.stdout
        assert quiet.stderr == ""
        assert "narrow branch, J=2.5: brackets [(" in loud.stderr

    def test_equal_debug_log_goes_to_stderr_only(self):
        argv = [
            sys.executable, "-m", "bethe_xxz.cli", "solve", "--n", "8",
            "--zeta", "0.6", "--j1", "7/2", "--j2", "7/2",
        ]
        env = _subprocess_env()
        quiet = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=60
        )
        loud = subprocess.run(
            argv, capture_output=True, text=True, timeout=60,
            env=dict(env, BETHE_TWO_LOG="DEBUG"),
        )
        assert quiet.returncode == loud.returncode == 0
        assert loud.stdout == quiet.stdout
        assert quiet.stderr == ""
        assert "equal, J=3.5: brackets [(" in loud.stderr
        assert "root phi=" in loud.stderr

    def test_zero_defect_tolerance_is_applied(self, capsys):
        argv = ["solve", "--n", "8", "--zeta", "0.6", "--j1", "1/2",
                "--j2", "3/2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["records"][0]["defect"] > 0.0
        code, out, _ = run(capsys, *argv, "--tol-defect", "0")
        assert code == 4
        (record,) = json.loads(out)["records"]
        assert record["status"] == "error:ToleranceNotReached"
        code, _, _ = run(capsys, *argv, "--tol-defect", "1e-6")
        assert code == 0

    @pytest.mark.parametrize(
        "command", [["solve", "--j1", "1/2", "--j2", "3/2"], ["solve-all"]]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "x"])
    def test_bad_defect_tolerance_is_usage_error(self, capsys, command, value):
        code, out, err = run(
            capsys, *command, "--n", "8", "--zeta", "0.6",
            f"--tol-defect={value}",
        )
        assert code == 2
        assert out == ""
        assert "argument --tol-defect" in err
        code, _, _ = run(
            capsys, *command, "--n", "8", "--zeta", "0.6", "--tol-defect=1e-6"
        )
        assert code == 0


class TestSolveAll:
    def test_complete_inventory(self, capsys):
        code, out, _ = run(
            capsys, "solve-all", "--n", "8", "--zeta", "0.6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 29
        assert all(",ok," in line for line in lines[1:])

    def test_jobs_option_removed(self, capsys):
        code, _, _ = run(
            capsys, "solve-all", "--n", "8", "--zeta", "0.6", "--jobs", "4"
        )
        assert code == 2

    def test_sorted_by_labels(self, capsys):
        _, out, _ = run(capsys, "solve-all", "--n", "8", "--zeta", "0.6")
        records = json.loads(out)["records"]
        from fractions import Fraction

        keys = [
            (Fraction(r["j1"]), Fraction(r["j2"]), r["class"])
            for r in records
        ]
        assert keys == sorted(keys)


class TestVerify:
    def test_complete_spectrum(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "8", "--zeta", "0.6")
        assert code == 0
        assert out.startswith("28/28 matched;")

    def test_dimension_cap(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n", "40", "--zeta", "0.6",
            "--max-dim", "100",
        )
        assert code == 2
        assert "exceeds" in err
        assert "bytes" in err

    def test_solver_failure_exits_partial(self, capsys):
        # The narrow pairs (+-9/2, +-9/2) find no root at (16, 0.6); the
        # other 118 pairs are still matched.
        code, out, err = run(capsys, "verify", "--n", "16", "--zeta", "0.6")
        assert code == 4
        assert out.startswith("118/120 matched; INCOMPLETE: 2 pairs unsolved")
        assert "NoRootOnBranch" in out
        assert "Traceback" not in err

    def test_spectrum_mismatch_exits_incomplete(self, capsys, monkeypatch):
        from bethe_xxz import oracle

        monkeypatch.setattr(oracle, "RESIDUAL_TOL", 0.0)
        code, out, _ = run(capsys, "verify", "--n", "8", "--zeta", "0.6")
        assert code == 5
        assert out.startswith("28/28 matched; INCOMPLETE:")
        assert "eigen-residual" in out


class TestRegimeMap:
    def test_labels_agree(self, capsys):
        code, out, _ = run(
            capsys, "regime-map", "--n-range", "8:16:2",
            "--zeta-grid", "0.1:1.0:5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["disagreements"] == 0
        assert payload["summary"]["count"] == 25


class TestXxxTrace:
    def test_trace_rows(self, capsys):
        code, out, _ = run(
            capsys, "xxx-trace", "--n", "8", "--j1", "7/2", "--j2", "1/2",
            "--zeta-schedule", "0.3,0.1,0.03,0.01",
        )
        assert code == 0
        records = json.loads(out)["records"]
        reduced = [r["lambda1_over_zeta"] for r in records]
        assert reduced == sorted(reduced)
        assert len(records) == 4

    def test_non_family_pair_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "xxx-trace", "--n", "8", "--j1", "1/2", "--j2", "3/2",
            "--zeta-schedule", "0.3,0.1",
        )
        assert code == 2
        assert "infinite family" in err


class TestUsage:
    def test_odd_size_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "7", "--zeta", "0.5")
        assert code == 2
        assert "even" in err

    def test_missing_required_parameters(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--zeta", "0.5")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2
