"""Command-line surface: formats, exit codes, determinism."""
import json
import math
import os
import re
import subprocess
import sys

import pytest

import bethe_xxz
from bethe_xxz import cli
from bethe_xxz.cli import main
from bethe_xxz.model import HalfInt
from bethe_xxz.quantum_numbers import threshold_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _nine_halves(q):
    """The narrow pairs (+-9/2, +-9/2) of N = 16, made to fail."""
    return abs(q.j1) == abs(q.j2) == HalfInt(9)


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
        code, _, err = run(capsys, "solve", "--n", "8", "--zeta", "0.6")
        assert code == 2
        assert "the following arguments are required: --j1, --j2" in err

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
        assert "narrow bound state, k=3: v=" in loud.stderr

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
        assert re.search(
            r"equal, J=3\.5: block k=1, q=\S+ after \d+ steps", loud.stderr
        )

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

    def test_failed_pair_has_summary_and_no_stderr(self, capsys, fail_complex):
        # solve reports its failures in the records and the exit code only;
        # the `failed pairs:` line is solve-all's.
        fail_complex(_nine_halves)
        code, out, err = run(
            capsys, "solve", "--n", "16", "--zeta", "0.6",
            "--j1", "9/2", "--j2", "9/2",
        )
        assert code == 4
        assert err == ""
        payload = json.loads(out)
        assert payload["summary"] == {"count": 1, "failed": 1}
        assert payload["records"][0]["status"] == "error:NoRootOnBranch"

    @pytest.mark.parametrize(
        "a,b",
        [
            ("1/2", "3/2"),  # standard real
            ("3/2", "5/2"),  # singular and standard real
            ("-7/2", "-5/2"),  # infinite family and wide
        ],
    )
    def test_label_order_does_not_matter(self, capsys, a, b):
        argv = ("solve", "--n", "8", "--zeta", "0.6")
        forward = run(capsys, *argv, f"--j1={a}", f"--j2={b}")
        assert forward[0] == 0 and forward[1]
        assert run(capsys, *argv, f"--j1={b}", f"--j2={a}") == forward


class TestParserReuse:
    def _argvs(self, target):
        return [
            ["solve", "--n", "8", "--zeta", "0.6", "--j1", "3/2", "--j2",
             "5/2", "--format", "csv", "--tol-defect", "1e-14",
             "--output", str(target)],
            ["solve", "--n", "8", "--zeta", "0.6", "--j1", "3/2", "--j2",
             "5/2"],
            ["enumerate", "--n", "8", "--zeta", "0.6"],
            ["solve-all", "--n", "8", "--zeta", "0.6"],
            ["solve", "--n", "8", "--zeta", "0.6", "--bogus"],
        ]

    def _runs(self, capsys, target):
        results = []
        for argv in self._argvs(target):
            code, out, err = run(capsys, *argv)
            written = target.read_bytes() if target.exists() else None
            target.unlink(missing_ok=True)
            results.append((code, out, err, written))
        return results

    def test_one_parser_gives_fresh_parser_bytes(
        self, capsys, monkeypatch, tmp_path
    ):
        # Options of one call (--format csv, --tol-defect, --output) and a
        # usage error must not leak into the next call.
        target = tmp_path / "solve.csv"
        cli._build_parser.cache_clear()
        reused = self._runs(capsys, target)
        assert cli._build_parser.cache_info().misses == 1
        assert reused[0][3] is not None and reused[0][1] == ""
        assert reused[1][1].startswith("{")
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert self._runs(capsys, target) == reused


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

    def test_four_site_family_pairs_solve(self, capsys):
        # (+-3/2, +-3/2) at N = 4, zeta <= 0.01 raised NoRealSolution.
        code, out, err = run(capsys, "solve-all", "--n", "4", "--zeta", "0.01")
        assert code == 0 and err == ""
        assert json.loads(out)["summary"] == {"count": 6, "failed": 0}

    def test_debug_log_goes_to_stderr_only(self):
        # A zero defect tolerance fails the real pairs, whose defects are
        # above 0, so stderr also carries the `failed pairs:` line.
        argv = [
            sys.executable, "-m", "bethe_xxz.cli", "solve-all", "--n", "16",
            "--zeta", "0.6", "--tol-defect", "0",
        ]
        env = _subprocess_env()
        quiet = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=60
        )
        loud = subprocess.run(
            argv, capture_output=True, text=True, timeout=60,
            env=dict(env, BETHE_TWO_LOG="DEBUG"),
        )
        assert quiet.returncode == loud.returncode == 4
        assert loud.stdout == quiet.stdout
        batch = (
            r"sector batch N=16 zeta=0\.6: 104 pairs, 56 lanes, \d+ bisection "
            r"steps, \d+ kept the polished pair\n"
        )
        assert re.search(batch, loud.stderr)
        assert loud.stderr.endswith(quiet.stderr)

    def test_failed_line_names_the_error_records(self, capsys, fail_complex):
        fail_complex(_nine_halves)
        code, out, err = run(capsys, "solve-all", "--n", "16", "--zeta", "0.6")
        assert code == 4
        payload = json.loads(out)
        errors = [
            f"({r['j1']},{r['j2']})"
            for r in payload["records"]
            if r["status"].startswith("error:")
        ]
        assert errors == ["(-9/2,-9/2)", "(9/2,9/2)"]
        assert payload["summary"] == {"count": 120, "failed": 2}
        assert err == "failed pairs: " + ", ".join(errors) + "\n"

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

    @pytest.mark.parametrize(
        "n,zeta", [(4, "1e-3"), (30, "1e-3"), (40, "0.01"), (64, "0.01")]
    )
    def test_equal_label_points(self, capsys, n, zeta):
        # Points with real equal-label pairs, whose vectors come from the
        # block momenta a -+ q.
        code, out, _ = run(capsys, "verify", "--n", str(n), "--zeta", zeta)
        dim = n * (n - 1) // 2
        assert code == 0
        assert out.startswith(f"{dim}/{dim} matched;")

    def test_n200_with_no_dense_cap(self, capsys):
        # dim 19 900, whose dense matrix would take 3.2 GB: every vector
        # lives in its momentum block, and no dense matrix is formed.
        code, out, _ = run(capsys, "verify", "--n", "200", "--zeta", "0.3")
        assert code == 0
        assert out.startswith("19900/19900 matched;")

    def test_solver_failure_exits_partial(self, capsys, fail_complex):
        # The narrow pairs (+-9/2, +-9/2) are made to fail at (16, 0.6); the
        # other 118 pairs are still matched.
        fail_complex(_nine_halves)
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


def _degenerate_zeta():
    """The anisotropy where the N = 12 threshold crosses 11/2, bisected."""
    lo, hi = 0.52, 0.57
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if threshold_value(12, mid) < 5.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDegenerateBoundary:
    @pytest.mark.parametrize(
        "command",
        [
            ["enumerate"],
            ["solve", "--j1", "1/2", "--j2", "3/2"],
            ["solve-all"],
            ["verify"],
        ],
    )
    def test_exits_3(self, capsys, command):
        zeta = repr(_degenerate_zeta())
        code, out, err = run(capsys, *command, "--n", "12", "--zeta", zeta)
        assert code == cli.EXIT_DEGENERATE == 3
        assert out == ""
        assert err.startswith("degenerate boundary: ")
        assert err.count("\n") == 1


# One case per documented failure exit: (argv, exit code, stderr prefix).
# "{tmp}" is replaced by a fresh temporary directory.
EXIT_CASES = {
    "odd-size": (
        ["enumerate", "--n", "7", "--zeta", "0.5"], 2,
        "error: site number must be even",
    ),
    "infinite-zeta": (
        ["enumerate", "--n", "8", "--zeta", "inf"], 2,
        "error: anisotropy parameter must be finite",
    ),
    "huge-zeta-verify": (
        ["verify", "--n", "8", "--zeta", "710"], 2,
        "error: anisotropy parameter must be finite and at most "
        "709.782712893384",
    ),
    "huge-zeta-solve": (
        ["solve", "--n", "8", "--zeta", "711", "--j1", "1/2", "--j2", "3/2"],
        2,
        "error: anisotropy parameter must be finite and at most "
        "709.782712893384",
    ),
    "non-family-trace": (
        ["xxx-trace", "--n", "8", "--j1", "1/2", "--j2", "3/2",
         "--zeta-schedule", "0.3,0.1"], 2,
        "error: (1/2, 3/2) is not in the infinite family",
    ),
    "unwritable-output": (
        ["enumerate", "--n", "8", "--zeta", "0.6",
         "--output", "{tmp}/missing/pairs.json"], 2,
        "error: [Errno 2] No such file or directory",
    ),
    "degenerate-boundary": (
        ["enumerate", "--n", "12", "--zeta", repr(_degenerate_zeta())], 3,
        "degenerate boundary: ",
    ),
    "solve-all-partial": (
        ["solve-all", "--n", "16", "--zeta", "0.6", "--tol-defect", "0"], 4,
        "failed pairs: (-13/2,-15/2), (-13/2,-11/2), ",
    ),
    "trace-solver-failure": (
        ["xxx-trace", "--n", "12", "--j1", "11/2", "--j2", "11/2",
         "--zeta-schedule", "2.0"], 4,
        "error: counting function never attains 11/2",
    ),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_documented_exit(self, tmp_path, case):
        argv, code, prefix = EXIT_CASES[case]
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "bethe_xxz.cli", *argv],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(prefix)


class TestHugeZeta:
    """Far outside the zeta <= 5 envelope, up to MAX_ZETA: no traceback."""

    @pytest.mark.parametrize("zeta", ["100", "400", "700", "709.78"])
    def test_solve_all(self, capsys, zeta):
        code, out, err = run(capsys, "solve-all", "--n", "8", "--zeta", zeta)
        assert code in (0, 4)
        assert json.loads(out)["summary"]["count"] == 28
        assert "Traceback" not in err

    @pytest.mark.parametrize("zeta", ["100", "400", "700", "709"])
    def test_verify(self, capsys, zeta):
        code, out, err = run(capsys, "verify", "--n", "8", "--zeta", zeta)
        assert code in (0, 4)
        assert out.startswith("28/28 matched")
        assert "Traceback" not in err


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

    @pytest.mark.parametrize(
        "n_range,zeta_grid,message",
        [
            ("8:4:2", "0.1:1.0:2", "--n-range '8:4:2' is empty"),
            ("8:16:2", "0.1:1.0:0", "count must be at least 1"),
            ("8:16:2", "0.1:1.0:-3", "count must be at least 1"),
        ],
    )
    def test_empty_axis_is_usage_error(
        self, capsys, n_range, zeta_grid, message
    ):
        code, out, err = run(
            capsys, "regime-map", "--n-range", n_range,
            "--zeta-grid", zeta_grid,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_one_point_grid_is_its_lower_end(self, capsys):
        code, out, _ = run(
            capsys, "regime-map", "--n-range", "8:12:2",
            "--zeta-grid", "0.3:1.0:1",
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert [(r["n"], r["zeta"]) for r in records] == [
            (8, 0.3), (10, 0.3), (12, 0.3)
        ]


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

    @pytest.mark.parametrize(
        "j1,j2",
        [("-1/2", "7/2"), ("2", "7/2"), ("1/2", "5/2")],
        ids=["mixed-sign", "integer-label", "no-edge-label"],
    )
    def test_family_rule_message(self, capsys, j1, j2):
        code, out, err = run(
            capsys, "xxx-trace", "--n", "8", f"--j1={j1}", f"--j2={j2}",
            "--zeta-schedule", "0.3,0.1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: ({j1}, {j2}) is not in the infinite family\n"


class TestUsage:
    def test_odd_size_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "7", "--zeta", "0.5")
        assert code == 2
        assert "even" in err

    def test_missing_required_parameters(self, capsys):
        code, _, err = run(capsys, "enumerate", "--zeta", "0.5")
        assert code == 2
        assert "the following arguments are required: --n" in err

    @pytest.mark.parametrize(
        "argv,missing",
        [
            (["enumerate", "--n", "8"], "--zeta"),
            (["solve", "--zeta", "0.6", "--j1", "1/2", "--j2", "3/2"], "--n"),
            (["solve", "--n", "8", "--zeta", "0.6", "--j1", "1/2"], "--j2"),
            (["solve", "--n", "8", "--zeta", "0.6", "--j2", "3/2"], "--j1"),
            (["solve-all"], "--n, --zeta"),
            (["solve-all", "--n", "8"], "--zeta"),
            (["verify", "--n", "8"], "--zeta"),
            (["verify", "--zeta", "0.6"], "--n"),
            (["xxx-trace", "--j1", "7/2", "--j2", "1/2",
              "--zeta-schedule", "0.3"], "--n"),
            (["xxx-trace", "--n", "8", "--zeta-schedule", "0.3"],
             "--j1, --j2"),
        ],
        ids=lambda value: value if isinstance(value, str) else " ".join(value),
    )
    def test_missing_option_names_it(self, capsys, argv, missing):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f"error: the following arguments are required: {missing}"
        )
        assert "Traceback" not in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("command", ["enumerate", "solve-all", "verify"])
    @pytest.mark.parametrize("zeta", ["inf", "-inf", "nan"])
    def test_non_finite_anisotropy_rejected(self, capsys, command, zeta):
        code, out, err = run(capsys, command, "--n", "8", f"--zeta={zeta}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: anisotropy parameter must be ")
        assert err.count("\n") == 1


EMIT_COMMANDS = [
    ["enumerate", "--n", "8", "--zeta", "0.6"],
    ["solve", "--n", "12", "--zeta", "0.57", "--j1", "5/2", "--j2", "7/2"],
    ["solve-all", "--n", "16", "--zeta", "0.6"],
    ["solve-all", "--n", "22", "--zeta", "1e-3"],
    ["regime-map", "--n-range", "8:16:2", "--zeta-grid", "0.1:1.0:5"],
    ["xxx-trace", "--n", "8", "--j1", "7/2", "--j2", "1/2",
     "--zeta-schedule", "0.3,0.1,0.03"],
]


def _stdlib_indent2(value):
    return json.dumps(value, indent=2)


class TestEmit:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", EMIT_COMMANDS, ids=lambda a: a[0])
    def test_same_bytes_as_stdlib_indent(self, capsys, monkeypatch, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        monkeypatch.setattr(cli, "_json_indent2", _stdlib_indent2)
        assert run(capsys, *argv, "--format", fmt) == (code, out, err)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [{}]},
            [[], [[1, []]], {"k": [2.5, None]}],
            {"x": math.nan, "y": [math.inf, -math.inf], "z": -0.0},
            {"na\u00efve": "\u2202\u00b2 \u03b6", "t": True, "f": False},
            {"records": [{"n": 4, "m": {"k": 0.1}}, {"n": 6, "m": "e"}]},
            "plain",
            3,
        ],
    )
    def test_edge_cases(self, value):
        assert cli._json_indent2(value) == _stdlib_indent2(value)


class TestImports:
    def test_package_and_cli_load_only_numpy(self):
        # mpmath and scipy are test tools or absent; the package must not
        # pull them in, nor pay their import time.
        code = (
            "import sys, bethe_xxz, bethe_xxz.cli; "
            "print(sorted({'mpmath', 'scipy'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_subprocess_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
