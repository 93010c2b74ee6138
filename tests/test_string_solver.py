"""Complex conjugate pairs, the edge-centered string, the singular pair."""
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe_xxz.model import (
    ChainParams,
    HalfInt,
    NegativeDiscriminant,
    NegativeTanSquare,
    NoRootOnBranch,
    QuantumPair,
    SolutionClass,
    bisect_monotone,
)
from bethe_xxz import string_solver
from bethe_xxz.equal_solver import tan2x_limit
from bethe_xxz.quantum_numbers import enumerate_all, threshold_f
from bethe_xxz.string_solver import (
    GRID_POINTS,
    NARROW_W_MAX,
    NARROW_W_MIN,
    WIDE_W_MIN,
    Branch,
    _BRANCH_BY_CLASS,
    _solve_on_branch,
    boundary_string_halfwidth,
    branch_grid,
    delta_of_w,
    n_z1_grid,
    singular_solution,
    solve_boundary_string,
    solve_complex,
    tan2x_of_w,
    wide_w_cap,
    z1,
)

P86 = ChainParams(8, 0.6)


def _pair(tw1, tw2, cls):
    return QuantumPair(HalfInt(tw1), HalfInt(tw2), cls)


class TestFrozenSolutions:
    def test_narrow_pair(self):
        s = solve_complex(_pair(5, 5, SolutionClass.NARROW_PAIR_COMPLEX), P86)
        assert s.lambda1.real == pytest.approx(0.2191053942156725, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.29991028805495906, abs=1e-11)
        # Narrow: imaginary part below zeta/2.
        assert s.lambda1.imag < 0.5 * P86.zeta
        assert s.branch_meta["branch"] == "narrow"

    def test_wide_pair(self):
        s = solve_complex(_pair(5, 7, SolutionClass.WIDE_PAIR_COMPLEX), P86)
        assert s.lambda1.real == pytest.approx(0.48230201405622714, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.31014401085223187, abs=1e-11)
        assert s.lambda1.imag > 0.5 * P86.zeta
        assert s.branch_meta["branch"] == "wide"

    def test_extra_two_string_n12(self):
        s = solve_complex(
            _pair(11, 11, SolutionClass.EXTRA_TWO_STRING), ChainParams(12, 0.57)
        )
        assert s.lambda1.real == pytest.approx(1.1242896457627363, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.09082613335845899, abs=1e-11)

    def test_extra_two_string_n4(self):
        s = solve_complex(
            _pair(3, 3, SolutionClass.EXTRA_TWO_STRING), ChainParams(4, 1.0)
        )
        assert s.lambda1.real == pytest.approx(math.pi / 4.0, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.2918146904662089, abs=1e-11)


class TestStructure:
    @pytest.mark.parametrize(
        "tw1,tw2,cls",
        [
            (5, 5, SolutionClass.NARROW_PAIR_COMPLEX),
            (5, 7, SolutionClass.WIDE_PAIR_COMPLEX),
        ],
    )
    def test_conjugate_pair(self, tw1, tw2, cls):
        s = solve_complex(_pair(tw1, tw2, cls), P86)
        assert s.lambda2 == s.lambda1.conjugate()
        assert s.residual < 1e-8

    def test_mirror_is_negated(self):
        s = solve_complex(_pair(5, 7, SolutionClass.WIDE_PAIR_COMPLEX), P86)
        m = solve_complex(_pair(-7, -5, SolutionClass.WIDE_PAIR_COMPLEX), P86)
        assert abs(m.lambda1 + s.lambda1) < 1e-12
        assert abs(m.lambda2 + s.lambda2) < 1e-12
        assert m.branch_meta.get("mirrored") is True

    def test_rejects_real_class(self):
        with pytest.raises(ValueError):
            solve_complex(_pair(1, 3, SolutionClass.STANDARD_REAL), P86)

    def test_unattainable_target_raises(self):
        with pytest.raises(NoRootOnBranch):
            solve_complex(_pair(1, 3, SolutionClass.WIDE_PAIR_COMPLEX), P86)


class TestCountingFunction:
    def test_zero_deviation_parameterization(self):
        # w = 1 corresponds to delta = 0 exactly.
        assert delta_of_w(1.0, P86) == pytest.approx(0.0, abs=1e-15)
        assert delta_of_w(wide_w_cap(P86), P86) > 10.0

    @pytest.mark.parametrize("n,zeta", [(8, 0.6), (12, 0.52), (12, 0.57)])
    def test_collapsed_string_limit_matches_threshold(self, n, zeta):
        # As w -> 0 the string collapses onto the real equal-label branch:
        # N*Z1 tends to the two-string threshold and the center tangent to
        # its small-deviation closed form.
        p = ChainParams(n, zeta)
        assert p.n * z1(1e-6, p) == pytest.approx(threshold_f(p), abs=1e-6)
        assert tan2x_of_w(1e-6, p) == pytest.approx(
            tan2x_limit(p), abs=1e-8
        )

    def test_narrow_branch_decreasing(self):
        runs = _branch_runs(Branch.NARROW, P86)
        assert sum(len(r) for r in runs) > 500
        for run in runs:
            assert all(a >= b - 1e-12 for a, b in zip(run, run[1:]))

    def test_wide_branch_increasing(self):
        # Part of the w-grid falls outside the physical wide region (the
        # closed form has no real center there); monotonicity is checked on
        # each contiguous valid run.
        runs = _branch_runs(Branch.WIDE, P86)
        assert sum(len(r) for r in runs) > 100
        for run in runs:
            assert all(a <= b + 1e-12 for a, b in zip(run, run[1:]))


def _branch_runs(branch, p, points=1000):
    if branch is Branch.NARROW:
        lo, hi = 1e-5, 1.0 - 1e-6
    else:
        lo, hi = 1.0 + 1e-6, wide_w_cap(p) * (1.0 - 1e-9)
    ratio = (hi / lo) ** (1.0 / (points - 1))
    runs, current = [], []
    w = lo
    for _ in range(points):
        try:
            current.append(z1(w, p))
        except Exception:
            if current:
                runs.append(current)
                current = []
        w = min(w * ratio, hi)
    if current:
        runs.append(current)
    return runs


def _reference_bounds(branch, p):
    if branch is Branch.NARROW:
        lo, hi = NARROW_W_MIN, NARROW_W_MAX
    else:
        lo, hi = WIDE_W_MIN, wide_w_cap(p)
    return lo, hi, (hi / lo) ** (1.0 / (GRID_POINTS - 1))


def _reference_solve_on_branch(target_j, branch, p):
    """The scalar scan-and-bisect loop that the vectorised scan replaced."""

    def shifted(w):
        return p.n * string_solver.z1(w, p) - target_j

    lo, hi, ratio = _reference_bounds(branch, p)
    prev_w = prev_val = None
    w = lo
    for _ in range(GRID_POINTS):
        try:
            val = shifted(w)
        except (NegativeDiscriminant, NegativeTanSquare):
            prev_w = prev_val = None
            w = min(w * ratio, hi)
            continue
        if prev_val is not None and prev_val * val <= 0.0:
            root, _ = bisect_monotone(
                shifted, prev_w, w, f_lo=prev_val, f_hi=val,
                xtol=1e-16, max_iter=200,
            )
            if abs(shifted(root)) < 1e-6:
                return root
        prev_w, prev_val = w, val
        w = min(w * ratio, hi)
    raise NoRootOnBranch(target_j)


def _complex_targets(p):
    """Distinct (branch, target) pairs that solve_complex scans for."""
    return sorted(
        {
            (_BRANCH_BY_CLASS[q.cls], float(min(abs(q.j1), abs(q.j2))))
            for q in enumerate_all(p)
            if q.cls.is_complex
        },
        key=lambda item: (item[0].value, item[1]),
    )


def _outcome(solve, target, branch, p):
    try:
        return solve(target, branch, p)
    except NoRootOnBranch:
        return "no root"


EQUIVALENCE_POINTS = [
    (n, zeta)
    for n in range(4, 50, 2)
    for zeta in (1e-3, 0.05, 0.3, 0.6, 1.0, 2.0, 5.0)
] + [(64, 0.3), (64, 2.0), (128, 0.3)]


class TestVectorisedScan:
    def test_grid_repeats_the_scalar_recurrence(self):
        for p in (P86, ChainParams(128, 0.3), ChainParams(4, 5.0)):
            for branch in Branch:
                lo, hi, ratio = _reference_bounds(branch, p)
                expected, w = [], lo
                for _ in range(GRID_POINTS):
                    expected.append(w)
                    w = min(w * ratio, hi)
                assert branch_grid(branch, p).tolist() == expected

    @pytest.mark.parametrize("n,zeta", EQUIVALENCE_POINTS)
    def test_same_root_as_scalar_scan(self, n, zeta):
        # Same float, or NoRootOnBranch from both, for every complex target.
        p = ChainParams(n, zeta)
        for branch, target in _complex_targets(p):
            assert _outcome(_solve_on_branch, target, branch, p) == _outcome(
                _reference_solve_on_branch, target, branch, p
            ), (branch, target)

    @settings(max_examples=200, deadline=None)
    @given(
        half_n=st.integers(2, 64),
        zeta=st.floats(1e-3, 5.0),
        position=st.floats(0.0, 1.0),
        branch=st.sampled_from(Branch),
    )
    def test_grid_equals_scalar_counting_function(
        self, half_n, zeta, position, branch
    ):
        p = ChainParams(2 * half_n, zeta)
        lo, hi, _ = _reference_bounds(branch, p)
        w = min(lo * (hi / lo) ** position, hi)
        value = n_z1_grid(np.array([w]), p)[0]
        try:
            expected = p.n * z1(w, p)
        except (NegativeDiscriminant, NegativeTanSquare):
            assert not np.isfinite(value)
            return
        assert abs(value - expected) <= 1e-12

    def test_jump_rejected_and_first_root_wins(self, monkeypatch, caplog):
        # No enumerated target in the tested envelope meets more than one
        # bracket, so a stand-in counting function exercises the rest: it
        # jumps over 2 at w = 0.3, then crosses 2 at w = 0.8 and w = 0.95.
        def counting(w):
            return np.select([w < 0.3, w < 0.9], [1.0, 2.8 - w], 2.0 * w + 0.1)

        monkeypatch.setattr(
            string_solver, "z1", lambda w, p: float(counting(w)) / p.n
        )
        monkeypatch.setattr(
            string_solver, "n_z1_grid", lambda w, p: counting(w)
        )
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            root = _solve_on_branch(2.0, Branch.NARROW, P86)
        assert root == _reference_solve_on_branch(2.0, Branch.NARROW, P86)
        assert root == pytest.approx(0.8, abs=1e-12)
        grid = branch_grid(Branch.NARROW, P86).tolist()
        k = int(np.searchsorted(grid, 0.3))
        (message,) = [r.getMessage() for r in caplog.records]
        assert f"jumps [{(grid[k - 1], grid[k])!r}], root w=" in message
        assert message.count("), (") == 2  # three candidate brackets

    def test_debug_log_names_brackets_and_outcome(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            _solve_on_branch(2.5, Branch.NARROW, P86)
            with pytest.raises(NoRootOnBranch):
                _solve_on_branch(0.5, Branch.WIDE, P86)
        found, missed = [r.getMessage() for r in caplog.records]
        assert found.startswith("narrow branch, J=2.5: brackets [(")
        assert "jumps [], root w=" in found
        assert missed.startswith("wide branch, J=0.5: brackets ")
        assert missed.endswith("no root")


class TestBoundaryString:
    def test_frozen_halfwidth(self):
        assert boundary_string_halfwidth(P86) == pytest.approx(
            0.44633123382263995, abs=1e-12
        )

    def test_centered_on_domain_edge(self):
        s = solve_boundary_string(P86)
        assert s.lambda1.real == math.pi / 2.0
        assert s.lambda1.imag == pytest.approx(0.44633123382263995, abs=1e-12)
        assert s.lambda2 == s.lambda1.conjugate()
        assert s.lambda1.imag > 0.5 * P86.zeta  # always a wide string
        assert s.branch_meta["method"] == "boundary_string"

    @pytest.mark.parametrize(
        "n,zeta", [(4, 0.001), (8, 0.6), (8, 5.0), (40, 2.0), (100, 1.0)]
    )
    def test_residual_tiny_across_scales(self, n, zeta):
        # At strong anisotropy the excess over zeta/2 is ~e^(-(N-2) zeta),
        # far below the rounding of the half-width itself; the solver must
        # still report a machine-precision residual.
        s = solve_boundary_string(ChainParams(n, zeta))
        assert s.residual < 1e-12


class TestSingular:
    def test_exact_pair(self):
        s = singular_solution(P86)
        assert s.lambda1 == complex(0.0, 0.3)
        assert s.lambda2 == -s.lambda1
        assert s.residual is None
        assert s.branch_meta["method"] == "singular_exact"

    def test_labels_by_size_mod_4(self):
        expected = {
            8: (HalfInt(3), HalfInt(5)),
            6: (HalfInt(3), HalfInt(3)),
            12: (HalfInt(5), HalfInt(7)),
        }
        for n, labels in expected.items():
            singular = [
                q for q in enumerate_all(ChainParams(n, 0.6))
                if q.cls is SolutionClass.SINGULAR
            ]
            assert [(q.j1, q.j2) for q in singular] == [labels], n
