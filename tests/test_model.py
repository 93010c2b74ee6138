"""Core types: half-integers, parameters, residuals, bisection."""
import math

import pytest
from hypothesis import given, strategies as st

from bethe_xxz.model import (
    ChainParams,
    HalfInt,
    NegativeTanSquare,
    NoRootInBracket,
    PoleEncountered,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    bae_defect,
    bisect_monotone,
    first_grid_root,
    log_bae_residual,
    magnon_energy,
)

P86 = ChainParams(8, 0.6)
# A solved standard real pair at N=8, zeta=0.6, labels (1/2, 3/2).
STD_PAIR = (0.04690056085296905, 0.2074403635366954)


class TestHalfInt:
    def test_parse_forms(self):
        assert HalfInt.parse("7/2") == HalfInt(7)
        assert HalfInt.parse("-5/2") == HalfInt(-5)
        assert HalfInt.parse("3") == HalfInt(6)
        assert HalfInt.parse(" 1/2 ") == HalfInt(1)

    def test_parse_rejects_thirds(self):
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")

    def test_str_matches_parse(self):
        assert str(HalfInt(7)) == "7/2"
        assert str(HalfInt(-4)) == "-2"

    def test_float_value(self):
        assert float(HalfInt(7)) == 3.5
        assert float(HalfInt(-1)) == -0.5

    def test_arithmetic(self):
        assert HalfInt(3) + HalfInt(4) == HalfInt(7)
        assert HalfInt(3) + 1 == HalfInt(5)
        assert 1 + HalfInt(3) == HalfInt(5)
        assert HalfInt(3) - HalfInt(1) == HalfInt(2)
        assert -HalfInt(3) == HalfInt(-3)
        assert abs(HalfInt(-5)) == HalfInt(5)

    def test_ordering_and_float_comparison(self):
        assert HalfInt(1) < HalfInt(3)
        assert HalfInt(3) > 1
        assert HalfInt(2) == 1
        assert HalfInt(1) == 0.5

    def test_hashable_and_exact(self):
        assert len({HalfInt(1), HalfInt(1), HalfInt(2)}) == 2

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_str_round_trip(self, twice):
        h = HalfInt(twice)
        assert HalfInt.parse(str(h)) == h

    @given(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
    )
    def test_ordering_agrees_with_floats(self, a, b):
        assert (HalfInt(a) < HalfInt(b)) == (a / 2.0 < b / 2.0)


class TestChainParams:
    def test_derived_quantities(self):
        assert P86.delta == pytest.approx(math.cosh(0.6), rel=1e-15)
        assert P86.t == math.tanh(0.3)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 0, -4])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            ChainParams(n, 0.5)

    @pytest.mark.parametrize("zeta", [0.0, -0.1])
    def test_rejects_nonpositive_anisotropy(self, zeta):
        with pytest.raises(ValueError):
            ChainParams(8, zeta)


class TestBaeDefect:
    def test_small_at_solution(self):
        assert bae_defect(*STD_PAIR, P86) < 1e-12

    def test_large_off_solution(self):
        assert bae_defect(0.3, 0.9, P86) > 1e-3

    def test_swap_symmetric(self):
        for pair in [STD_PAIR, (0.3, 0.9), (0.1 + 0.2j, 0.1 - 0.2j)]:
            assert bae_defect(pair[0], pair[1], P86) == bae_defect(
                pair[1], pair[0], P86
            )

    def test_pole_at_singular_pair(self):
        with pytest.raises(PoleEncountered):
            bae_defect(0.3j, -0.3j, P86)

    def test_normalized_for_huge_sides(self):
        # At strong anisotropy both sides are of order e^(N zeta); the
        # defect must stay O(1) rather than exploding with them.
        p = ChainParams(8, 5.0)
        assert bae_defect(0.3, 0.9, p) <= 2.0


class TestLogResidual:
    def test_small_at_solution_with_labels(self):
        res = log_bae_residual(*STD_PAIR, HalfInt(1), HalfInt(3), P86)
        assert res < 1e-12

    def test_large_with_wrong_labels(self):
        res = log_bae_residual(*STD_PAIR, HalfInt(3), HalfInt(1), P86)
        assert res > 1e-2


class TestMagnonEnergy:
    def test_real_pair_energy(self):
        e = magnon_energy(*STD_PAIR, P86)
        assert isinstance(e, float)
        assert e < 0.0

    def test_pole_gives_bound_pair_energy(self):
        assert magnon_energy(0.3j, -0.3j, P86) == pytest.approx(
            -P86.delta, rel=1e-15
        )

    def test_conjugate_pair_energy_is_real_valued(self):
        lam = 0.4823020140562271 + 0.3101440108522319j
        e = magnon_energy(lam, lam.conjugate(), P86)
        assert isinstance(e, float)


class TestBisectMonotone:
    def test_decreasing_function(self):
        root, iters = bisect_monotone(lambda x: 2.0 - x, 0.0, 5.0, xtol=1e-14)
        assert root == pytest.approx(2.0, abs=1e-13)
        assert iters > 0

    def test_increasing_function(self):
        root, _ = bisect_monotone(math.sin, -1.0, 1.5, xtol=1e-14)
        assert root == pytest.approx(0.0, abs=1e-13)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoRootInBracket):
            bisect_monotone(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_exact_endpoint_root(self):
        root, iters = bisect_monotone(lambda x: x, 0.0, 1.0)
        assert root == 0.0 and iters == 0

    @given(st.floats(min_value=-0.9, max_value=0.9))
    def test_finds_shifted_root(self, c):
        root, _ = bisect_monotone(lambda x: x - c, -1.0, 1.0, xtol=1e-14)
        assert abs(root - c) < 1e-12


GRID = [k / 10.0 for k in range(11)]


def _grid_root(f, values=None, guard=0.0):
    if values is None:
        values = [f(x) for x in GRID]
    return first_grid_root(f, GRID, values, xtol=1e-15, accept=1e-8,
                           guard=guard)


class TestFirstGridRoot:
    def test_root_in_sliver_before_jump(self):
        # Crosses zero at 0.55, then falls by ~2.4 at 0.56: the samples at
        # 0.5 and 0.6 share a sign, so only the jump narrowing finds it.
        def f(x):
            return x - 0.55 if x < 0.56 else x - 3.0

        root, iterations, brackets, jumps = _grid_root(f)
        assert root == pytest.approx(0.55, abs=1e-14)
        assert iterations > 0
        assert brackets == [] and jumps == []

    def test_root_inside_steep_step(self):
        # A continuous step of 2.4 between samples, crossing zero right of
        # the step's mid value: narrowing alone would miss it.
        def f(x):
            return 24.0 * x - 14.0

        root, _, brackets, jumps = _grid_root(f)
        assert root == pytest.approx(14.0 / 24.0, abs=1e-14)
        assert brackets == [(0.5, 0.6)] and jumps == []

    def test_near_zero_guard_opens_a_bracket(self):
        # The sample at 0.5 reads slightly negative while the scalar f is
        # slightly positive there: the root lies in (0.4, 0.5).
        def f(x):
            return x - 0.5 + 1e-12

        values = [f(x) for x in GRID]
        values[5] = -1e-12
        assert _grid_root(f, values)[0] is None
        root, _, brackets, _ = _grid_root(f, values, guard=1e-9)
        assert root == pytest.approx(0.5 - 1e-12, abs=1e-15)
        assert brackets == [(0.4, 0.5), (0.5, 0.6)]

    def test_nan_gap_never_bridged(self):
        def f(x):
            if 0.45 < x < 0.55:
                raise NegativeTanSquare("undefined")
            return 8.0 * (x - 0.5)

        values = [f(x) if x != 0.5 else math.nan for x in GRID]
        assert _grid_root(f, values) == (None, None, [], [])

    def test_first_root_in_grid_order_wins(self):
        # Jumps over zero at 0.15 (rejected), then crosses at 0.45 and 0.85.
        def f(x):
            if x < 0.15:
                return -1.0
            return 0.45 - x if x < 0.65 else x - 0.85

        root, _, brackets, jumps = _grid_root(f)
        assert root == pytest.approx(0.45, abs=1e-14)
        assert brackets == [(0.1, 0.2), (0.4, 0.5), (0.8, 0.9)]
        assert jumps == [(0.1, 0.2)]


class TestValueTypes:
    def test_quantum_pair_negation(self):
        q = QuantumPair(HalfInt(1), HalfInt(7), SolutionClass.STANDARD_REAL)
        m = q.negated()
        assert (m.j1, m.j2, m.cls) == (HalfInt(-1), HalfInt(-7), q.cls)

    def test_rapidity_pair_negation_marks_mirror(self):
        r = RapidityPair(0.1 + 0.2j, 0.1 - 0.2j, 1e-15, 3, {"method": "x"})
        m = r.negated()
        assert m.lambda1 == -r.lambda1 and m.lambda2 == -r.lambda2
        assert m.branch_meta["mirrored"] is True
        assert r.branch_meta == {"method": "x"}

    def test_class_partition(self):
        real = {c for c in SolutionClass if c.is_real}
        cplx = {c for c in SolutionClass if c.is_complex}
        assert not real & cplx
        assert SolutionClass.SINGULAR not in real | cplx
