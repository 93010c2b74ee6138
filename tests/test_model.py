"""Core types: half-integers, parameters, residuals, root finders."""
import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from bethe_xxz.model import (
    MAX_ZETA,
    ChainParams,
    HalfInt,
    NoRootInBracket,
    PoleEncountered,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    bae_defect,
    bisect_monotone,
    magnon_energy,
    newton_monotone,
)
from reference import log_bae_residual

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

    @pytest.mark.parametrize("twice", range(-9, 10))
    def test_hash_agrees_with_equality(self, twice):
        # Equal objects hash equal: a HalfInt finds the int or float it
        # equals in a dict or set, and the other way round.
        h = HalfInt(twice)
        value = twice // 2 if twice % 2 == 0 else twice / 2.0
        assert h == value == float(h)
        assert hash(h) == hash(value) == hash(float(h))
        assert {h: "x"}[value] == "x" and {value: "x"}[h] == "x"
        assert {float(h): "x"}[h] == "x"
        assert len({h, value, float(h)}) == 1

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

    @pytest.mark.parametrize("zeta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_anisotropy(self, zeta):
        with pytest.raises(ValueError):
            ChainParams(8, zeta)

    def test_zeta_bound_is_where_cosh_overflows(self):
        # The bound is on 2 Delta, the diagonal of the sector Hamiltonian.
        assert math.isfinite(2.0 * ChainParams(8, MAX_ZETA).delta)
        above = math.nextafter(MAX_ZETA, math.inf)
        assert 2.0 * math.cosh(above) == math.inf
        with pytest.raises(ValueError, match="2 cosh\\(zeta\\) overflows"):
            ChainParams(8, above)


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

    def test_overflowing_side_is_a_pole(self):
        # Just off a narrow string at (200, 5): no denominator is below
        # POLE_TOL, but (sin(lam + i zeta/2)/sin(lam - i zeta/2))^N
        # overflows.
        p = ChainParams(200, 5.0)
        lam = complex(0.33, 2.5 + 1e-10)
        with pytest.raises(PoleEncountered, match="overflows"):
            bae_defect(lam, lam.conjugate(), p)

    def test_normalized_for_huge_sides(self):
        # At strong anisotropy both sides are of order e^(N zeta); the
        # defect must stay O(1) rather than exploding with them.
        p = ChainParams(8, 5.0)
        assert bae_defect(0.3, 0.9, p) <= 2.0

    @pytest.mark.parametrize(
        "lam",
        [complex(math.nan, 0.0), complex(0.1, math.nan),
         complex(0.1, math.inf), complex(0.1, -math.inf)],
        ids=["nan-re", "nan-im", "inf-im", "minus-inf-im"],
    )
    def test_non_finite_rapidity_fails_every_tolerance(self, lam):
        # max() keeps the defect it compares a NaN against, so a NaN side
        # used to read as an exact solution (defect 0.0).
        for pair in ((lam, 0.3 + 0j), (0.3 + 0j, lam), (lam, lam)):
            defect = bae_defect(*pair, P86)
            assert math.isnan(defect)
            assert not defect <= math.inf


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

    @pytest.mark.parametrize("zeta", [709.78, MAX_ZETA])
    @pytest.mark.parametrize("re", [0.3926990816987242, 0.05, 1.2])
    def test_overflowing_phase_against_mpmath(self, re, zeta):
        # A narrow string near MAX_ZETA: the phase
        # sin(lam + i zeta/2)/sin(lam - i zeta/2) of one rapidity is past
        # the float limit while the energy is finite.
        p = ChainParams(8, zeta)
        lam = complex(re, 0.5 * zeta)
        with mpmath.workdps(40):
            total = 0
            for x in (mpmath.mpc(lam), mpmath.mpc(lam.conjugate())):
                hz = mpmath.mpc(0, p.zeta) / 2
                phase = mpmath.sin(x + hz) / mpmath.sin(x - hz)
                total += (phase + 1 / phase) / 2
            exact = float(total.real - 2 * mpmath.cosh(p.zeta))
        e = magnon_energy(lam, lam.conjugate(), p)
        assert math.isfinite(e)
        assert abs(e - exact) <= 1e-12 * abs(exact)


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
        assert r.momenta is None and m.momenta is None

    def test_rapidity_pair_negation_negates_momenta(self):
        r = RapidityPair(0.1, 0.2, 1e-15, 3, {}, (0.0, 1.5))
        m = r.negated()
        assert m.momenta == (-0.0, -1.5)
        assert math.copysign(1.0, m.momenta[0]) == -1.0  # a float -0.0
        bound = RapidityPair(
            0.1 - 0.2j, 0.1 + 0.2j, 1e-15, 3, {}, (1 - 2j, 1 + 2j)
        )
        assert bound.negated().momenta == (-1 + 2j, -1 - 2j)
        # Momenta are output of the solve, not part of the pair's value.
        assert RapidityPair(0.1, 0.2, 1e-15, 3) == r

    def test_class_partition(self):
        real = {c for c in SolutionClass if c.is_real}
        cplx = {c for c in SolutionClass if c.is_complex}
        assert not real & cplx
        assert SolutionClass.SINGULAR not in real | cplx


class TestNewtonMonotone:
    def test_convex_from_the_right(self):
        # exp(x) - 2 is convex: from the right end the iterates fall
        # monotonically onto ln 2.
        root, steps, fell_back = newton_monotone(
            lambda x: math.exp(x) - 2.0, math.exp, 0.0, 2.0, 2.0
        )
        assert root == pytest.approx(math.log(2.0), rel=1e-15)
        assert 1 < steps < 10 and not fell_back

    def test_concave_from_the_left(self):
        root, steps, fell_back = newton_monotone(
            math.log, lambda x: 1.0 / x, 0.25, 3.0, 0.25
        )
        assert root == pytest.approx(1.0, rel=1e-15)
        assert 1 < steps < 10 and not fell_back

    def test_exact_root_at_the_start(self):
        out = newton_monotone(lambda x: x - 1.0, lambda x: 1.0, 0.0, 1.0, 1.0)
        assert out == (1.0, 1, False)

    def test_step_out_of_the_bracket_falls_back_to_bisection(self):
        # atan is concave right of 0, so Newton from the right end
        # overshoots: its first step lands near -138, outside [-1, 10].
        root, steps, fell_back = newton_monotone(
            math.atan, lambda x: 1.0 / (1.0 + x * x), -1.0, 10.0, 10.0
        )
        bisected, bisections = bisect_monotone(math.atan, -1.0, 10.0, xtol=0.0)
        assert (root, steps, fell_back) == (bisected, 1 + bisections, True)

    @pytest.mark.parametrize("slope", [0.0, math.nan])
    def test_zero_or_nan_slope_falls_back(self, slope):
        root, _, fell_back = newton_monotone(
            lambda x: x - 0.3, lambda x: slope, 0.0, 1.0, 1.0
        )
        assert fell_back
        assert root == bisect_monotone(lambda x: x - 0.3, 0.0, 1.0, xtol=0.0)[0]

    def test_step_cap_falls_back(self):
        root, steps, fell_back = newton_monotone(
            lambda x: math.exp(x) - 2.0, math.exp, 0.0, 2.0, 2.0, max_iter=1
        )
        bisected, bisections = bisect_monotone(
            lambda x: math.exp(x) - 2.0, 0.0, 2.0, xtol=0.0
        )
        assert (root, steps, fell_back) == (bisected, 1 + bisections, True)
