"""Divergence of reduced rapidities along a shrinking-anisotropy schedule."""
import math

import pytest

from bethe_xxz import xxx_limit
from bethe_xxz.model import (
    ChainParams,
    HalfInt,
    NoRealSolution,
    NoRootInBracket,
    OutsideSqueeze,
    QuantumPair,
    SolutionClass,
)
from bethe_xxz.xxx_limit import small_zeta_bound, trace_divergence

FAM = SolutionClass.INFINITE_FAMILY_REAL
SCHEDULE = [0.3, 0.1, 0.03, 0.01]


def _trace(n, tw1, tw2, schedule=SCHEDULE):
    q = QuantumPair(HalfInt(tw1), HalfInt(tw2), FAM)
    return trace_divergence(q, ChainParams(n, schedule[0]), schedule)


class TestBoundaryMember:
    def test_reduced_value_strictly_increases(self):
        t = _trace(8, 7, 1)
        reduced = [s.reduced for s in t.samples]
        assert all(a < b for a, b in zip(reduced, reduced[1:]))

    def test_first_rapidity_pinned_in_upper_window(self):
        t = _trace(8, 7, 1)
        bound = small_zeta_bound(8)
        for s in t.samples:
            if s.zeta <= bound:
                assert math.pi / 4.0 <= s.lambda1 < math.pi / 2.0

    def test_mirror_family_diverges_negated(self):
        t = _trace(8, -7, -1)
        bound = small_zeta_bound(8)
        for s in t.samples:
            if s.zeta <= bound:
                assert -math.pi / 2.0 < s.lambda1 <= -math.pi / 4.0
        reduced = [abs(s.reduced) for s in t.samples]
        assert all(a < b for a, b in zip(reduced, reduced[1:]))


class TestOtherMembers:
    @pytest.mark.parametrize("tw1,tw2", [(3, 7), (5, 7), (7, 7)])
    def test_all_family_members_diverge(self, tw1, tw2):
        t = _trace(8, tw1, tw2)
        reduced = [s.reduced for s in t.samples]
        assert all(a < b for a, b in zip(reduced, reduced[1:]))
        assert t.samples[-1].lambda1 >= math.pi / 4.0


class TestGuards:
    def test_rejects_non_family_pair(self):
        q = QuantumPair(HalfInt(1), HalfInt(3), SolutionClass.STANDARD_REAL)
        with pytest.raises(ValueError):
            trace_divergence(q, ChainParams(8, 0.3), SCHEDULE)

    def test_rejects_family_pair_without_edge_label(self):
        q = QuantumPair(HalfInt(1), HalfInt(3), FAM)
        with pytest.raises(ValueError):
            trace_divergence(q, ChainParams(8, 0.3), SCHEDULE)

    def test_rejects_non_decreasing_schedule(self):
        q = QuantumPair(HalfInt(7), HalfInt(1), FAM)
        with pytest.raises(ValueError):
            trace_divergence(q, ChainParams(8, 0.1), [0.1, 0.3])

    def test_rejects_nonpositive_schedule(self):
        q = QuantumPair(HalfInt(7), HalfInt(1), FAM)
        with pytest.raises(ValueError):
            trace_divergence(q, ChainParams(8, 0.1), [0.1, 0.0])


class TestSolverFailure:
    def test_message_names_zeta_once(self):
        # The equal-label solver's own message already names zeta.
        with pytest.raises(NoRealSolution) as info:
            _trace(12, 11, 11, [2.0])
        assert str(info.value).count("zeta=2.0") == 1
        assert "(at zeta=" not in str(info.value)

    def test_message_without_zeta_gains_it(self, monkeypatch):
        def failing(q, p):
            raise NoRootInBracket("no root")

        monkeypatch.setattr(xxx_limit, "solve_pair", failing)
        with pytest.raises(NoRootInBracket) as info:
            _trace(8, 7, 1, [0.3])
        assert str(info.value) == "no root (at zeta=0.3)"

    @pytest.mark.parametrize(
        "tw1,tw2,window",
        [(7, 3, "[pi/4, pi/2)"), (-7, -3, "(-pi/2, -pi/4]")],
    )
    def test_rapidity_rounded_to_the_edge_is_typed(self, tw1, tw2, window):
        # At zeta = 1e-8 the squeezed lambda1 rounds to +-pi/2, outside the
        # half-open window: a BetheError naming the sample, not an assert.
        with pytest.raises(OutsideSqueeze) as info:
            _trace(8, tw1, tw2, [1e-6, 1e-7, 1e-8])
        lam1 = math.copysign(math.pi / 2.0, tw1)
        assert str(info.value) == (
            f"lambda1={lam1!r} outside {window} at zeta=1e-08"
        )


class TestFamilyRule:
    @pytest.mark.parametrize(
        "tw1,tw2",
        [(-1, 7), (4, 7), (1, 5)],
        ids=["mixed-sign", "integer-label", "no-edge-label"],
    )
    def test_rejects_with_cli_message(self, tw1, tw2):
        q = QuantumPair(HalfInt(tw1), HalfInt(tw2), FAM)
        with pytest.raises(ValueError) as info:
            trace_divergence(q, ChainParams(8, 0.3), SCHEDULE)
        assert str(info.value) == (
            f"({HalfInt(tw1)}, {HalfInt(tw2)}) is not in the infinite family"
        )
