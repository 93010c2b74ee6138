"""Regime classification, thresholds, and complete pair enumeration."""
import dataclasses
import math
import random
from collections import Counter

import pytest

from bethe_xxz.model import (
    BoundaryDegenerate,
    ChainParams,
    HalfInt,
    SolutionClass,
)
from bethe_xxz import quantum_numbers
from bethe_xxz.quantum_numbers import (
    block_address,
    classify_regime,
    collapse_count,
    collapse_count_value,
    enumerate_all,
    has_extra_two_string,
    is_stable,
    pairs_with_labels,
    regime_label_from_inequalities,
    regime_label_from_report,
    threshold_f,
    threshold_value,
)
from reference import (
    collapse_count_loop,
    enumerate_reference,
    regime_report_reference,
    stable_by_tanh,
)

P86 = ChainParams(8, 0.6)


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


class TestThreshold:
    def test_frozen_value(self):
        assert threshold_f(P86) == pytest.approx(3.3946718731061205, abs=1e-12)

    def test_infinite_in_stable_regime(self):
        # tanh^2(zeta/2) >= 1/(N-1) makes the threshold denominator vanish.
        p = ChainParams(8, 2.0)
        assert is_stable(p)
        assert math.isinf(threshold_f(p))

    def test_unstable_regime_is_finite(self):
        assert not is_stable(P86)
        assert math.isfinite(threshold_f(P86))

    def test_threshold_grows_with_size_at_fixed_anisotropy(self):
        values = [threshold_value(n, 1e-3) for n in (8, 12, 16, 20)]
        assert values == sorted(values)


class TestCollapseCount:
    def test_critical_size_at_small_anisotropy(self):
        # The first collapsed two-string appears between 21 and 22 sites.
        assert collapse_count_value(21, 1e-3) == 0
        assert collapse_count_value(22, 1e-3) >= 1

    def test_zero_in_stable_regime(self):
        assert collapse_count(ChainParams(8, 2.0)) == 0

    def test_zero_at_reference_point(self):
        assert collapse_count(P86) == 0


class TestRegimeReport:
    def test_reference_point(self):
        r = classify_regime(P86)
        assert not r.stable
        assert not r.extra_two_string
        assert r.m_collapsed == 0
        # Largest half-odd label below the threshold: 5/2 under F = 3.39.
        assert r.cutoff == HalfInt(5)

    def test_extra_string_regime(self):
        r = classify_regime(ChainParams(12, 0.57))
        assert r.extra_two_string
        assert has_extra_two_string(ChainParams(12, 0.57))

    def test_no_extra_string_below_threshold(self):
        assert not has_extra_two_string(ChainParams(12, 0.52))

    def test_stable_regime_always_has_extra_string(self):
        assert has_extra_two_string(ChainParams(8, 2.0))

    def test_boundary_guard(self):
        # Land within the guard band of the threshold crossing (N-1)/2 at
        # N = 12: classification must refuse.
        with pytest.raises(BoundaryDegenerate):
            classify_regime(ChainParams(12, _degenerate_zeta()))

    def test_label_cross_check_on_grid(self):
        for n in (8, 12, 20, 40):
            for zeta in (0.01, 0.1, 0.3, 0.6, 1.2):
                label = regime_label_from_report(
                    classify_regime(ChainParams(n, zeta))
                )
                assert label == regime_label_from_inequalities(n, zeta)


# The anisotropy range of the closed-form checks; ChainParams stops at 709.78.
Z_LO, Z_HI = 1e-9, 700.0


def _adjacent(pred, lo, hi):
    """Adjacent floats lo < hi with pred(lo) false and pred(hi) true."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)


def _zeta_grid(n, k=40, width=2):
    """k log-uniform anisotropies plus every crossing of the regime.

    The crossings are where F reaches a label (n-1)/2, (n-3)/2, ... and
    where it turns infinite, each bisected to adjacent floats and widened
    by width floats on either side.
    """
    def f(z):
        return threshold_value(n, z)

    top = _adjacent(lambda z: math.isinf(f(z)), Z_LO, Z_HI)
    edges = list(top)
    j = (n - 1) / 2.0
    while j > f(Z_LO):
        edges += _adjacent(lambda z: f(z) >= j, Z_LO, top[1])
        j -= 1.0
    grid = {Z_LO * (Z_HI / Z_LO) ** (i / (k - 1)) for i in range(k)}
    for z in edges:
        lo = hi = z
        grid.add(z)
        for _ in range(width):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            grid.update((lo, hi))
    return sorted(z for z in grid if z <= Z_HI)


def _report_or_refusal(classify, p):
    try:
        return classify(p)
    except BoundaryDegenerate:
        return BoundaryDegenerate


class TestClosedForm:
    """The regime report is read off one evaluation of F, and agrees with
    the per-field tests of tests/reference.py."""

    def test_collapse_count_matches_the_loop(self):
        # Odd n included: collapse_count_value takes any n.
        for n in range(3, 402):
            for zeta in _zeta_grid(n):
                assert collapse_count_value(n, zeta) == collapse_count_loop(
                    n, zeta
                ), (n, zeta)

    def test_report_matches_the_reference(self):
        refused = 0
        for n in range(4, 401, 2):
            for zeta in _zeta_grid(n):
                p = ChainParams(n, zeta)
                report = _report_or_refusal(classify_regime, p)
                ref = _report_or_refusal(regime_report_reference, p)
                if ref is BoundaryDegenerate:
                    assert report is BoundaryDegenerate, (n, zeta)
                    refused += 1
                    continue
                # stable follows F, where the tanh^2 test may differ by one
                # rounding (test_stable_follows_the_threshold).
                assert report.stable is math.isinf(report.threshold)
                assert dataclasses.replace(report, stable=ref.stable) == ref
        assert refused > 1000

    def test_threshold_is_evaluated_once(self, monkeypatch):
        calls = []
        real = quantum_numbers.threshold_value

        def counted(n, zeta):
            calls.append((n, zeta))
            return real(n, zeta)

        monkeypatch.setattr(quantum_numbers, "threshold_value", counted)
        for p in (P86, ChainParams(8, 2.0), ChainParams(64, 1e-3)):
            calls.clear()
            classify_regime(p)
            assert calls == [(p.n, p.zeta)]

    @pytest.mark.parametrize(
        "n,zeta", [(50, 0.2876820724517809), (50, 0.28768207245178096),
                   (108, 0.19395302609220366), (2000, 0.044740005477515096)],
    )
    def test_stable_follows_the_threshold(self, n, zeta):
        # One rounding apart, tanh^2(zeta/2) >= 1/(N-1) holds while the
        # threshold's denominator 1 - (N-1) tanh^2 is still positive.  The
        # report, is_stable and F agree: the chain is not stable here.
        p = ChainParams(n, zeta)
        report = classify_regime(p)
        assert stable_by_tanh(p)
        assert math.isfinite(report.threshold)
        assert not report.stable and not is_stable(p)
        assert report.extra_two_string and report.cutoff == HalfInt(n - 1)

    def test_is_stable_reads_the_threshold(self):
        for n in range(4, 401, 2):
            for zeta in _zeta_grid(n, k=5):
                p = ChainParams(n, zeta)
                assert is_stable(p) is math.isinf(threshold_f(p)), (n, zeta)


class TestBlockCriterion:
    """F is the paper's statement of the top-state criterion the solvers
    test: a label J in (N/4, N/2) has a real pair in its block k of
    c = |cos(pi k / N)| exactly when N / (N - 2) > Delta / c."""

    @pytest.mark.parametrize("n", [4, 8, 22, 64, 200, 400, 2000])
    def test_threshold_is_the_arccos_form(self, n):
        for i in range(60):
            zeta = 1e-6 * 1e7 ** (i / 59)
            p = ChainParams(n, zeta)
            ratio = p.delta * (n - 2) / n
            f = threshold_f(p)
            if abs(ratio - 1.0) < 1e-9:
                continue
            if ratio >= 1.0:
                assert math.isinf(f)
                continue
            arccos = n / (2.0 * math.pi) * math.acos(-ratio)
            assert f == pytest.approx(arccos, rel=1e-13, abs=0.0), (n, zeta)

    @staticmethod
    def _check_top_states(p):
        n = p.n
        per_sign = Counter()
        for q in enumerate_all(p):
            if q.j1 != q.j2 or not n < 2 * abs(q.j1.twice) < 2 * (n - 1):
                continue
            k = block_address(q, p)[0]
            h_zero = n / (n - 2) - p.delta / abs(math.cos(math.pi * k / n))
            real = q.cls is SolutionClass.EQUAL_QN_REAL
            assert real is (h_zero > 0.0), (q, p, h_zero)
            per_sign[q.j1.twice > 0] += real
        assert per_sign[True] == per_sign[False] == collapse_count(p), p

    def test_collapsed_pairs_are_the_real_top_states(self):
        for n in range(4, 65, 2):
            for i in range(16):
                self._check_top_states(ChainParams(n, 1e-4 * 1e4 ** (i / 15)))

    @pytest.mark.parametrize(
        "n,zeta", [(100, 0.01), (200, 1e-3), (400, 1e-3), (400, 0.05)]
    )
    def test_collapsed_pairs_at_large_n(self, n, zeta):
        self._check_top_states(ChainParams(n, zeta))


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,zeta",
        [(4, 1.0), (6, 0.8), (8, 0.6), (10, 0.3), (12, 0.52), (12, 0.57),
         (14, 0.2)],
    )
    def test_count_is_n_choose_2(self, n, zeta):
        pairs = enumerate_all(ChainParams(n, zeta))
        assert len(pairs) == n * (n - 1) // 2

    def test_sorted_and_class_tagged(self):
        pairs = enumerate_all(P86)
        keys = [q.key() for q in pairs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_singular_label_depends_on_n_mod_4(self):
        by_cls = [
            q
            for q in enumerate_all(ChainParams(8, 0.6))
            if q.cls is SolutionClass.SINGULAR
        ]
        assert [(q.j1, q.j2) for q in by_cls] == [(HalfInt(3), HalfInt(5))]
        by_cls = [
            q
            for q in enumerate_all(ChainParams(6, 0.8))
            if q.cls is SolutionClass.SINGULAR
        ]
        assert [(q.j1, q.j2) for q in by_cls] == [(HalfInt(3), HalfInt(3))]

    def test_edge_pair_class_follows_regime(self):
        def edge_classes(n, zeta):
            edge = HalfInt(n - 1)
            return {
                q.cls
                for q in enumerate_all(ChainParams(n, zeta))
                if abs(q.j1) == edge and q.j1 == q.j2
            }

        assert edge_classes(12, 0.52) == {SolutionClass.INFINITE_FAMILY_REAL}
        assert edge_classes(12, 0.57) == {SolutionClass.EXTRA_TWO_STRING}

    def test_mirror_symmetry_of_label_multiset(self):
        from collections import Counter

        pairs = enumerate_all(P86)
        normal = Counter(
            (min(q.j1.twice, q.j2.twice), max(q.j1.twice, q.j2.twice),
             q.cls.value)
            for q in pairs
        )
        mirrored = Counter(
            (min(-q.j1.twice, -q.j2.twice), max(-q.j1.twice, -q.j2.twice),
             q.cls.value)
            for q in pairs
        )
        # Everything except the lone singular pair mirrors exactly; its two
        # equivalent labels are deduplicated in favour of the positive one.
        assert sum(normal.values()) == 28
        assert dict(normal - mirrored) == {(3, 5, "singular"): 1}
        assert dict(mirrored - normal) == {(-5, -3, "singular"): 1}

    def test_wide_pairs_have_adjacent_labels(self):
        for q in enumerate_all(P86):
            if q.cls is SolutionClass.WIDE_PAIR_COMPLEX:
                assert abs(q.j2.twice - q.j1.twice) == 2


def _assert_lookup_matches(p, label_sets, pairs):
    """Each label set, in both orders, looks up its enumerated pairs."""
    groups = {}
    for q in pairs:
        groups.setdefault(frozenset((q.j1.twice, q.j2.twice)), []).append(q)
    for a, b in label_sets:
        want = groups.get(frozenset((a, b)), [])
        for x, y in ((a, b), (b, a)):
            assert pairs_with_labels(p, HalfInt(x), HalfInt(y)) == want, (
                p, x, y,
            )


# Even N <= 64 with each regime label at both N mod 4.
STRATIFIED = [
    (30, 2.0), (64, 0.3),  # extra
    (42, 0.3), (36, 0.3),  # none
    (22, 1e-3), (48, 0.05),  # m1
    (62, 1e-3), (64, 1e-3),  # m2
]
LOOKUP_GRID = [
    (n, zeta) for n in range(4, 21, 2) for zeta in (1e-3, 0.05, 0.57, 2.0, 5.0)
] + STRATIFIED


@pytest.mark.parametrize(
    "n,zeta", LOOKUP_GRID + [(200, 1e-3), (256, 0.3), (400, 0.05)]
)
def test_enumeration_matches_constructive_reference(n, zeta):
    # The classifier applied to every label set gives the pairs that each
    # class's own generator builds, in the same order.
    p = ChainParams(n, zeta)
    assert enumerate_all(p) == enumerate_reference(p)


class TestPairsWithLabels:
    """pairs_with_labels(p, j1, j2) is the enumerate_all filter on {j1, j2}."""

    @pytest.mark.parametrize("n,zeta", LOOKUP_GRID)
    def test_every_label_set(self, n, zeta):
        # Half-odd, integer, equal and out-of-range labels alike.
        p = ChainParams(n, zeta)
        twice = range(-n - 2, n + 3)
        _assert_lookup_matches(
            p,
            [(a, b) for a in twice for b in twice if a <= b],
            enumerate_all(p),
        )

    def test_stratified_points_cover_every_regime(self):
        # Every regime label reachable at even N <= 64 over the envelope,
        # each at both N mod 4 (the singular pair's two shapes).
        reachable = {
            regime_label_from_report(classify_regime(ChainParams(n, zeta)))
            for n in range(4, 65, 2)
            for zeta in (1e-3, 0.01, 0.05, 0.3, 1.0, 5.0)
        }
        covered = {
            (regime_label_from_report(classify_regime(ChainParams(n, z))),
             n % 4)
            for n, z in STRATIFIED
        }
        assert reachable == {"extra", "none", "m1", "m2"}
        assert covered == {(label, r) for label in reachable for r in (0, 2)}

    @pytest.mark.parametrize(
        "n,zeta", [(64, 0.3), (128, 2.0), (200, 1e-3), (400, 0.05)]
    )
    def test_seeded_label_sets(self, n, zeta):
        p = ChainParams(n, zeta)
        pairs = enumerate_all(p)
        rng = random.Random(n)
        enumerated = [(q.j1.twice, q.j2.twice) for q in rng.sample(pairs, 300)]
        special = [
            (q.j1.twice, q.j2.twice)
            for q in pairs
            if q.cls is not SolutionClass.STANDARD_REAL
        ]
        drawn = [
            (rng.randint(-n - 2, n + 2), rng.randint(-n - 2, n + 2))
            for _ in range(300)
        ]
        _assert_lookup_matches(p, enumerated + special + drawn, pairs)

    def test_degenerate_boundary_raises(self):
        with pytest.raises(BoundaryDegenerate):
            pairs_with_labels(
                ChainParams(12, _degenerate_zeta()), HalfInt(1), HalfInt(3)
            )
