"""Regime classification, thresholds, and complete pair enumeration."""
import math
import random

import pytest

from bethe_xxz.model import (
    BoundaryDegenerate,
    ChainParams,
    HalfInt,
    SolutionClass,
)
from bethe_xxz.quantum_numbers import (
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
from reference import enumerate_reference

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
