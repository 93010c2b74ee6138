"""Regime classification, enumeration and block addresses of label pairs.

The two-string threshold F(N, zeta) decides which equal-quantum-number pairs
are real (collapsed) and which are complex, and whether the edge pair
(+-(N-1)/2, +-(N-1)/2) turns into an extra two-string.  classify_regime
evaluates F once and reads the regime off it: stable is F = +inf, and the
collapse count and the cutoff follow from F in closed form.  One O(1)
classifier per label set gives the enumeration exactly C(N, 2) labelled
pairs at any non-degenerate point.  block_address maps each labelled pair
to the momentum block, level and kind of state the solvers find for it.
"""
from __future__ import annotations

import math

from .model import (
    BoundaryDegenerate,
    ChainParams,
    HalfInt,
    QuantumPair,
    RegimeReport,
    SolutionClass,
)

BOUNDARY_TOL = 1e-12


def threshold_value(n, zeta):
    """Two-string threshold F for a chain of n sites (n may be odd here).

    F = (n/pi) * atan(sqrt((n - (1 + t^2)) / (1 - (n-1) t^2))) with
    t = tanh(zeta/2); +inf when the argument of the square root is not
    positive (the stable regime).
    """
    t2 = math.tanh(zeta / 2.0) ** 2
    den = 1.0 - (n - 1) * t2
    if den <= 0.0:
        return math.inf
    num = n - (1.0 + t2)
    return (n / math.pi) * math.atan(math.sqrt(num / den))


def threshold_f(p: ChainParams):
    """Two-string threshold F(N, zeta); +inf sentinel in the stable regime."""
    return threshold_value(p.n, p.zeta)


def is_stable(p: ChainParams):
    """Stable regime: the threshold F is infinite."""
    return math.isinf(threshold_f(p))


def _check_boundary(p, f):
    """Reject parameters whose F sits on a compared half-odd integer
    ((N-1)/2 for the extra string, (N-1-2m)/2 for collapses); only the
    nearest, floor(F) + 1/2, can be closer to F than 1/2."""
    if math.isinf(f):
        return
    cand = math.floor(f) + 0.5
    if cand <= (p.n - 1) / 2.0 and abs(f - cand) < BOUNDARY_TOL:
        raise BoundaryDegenerate(
            f"threshold {f!r} lies on the regime boundary {cand!r}"
        )


def has_extra_two_string(p: ChainParams):
    """True when (N-1)/2 < F (always when stable): the edge pair is complex."""
    return classify_regime(p).extra_two_string


def _collapsed(n, f):
    """m = max(0, ceil((n-3)/2 - F)), 0 for infinite F: the labels J =
    (n-3)/2, (n-5)/2, ... above F, counted exactly as 2J > floor(2F)."""
    if math.isinf(f):
        return 0
    return max(0, (n - 2 - math.floor(2.0 * f)) // 2)


def collapse_count_value(n, zeta):
    """Number m of collapsed two-strings per sign for an n-site chain."""
    return _collapsed(n, threshold_value(n, zeta))


def collapse_count(p: ChainParams):
    """Collapse count m >= 0 with the boundary guard applied."""
    return classify_regime(p).m_collapsed


def classify_regime(p: ChainParams):
    """The regime read off one evaluation of F: stable is F = +inf, and the
    cutoff (top narrow-pair label) is (N-1)/2 with the extra string, else
    (N-3-2m)/2."""
    f = threshold_f(p)
    _check_boundary(p, f)
    m = _collapsed(p.n, f)
    extra = (p.n - 1) / 2.0 < f
    return RegimeReport(
        stable=math.isinf(f),
        threshold=f,
        cutoff=HalfInt(p.n - 1 if extra else p.n - 3 - 2 * m),
        m_collapsed=m,
        extra_two_string=extra,
    )


def _classes(n, report: RegimeReport, lo, hi):
    """(j1, j2, class) of every enumerated pair on the label set {lo, hi}.

    The labels are doubled, lo <= hi, and e = N - 1 is the doubled edge
    label.  This is the one statement of the regime rules: standard real
    pairs fill the interior, the infinite family takes the edge label, the
    equal labels in (N/4, N/2) are narrow below F and collapsed real above
    it, the wide pairs sit at adjacent labels, and the singular pair is
    deduplicated in favour of its positive label.  Integer labels carry no
    pair.
    """
    if lo % 2 == 0 or hi % 2 == 0:
        return []
    e = n - 1
    found = []
    if lo == hi:
        t = abs(lo)
        if t == e:
            edge_cls = (
                SolutionClass.EXTRA_TWO_STRING
                if report.extra_two_string
                else SolutionClass.INFINITE_FAMILY_REAL
            )
            found.append((lo, lo, edge_cls))
        elif n < 2 * t < 2 * n:
            cls = (
                SolutionClass.NARROW_PAIR_COMPLEX
                if t / 2.0 < report.threshold
                else SolutionClass.EQUAL_QN_REAL
            )
            found.append((lo, lo, cls))
        if n % 4 and lo == n // 2:
            found.append((lo, lo, SolutionClass.SINGULAR))
    else:
        if -e < lo and hi < e:
            found.append((lo, hi, SolutionClass.STANDARD_REAL))
        if hi == e and 0 < lo:
            found.append((lo, hi, SolutionClass.INFINITE_FAMILY_REAL))
        if lo == -e and hi < 0:
            # The mirror (-k, -(N-1)/2) keeps its labels in that order.
            found.append((hi, lo, SolutionClass.INFINITE_FAMILY_REAL))
        if hi == lo + 2 and (
            n - 2 < 2 * lo < 2 * e or n - 2 < -2 * hi < 2 * e
        ):
            found.append((lo, hi, SolutionClass.WIDE_PAIR_COMPLEX))
        if n % 4 == 0 and (lo, hi) == (n // 2 - 1, n // 2 + 1):
            found.append((lo, hi, SolutionClass.SINGULAR))
    return found


def enumerate_all(p: ChainParams):
    """Complete list of C(N, 2) quantum-number pairs with classes.

    The same (j1, j2) label can appear twice with different classes: the
    singular pair shares its label with a standard real pair, and each wide
    pair shares its label set with a member of the infinite real family.
    """
    report = classify_regime(p)
    n = p.n
    odd = range(-(n - 1), n, 2)
    label = {twice: HalfInt(twice) for twice in odd}  # built once, shared
    pairs = [
        QuantumPair(label[a], label[b], cls)
        for i, lo in enumerate(odd)
        for hi in odd[i:]
        for a, b, cls in _classes(n, report, lo, hi)
    ]
    pairs.sort(key=QuantumPair.key)
    expected = n * (n - 1) // 2
    if len(pairs) != expected:
        raise AssertionError(
            f"enumeration produced {len(pairs)} pairs, expected {expected}"
        )
    return pairs


def pairs_with_labels(p: ChainParams, j1: HalfInt, j2: HalfInt):
    """The enumerated pairs whose label set is {j1, j2}, in O(1).

    Equal to filtering enumerate_all(p) on the label set, in the same order:
    both read the classes from _classes, so the only pairs built here are
    the ones returned, at most two.
    """
    report = classify_regime(p)
    lo, hi = sorted((j1.twice, j2.twice))
    pairs = [
        QuantumPair(HalfInt(a), HalfInt(b), cls)
        for a, b, cls in _classes(p.n, report, lo, hi)
    ]
    pairs.sort(key=QuantumPair.key)
    return pairs


def is_boundary_family_pair(q: QuantumPair, p: ChainParams):
    """True for the (+-1/2, +-(N-1)/2) members of the infinite family."""
    if q.cls is not SolutionClass.INFINITE_FAMILY_REAL:
        return False
    magnitudes = {abs(q.j1).twice, abs(q.j2).twice}
    return magnitudes == {1, p.n - 1} and (q.j1 < 0) == (q.j2 < 0)


def block_address(q: QuantumPair, p: ChainParams):
    """(k, kind, level, mirrored): the momentum block that solves q.

    The one statement of the label -> block map (Karbach & Mueller,
    arXiv:cond-mat/9809162).  A pair with J1 + J2 < 0 is mirrored: its state
    is the negation of the state of (-J1, -J2), and k and level are the
    mirror's.  So k = -|J1 + J2| mod N, and distinct labels sit at level
    m = |J1 - J2|, or N - 2 - |J1 - J2| when J1 + J2 = 0.  kind is the
    label's state in block k: scattering (distinct real labels, at level
    m), top (equal real labels), bound (complex labels: narrow for odd k,
    wide for even k), singular (in block N/2) or edge (the negative
    boundary labels, whose state is block 0's bound state).
    """
    t1, t2 = q.j1.twice, q.j2.twice
    total, gap, cls = t1 + t2, abs(t1 - t2) // 2, q.cls
    if cls is SolutionClass.STANDARD_REAL:
        kind = "scattering"
    elif cls.is_complex:
        kind = "bound"
    elif cls is SolutionClass.SINGULAR:
        kind = "singular"
    elif t1 == t2:
        kind = "top"
    elif total < 0 and is_boundary_family_pair(q, p):
        kind = "edge"
    else:
        kind = "scattering"
    level = gap if total else p.n - 2 - gap
    return -(abs(total) // 2) % p.n, kind, level, total < 0


def regime_label_from_report(report: RegimeReport):
    """Map a regime report to the map label: extra | none | m1 | m2 | ..."""
    if report.extra_two_string:
        return "extra"
    if report.m_collapsed == 0:
        return "none"
    return f"m{report.m_collapsed}"


def regime_label_from_inequalities(n, zeta):
    """Regime label straight from the closed-form tanh^2 inequalities.

    The boundary between 'none' and 'extra' is
    tanh^2(zeta/2) = (1 - (n-1) tan^2(pi/2n)) / ((n-1) - tan^2(pi/2n)),
    and the collapse boundaries use tan^2((2k+1) pi / 2n).  This is an
    independent formulation of the threshold comparisons, used as a
    cross-check of classify_regime.
    """
    t2 = math.tanh(zeta / 2.0) ** 2

    def bound(j):
        tg = math.tan(j * math.pi / (2.0 * n)) ** 2
        den = (n - 1) - tg
        if den <= 0.0:
            return None
        return (1.0 - (n - 1) * tg) / den

    b1 = bound(1)
    if b1 is not None and t2 > b1:
        return "extra"
    m = 0
    k = 1
    while 2 * k + 1 < n:
        bk = bound(2 * k + 1)
        if bk is None or not t2 < bk:
            break
        m = k
        k += 1
    return "none" if m == 0 else f"m{m}"
