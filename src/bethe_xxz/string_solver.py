"""Complex two-string solutions via the complex counting function.

A complex pair is a conjugate string lambda = x +- i(zeta/2 + delta).  The
substitution w = tanh(zeta/2 + delta)/tanh(zeta/2) turns the equations into
a quadratic for tan^2 x whose physical root feeds a scalar counting function
of w; the narrow branch (w < 1) is decreasing and the wide branch (w > 1)
increasing, so each quantum-number target is found by a bracketed bisection.
"""
from __future__ import annotations

import logging
import math
from enum import Enum

import numpy as np

from .model import (
    ChainParams,
    NegativeDiscriminant,
    NegativeTanSquare,
    NoRootOnBranch,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    ToleranceNotReached,
    bae_defect,
    bisect_monotone,
    first_grid_root,
    geometric_grid,
)

DEFAULT_DEFECT_TOL = 1e-8
GRID_POINTS = 4096
NARROW_W_MIN = 1e-6
NARROW_W_MAX = 1.0 - 1e-9
WIDE_W_MIN = 1.0 + 1e-9
WIDE_CAP_MARGIN = 1.0 - 1e-12
# Grid points whose N*Z1 - J lies this close to zero also open a candidate
# bracket: the grid evaluation agrees with the scalar one only to rounding,
# so its sign is not trusted there.
SIGN_GUARD = 1e-9

log = logging.getLogger(__name__)


class Branch(Enum):
    NARROW = "narrow"
    WIDE = "wide"


def delta_of_w(w, p: ChainParams):
    """String deviation delta for a given w; requires w*t < 1."""
    return math.atanh(w * p.t) - 0.5 * p.zeta


def wide_w_cap(p: ChainParams):
    """Largest usable w on the wide branch (keeps atanh(w t) finite)."""
    return WIDE_CAP_MARGIN / p.t


def _quadratic_coeffs(w, p: ChainParams):
    """Coefficients (A, B, C) of the quadratic for tan^2 x at this w.

    Each coefficient is a difference P*r1 - Q*r2 with r1, r2 the N-th roots
    of near-unity products; evaluated literally this cancels catastrophically
    for small w.  Rewriting as r2*(P*expm1(d) + (P - Q)) with d = log(r1/r2)
    and the exact closed forms of P - Q keeps full relative accuracy.
    """
    t2 = p.t * p.t
    wt2 = w * t2
    w2t2 = w * w * t2
    if w < 1.0:
        log_r1_num = math.log1p(-w) + math.log1p(-wt2)
    else:
        log_r1_num = math.log(w - 1.0) + math.log1p(-wt2)
    log_r2_num = math.log1p(w) + math.log1p(wt2)
    d = (2.0 / p.n) * (log_r1_num - log_r2_num)
    r2 = math.exp((2.0 / p.n) * (log_r2_num - math.log1p(w2t2)))
    em = math.expm1(d)
    # P - Q identities: (1+wt2)^2-(1-wt2)^2 = 4w t^2,
    # [sq+2w(1+w)(1+wt2)]-[sq-2w(1-w)(1-wt2)] = 4w(1+w^2 t^2),
    # (1+w)^2-(1-w)^2 = 4w.
    a = w * w * r2 * ((1.0 + wt2) ** 2 * em + 4.0 * w * t2)
    p_b = (1.0 - w * wt2) ** 2 / t2 + 2.0 * w * (1.0 + w) * (1.0 + wt2)
    b = r2 * (p_b * em + 4.0 * w * (1.0 + w2t2))
    c = r2 * ((1.0 + w) ** 2 * em + 4.0 * w)
    return a, b, c


def tan2x_of_w(w, p: ChainParams):
    """Square of the tangent of the string center at this w.

    Takes the root (-B - sqrt(B^2 - 4AC)) / (2A) of the quadratic; a
    negative discriminant or a negative result signals an unphysical w.
    """
    a, b, c = _quadratic_coeffs(w, p)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NegativeDiscriminant(
            f"discriminant {disc!r} < 0 at w={w!r}: no real string center"
        )
    # The (-B - sqrt) root, taken in whichever of its two algebraic forms
    # avoids cancellation for the sign of B.
    root = math.sqrt(disc)
    if b > 0.0:
        value = (-b - root) / (2.0 * a)
    else:
        value = (2.0 * c) / (-b + root)
    if value < 0.0:
        raise NegativeTanSquare(
            f"tan^2 x = {value!r} < 0 at w={w!r}: w outside the branch"
        )
    return value


def _step(value):
    """Unit step H(value), with H(0) = 0 (never hit off boundaries)."""
    return 1.0 if value > 0.0 else 0.0


def z1(w, p: ChainParams):
    """Counting function of the complex pair; equals J1/N at a solution."""
    t = p.t
    t2 = t * t
    tan2 = tan2x_of_w(w, p)
    tanx = math.sqrt(tan2)
    den = 1.0 + tan2 * w * w * t2
    a = tanx * (1.0 - w * w * t2) / (t * den)
    b = (1.0 + tan2) * w / den
    delta = delta_of_w(w, p)
    return (
        (0.5 / math.pi) * math.atan(a / (1.0 - b))
        + (0.5 / math.pi) * math.atan(a / (1.0 + b))
        + 0.5 * (_step(b - 1.0) + 2.0 * _step(1.0 - b) * _step(-a))
        - 0.5 * _step(delta) / p.n
    )


def _tan2x_grid(w, p: ChainParams):
    """tan2x_of_w over an array of w; NaN where the scalar code raises."""
    t2 = p.t * p.t
    wt2 = w * t2
    w2t2 = w * w * t2
    log_r1_num = np.where(
        w < 1.0, np.log1p(-w), np.log(w - 1.0)
    ) + np.log1p(-wt2)
    log_r2_num = np.log1p(w) + np.log1p(wt2)
    d = (2.0 / p.n) * (log_r1_num - log_r2_num)
    r2 = np.exp((2.0 / p.n) * (log_r2_num - np.log1p(w2t2)))
    em = np.expm1(d)
    a = w * w * r2 * ((1.0 + wt2) ** 2 * em + 4.0 * w * t2)
    p_b = (1.0 - w * wt2) ** 2 / t2 + 2.0 * w * (1.0 + w) * (1.0 + wt2)
    b = r2 * (p_b * em + 4.0 * w * (1.0 + w2t2))
    c = r2 * ((1.0 + w) ** 2 * em + 4.0 * w)
    root = np.sqrt(b * b - 4.0 * a * c)
    value = np.where(b > 0.0, (-b - root) / (2.0 * a), (2.0 * c) / (-b + root))
    value[value < 0.0] = np.nan
    return value


def n_z1_grid(w, p: ChainParams):
    """N*Z1 over an array of w; NaN where the scalar z1 raises.

    Repeats _quadratic_coeffs, tan2x_of_w and z1 operation for operation,
    so each entry agrees with p.n * z1(w, p) to rounding.  A point is NaN
    exactly where the scalar code raises NegativeDiscriminant or
    NegativeTanSquare.
    """
    t = p.t
    t2 = t * t
    with np.errstate(all="ignore"):
        tan2 = _tan2x_grid(w, p)
        den = 1.0 + tan2 * w * w * t2
        a = np.sqrt(tan2) * (1.0 - w * w * t2) / (t * den)
        b = (1.0 + tan2) * w / den
        delta = np.arctanh(w * t) - 0.5 * p.zeta
        z = (
            (0.5 / math.pi) * np.arctan(a / (1.0 - b))
            + (0.5 / math.pi) * np.arctan(a / (1.0 + b))
            + 0.5 * ((b - 1.0 > 0.0) + 2.0 * ((1.0 - b > 0.0) & (-a > 0.0)))
            - 0.5 * (delta > 0.0) / p.n
        )
    return p.n * z


def branch_grid(branch: Branch, p: ChainParams):
    """The GRID_POINTS geometric w grid scanned on a branch, lo to hi."""
    if branch is Branch.NARROW:
        return geometric_grid(NARROW_W_MIN, NARROW_W_MAX, GRID_POINTS)
    return geometric_grid(WIDE_W_MIN, wide_w_cap(p), GRID_POINTS)


def _solve_on_branch(target_j: float, branch: Branch, p: ChainParams):
    """Bisect N*Z1 = target_j on the requested branch; returns w.

    N*Z1 - target_j is sampled over the branch grid in one numpy pass and
    its brackets are bisected in grid order with the scalar z1.
    """

    def shifted(w):
        return p.n * z1(w, p) - target_j

    grid = branch_grid(branch, p)
    root, _, brackets, jumps = first_grid_root(
        shifted, grid, n_z1_grid(grid, p) - target_j,
        xtol=1e-16, accept=1e-6, guard=SIGN_GUARD,
    )
    outcome = "no root" if root is None else f"root w={root!r}"
    log.debug("%s branch, J=%r: brackets %s, jumps %s, %s",
              branch.value, target_j, brackets, jumps, outcome)
    if root is None:
        raise NoRootOnBranch(
            f"N*Z1 never attains {target_j!r} on the {branch.value} branch "
            f"(N={p.n}, zeta={p.zeta})"
        )
    return root


def _assemble(w, sign_x, p: ChainParams, method):
    delta = delta_of_w(w, p)
    x = sign_x * math.atan(math.sqrt(tan2x_of_w(w, p)))
    lam1 = complex(x, 0.5 * p.zeta + delta)
    return lam1, delta, x, method


_BRANCH_BY_CLASS = {
    SolutionClass.NARROW_PAIR_COMPLEX: Branch.NARROW,
    SolutionClass.EXTRA_TWO_STRING: Branch.NARROW,
    SolutionClass.WIDE_PAIR_COMPLEX: Branch.WIDE,
}


def solve_complex(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve a complex conjugate pair for its quantum-number label.

    Narrow pairs and the extra two-string live on w < 1; wide pairs on
    w > 1 with the smaller label of (J, J+1) as the counting target.
    """
    branch = _BRANCH_BY_CLASS.get(q.cls)
    if branch is None:
        raise ValueError(f"solve_complex cannot handle class {q.cls}")
    if q.j1 < 0 or (q.j1 == 0 and q.j2 < 0):
        mirror = solve_complex(q.negated(), p, defect_tol=defect_tol)
        return mirror.negated()
    target = float(min(abs(q.j1), abs(q.j2)))
    w = _solve_on_branch(target, branch, p)
    lam1, delta, x, method = _assemble(w, 1, p, "z1_branch")
    lam2 = lam1.conjugate()
    residual = bae_defect(lam1, lam2, p)
    if residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} for ({q.j1}, {q.j2})"
        )
    return RapidityPair(
        lambda1=lam1,
        lambda2=lam2,
        residual=residual,
        iterations=0,
        branch_meta={
            "method": method,
            "branch": branch.value,
            "w": w,
            "delta": delta,
            "x": x,
        },
    )


def _boundary_string_excess(p: ChainParams):
    """Excess s = y - zeta/2 of the edge-centered string's half-width y.

    At center pi/2 the product-form equations reduce to one real equation,
    N log(cosh(zeta + s)/cosh(s)) = log(sinh(2 zeta + 2s)/sinh(2s)),
    strictly increasing from -inf at s -> 0 to (N - 2) zeta > 0 at
    s -> inf, so the root is unique.  Bisected on log(s): at strong
    anisotropy s ~ e^(-(N-2) zeta), far below absolute resolution in y.
    """

    def g(log_s):
        s = math.exp(log_s)
        lhs = p.n * (
            math.log(math.cosh(p.zeta + s)) - math.log(math.cosh(s))
        )
        rhs = math.log(math.sinh(2.0 * p.zeta + 2.0 * s)) - math.log(
            math.sinh(2.0 * s)
        )
        return lhs - rhs

    lo, hi = math.log(1e-300), math.log(10.0)
    while g(hi) < 0.0:
        hi += 1.0
    root, _ = bisect_monotone(g, lo, hi, xtol=1e-14, max_iter=200)
    return math.exp(root)


def boundary_string_halfwidth(p: ChainParams):
    """Half-width y > zeta/2 of the wide string centered on the domain edge."""
    return 0.5 * p.zeta + _boundary_string_excess(p)


def solve_boundary_string(p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Wide conjugate pair centered on the edge of the rapidity domain.

    This is the state carried by the boundary label of the infinite family
    whose mirror partner is the real pair at the domain edge; its counting
    value sits exactly at (N-1)/2.
    """
    s = _boundary_string_excess(p)
    y = 0.5 * p.zeta + s
    lam1 = complex(0.5 * math.pi, y)
    lam2 = lam1.conjugate()
    # Evaluate the product-form residual through the pi/2-center reduction in
    # s: at strong anisotropy s is below the rounding error of y itself, so
    # substituting the stored y into bae_defect measures only that rounding,
    # not the quality of the root.
    lhs = (math.cosh(p.zeta + s) / math.cosh(s)) ** p.n
    rhs = math.sinh(2.0 * p.zeta + 2.0 * s) / math.sinh(2.0 * s)
    residual = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    if residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} for the boundary string"
        )
    delta = y - 0.5 * p.zeta
    return RapidityPair(
        lambda1=lam1,
        lambda2=lam2,
        residual=residual,
        iterations=0,
        branch_meta={
            "method": "boundary_string",
            "branch": Branch.WIDE.value,
            "w": math.tanh(y) / p.t,
            "delta": delta,
            "x": 0.5 * math.pi,
        },
    )


def singular_solution(p: ChainParams):
    """The exact singular pair (i zeta/2, -i zeta/2).

    Returned in closed form; the product-form residual is a pole there, so
    residual is None and validation is delegated to the regularized oracle.
    """
    lam = complex(0.0, 0.5 * p.zeta)
    return RapidityPair(
        lambda1=lam,
        lambda2=-lam,
        residual=None,
        iterations=0,
        branch_meta={"method": "singular_exact"},
    )
