"""Complex two-strings as the bound states of the momentum blocks.

The sector commutes with translations.  In the block of total momentum
K = 2 pi k / N, with k the block of its labels' address
(quantum_numbers.block_address), a conjugate pair is the two-magnon bound
state (Karbach & Mueller, arXiv:cond-mat/9809162): momenta
p = a -+ i v with cos a = c = |cos(pi k / N)|, and relative amplitude
e^{-v r} + s e^{-v (N - r)}, s = (-1)^k.  The hard-core condition at r = 1
reads

    e^{-v} = e^{-v_inf} (1 + s e^{-N v}) - s e^{-(N-1) v},
    v_inf = log(Delta / c),

so v exceeds v_inf by an exponentially small eps, negative for odd k
(narrow pairs and the extra two-string) and positive for even k (wide
pairs, and in block 0 the string centered on the domain edge).  eps is
carried in log form (Hagemans & Caux, J. Phys. A 40 (2007) 14605): one
bisection on log|eps| per pair, after which tan(lambda) =
tanh(zeta/2) cot(p/2) gives the rapidities.  Continued to v = i q, the
same state is the real pair of an equal label (equal_solver).

The paper's counting function Z1 of the string width
w = tanh(zeta/2 + delta)/tanh(zeta/2) stays as the label check: where w is
resolvable, N Z1(w) equals the smaller label at a solution.
"""
from __future__ import annotations

import cmath
import logging
import math

from .model import (
    ChainParams,
    NegativeDiscriminant,
    NegativeTanSquare,
    NoRootOnBranch,
    QuantumPair,
    RapidityPair,
    ToleranceNotReached,
    bisect_monotone,
)
from .quantum_numbers import block_address

DEFAULT_DEFECT_TOL = 1e-8
# Below log|y| = -40, log1p(y) equals y to a relative 1e-18.
LOG_LINEAR = -40.0

log = logging.getLogger(__name__)


def delta_of_w(w, p: ChainParams):
    """String deviation delta for a given w; requires w*t < 1."""
    return math.atanh(w * p.t) - 0.5 * p.zeta


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


def _log_delta(zeta):
    """(log Delta, zeta - log Delta), with neither cancelling nor overflowing."""
    if zeta < 1.0:
        log_delta = math.log1p(2.0 * math.sinh(0.5 * zeta) ** 2)
        return log_delta, zeta - log_delta
    gap = math.log(2.0) - math.log1p(math.exp(-2.0 * zeta))
    return zeta - gap, gap


def _log_link(k, n):
    """log c for c = |cos(pi k / N)|, accurate also for c near 1 or near 0."""
    m = min(k, n - k)
    if 4 * m <= n:
        return math.log1p(-2.0 * math.sin(0.5 * math.pi * m / n) ** 2)
    return math.log(math.sin(0.5 * math.pi * (n - 2 * m) / n))


def _block_momentum(k, n):
    """Real part a of block k's bound-state momenta: K/2 folded so cos a >= 0."""
    return math.pi * k / n if 2 * k <= n else -math.pi * (n - k) / n


def _log_excess(v, n, s):
    """log|eps| for the excess eps that the bound-state equation gives at v > 0.

    The equation rearranges to eps = log1p(y), with
    y = -s e^{-(N-2) v} expm1(-2 v) / (1 + s e^{-N v}) of sign s; log|y| is
    formed first, since e^{-(N-2) v} underflows once N v passes about 700.
    """
    if s > 0:
        log_den = math.log1p(math.exp(-n * v))
    else:
        log_den = math.log(-math.expm1(-n * v))
    log_y = -(n - 2) * v + math.log(-math.expm1(-2.0 * v)) - log_den
    if log_y < LOG_LINEAR:
        return log_y
    return math.log(abs(math.log1p(math.copysign(math.exp(log_y), s))))


def _rapidity(a, v, h, zeta):
    """The rapidity of momentum a + i v (v > 0, |a| < pi/2); h = zeta - v.

    tan(lambda) = tanh(zeta/2) cot(p/2) is, with g = e^{-zeta} and
    q = e^{ip}, lambda = (i/2) log((g - q) / (1 - g q)) mod pi.  Writing
    g - q = e^{-zeta} (1 - e^{ia + h}) keeps it exact at large zeta, where
    g and |q| are both far below the rounding of 1.  The two logs take
    arguments whose imaginary parts have the sign of -a, so the principal
    values put Re lambda in (-pi/2, pi/2], at pi/2 for a = 0.
    """
    grow = math.exp(h)
    one_minus = complex(
        2.0 * grow * math.sin(0.5 * a) ** 2 - math.expm1(h),
        -grow * math.sin(a),
    )
    log_ratio = cmath.log(one_minus) - cmath.log(
        1.0 - cmath.exp(complex(-zeta - v, a))
    )
    return complex(-0.5 * log_ratio.imag, 0.5 * (log_ratio.real - zeta))


def _bound_state(k, p: ChainParams, method, defect_tol):
    """The bound state of block k as a conjugate pair, momenta a -+ i v.

    Bisects u = log|eps| on u - log|eps(v_inf + s e^u)|, whose sign rises
    through the one root (v - eps(v) increases with v): for even k below
    u = log log 2, since eps(v) < log 2 for every v; for odd k below
    u = log v_inf (v = 0), where an odd block has a bound state only if
    v_inf > log(N / (N - 2)).
    """
    n = p.n
    s = 1 if k % 2 == 0 else -1
    branch = "wide" if s > 0 else "narrow"
    if 2 * k == n:
        raise NoRootOnBranch(
            f"block k={k} has c = 0: its top state is the singular pair"
        )
    log_delta, gap = _log_delta(p.zeta)
    log_c = _log_link(k, n)
    v_inf = log_delta - log_c

    def sign_gap(u):
        v = v_inf + s * math.exp(u)
        if v <= 0.0:
            return 1.0
        return u - _log_excess(v, n, s)

    if s > 0:
        hi, f_hi = math.log(math.log(2.0)), None
    else:
        if v_inf <= math.log1p(2.0 / (n - 2)):
            raise NoRootOnBranch(
                f"block k={k} has no bound state (N={n}, zeta={p.zeta})"
            )
        hi, f_hi = math.log(v_inf), 1.0
    # u < log|eps(v)| there: for odd k because |eps(v)| grows as v falls,
    # for even k as checked at every block of even N 4-400, zeta 1e-4 to
    # MAX_ZETA.
    lo = min(_log_excess(v_inf, n, s), hi) - 1.0
    log_eps, steps = bisect_monotone(
        sign_gap, lo, hi, f_hi=f_hi, xtol=0.0, max_iter=200
    )
    eps = math.copysign(math.exp(log_eps), s)
    v = v_inf + eps
    if not v > 0.0:
        raise NoRootOnBranch(
            f"block k={k} bound state collapsed to v = {v!r} "
            f"(N={n}, zeta={p.zeta})"
        )
    residual = abs(math.expm1(_log_excess(v, n, s) - log_eps))
    log.debug(
        "%s bound state, k=%d: v=%r, log|eps|=%r after %d steps, residual %r",
        branch, k, v, log_eps, steps, residual,
    )
    if residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} in block k={k}"
        )
    a = _block_momentum(k, n)
    lam2 = _rapidity(a, v, gap + log_c - eps, p.zeta)
    p2 = complex(a, v)
    return RapidityPair(
        lambda1=lam2.conjugate(),
        lambda2=lam2,
        residual=residual,
        iterations=steps,
        branch_meta={
            "method": method,
            "branch": branch,
            "k": k,
            "v": v,
            "log_eps": log_eps,
        },
        momenta=(p2.conjugate(), p2),
    )


def solve_complex(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve a complex conjugate pair as the bound state of its block.

    The block and the mirroring are q's block address: a mirrored pair is
    the negation of the bound state of its mirror's block.
    """
    k, kind, _, mirrored = block_address(q, p)
    if kind != "bound":
        raise ValueError(f"solve_complex cannot handle class {q.cls}")
    pair = _bound_state(k, p, "momentum_block", defect_tol)
    return pair.negated() if mirrored else pair


def solve_boundary_string(p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Wide conjugate pair centered on the edge of the rapidity domain.

    The state of the labels of kind edge (quantum_numbers.block_address),
    block 0's bound state; its counting value sits exactly at (N-1)/2.
    """
    return _bound_state(0, p, "boundary_string", defect_tol)


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
