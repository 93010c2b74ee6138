"""Real solutions with equal quantum numbers as the top states of odd
momentum blocks.

A label J sits in the odd block k of its block address (quantum_numbers).
Its real pair is the block's bound state (string_solver) continued to
v = i q: momenta p = a -+ q, cos a = c = |cos(pi k / N)|, and relative
amplitude e^{-i q r} - e^{-i q (N - r)}.  The hard-core condition at r = 1
reads

    h(q) = sin(N q / 2) / sin((N/2 - 1) q) - Delta / c = 0,

with one root in (0, 2 pi / N] exactly when h(0) = N / (N - 2) - Delta / c
is positive; otherwise the label carries a complex pair.  The same
threshold controls which equal-label pairs are real (collapsed strings)
and whether the edge pair stays real.

The pair is written as (x - phi, x + phi), a string center x and a
half-deviation phi > 0.  The paper's counting function N W(phi), with the
center eliminated in closed form, stays as the label check: it equals J at
a solution.
"""
from __future__ import annotations

import cmath
import logging
import math

from .model import (
    ChainParams,
    DenominatorVanishes,
    NegativeTanSquare,
    NoRealSolution,
    QuantumPair,
    RapidityPair,
    ToleranceNotReached,
    bae_defect,
    bisect_monotone,
)
from .quantum_numbers import block_address
from .string_solver import _block_momentum, _log_delta, _log_link

DEFAULT_DEFECT_TOL = 1e-10
DENOMINATOR_TOL = 1e-13

log = logging.getLogger(__name__)


def _phase_parts(phi, n, p: ChainParams):
    """Angle theta and the two polar factors of the closed form for tan^2 x.

    The closed form is a ratio of two differences of conjugate complex
    numbers rotated by the N-th root phase; factoring the half-angle out of
    both turns each difference into a real sine, which removes the
    cancellation that plagues the naive complex evaluation at small phi.
    """
    t = p.t
    tf = math.tan(phi)
    z = complex(math.tanh(p.zeta) * (1.0 - tf * tf), 2.0 * tf)
    # L = conj(z)/z is unimodular, so (L^2)^(1/N) is a pure phase.  Im z > 0
    # for phi in (0, pi/2), so arg z runs continuously through (0, pi) and
    # -4 arg z is the continuous determination of the phase of L^2 (the
    # principal value would wrap twice across the phi range).
    phase_l2 = -4.0 * cmath.phase(z)
    theta = (2.0 * math.pi * n + phase_l2) / p.n
    e_plus = complex(t * t - tf * tf, 2.0 * t * tf)
    d_plus = complex(1.0 - t * t * tf * tf, 2.0 * t * tf)
    return theta, e_plus, d_plus


def tan2x_of_phi(phi, n, p: ChainParams):
    """Square of the tangent of the string center at half-deviation phi.

    Exactly real by construction; a negative value signals that no real
    center exists at this phi (exit from the real branch).
    """
    theta, e_plus, d_plus = _phase_parts(phi, n, p)
    num = abs(e_plus) * math.sin(theta / 2.0 + cmath.phase(e_plus))
    den = abs(d_plus) * math.sin(theta / 2.0 + cmath.phase(d_plus))
    if abs(den) < DENOMINATOR_TOL:
        raise DenominatorVanishes(
            f"tan^2 x denominator vanishes at phi={phi!r}"
        )
    return -num / den


def counting_w(phi, p: ChainParams, sign_x=1):
    """N*W(phi): the quantity equated to J1 for an equal-label real pair."""
    t2 = tan2x_of_phi(phi, 0, p)
    if t2 < 0.0:
        raise NegativeTanSquare(
            f"tan^2 x = {t2!r} < 0 at phi={phi!r}: no real center"
        )
    x = sign_x * math.atan(math.sqrt(t2))
    t = p.t
    total = math.atan(math.tan(x - phi) / t) + math.atan(math.tan(x + phi) / t)
    gauss = math.floor((-4.0 * phi + math.pi) / (2.0 * math.pi))
    return (p.n / (2.0 * math.pi)) * total - sign_x * gauss


def _top_state_q(k, p: ChainParams):
    """(q, steps) of block k's real top state, or None if the block has none.

    h falls from h(0) > 0 to h(2 pi / N) = -Delta / c, so one bisection
    brackets the root.
    """
    n = p.n
    if k % 2 == 0 or 2 * k >= n:
        return None
    ratio = math.exp(_log_delta(p.zeta)[0] - _log_link(k, n))
    h_zero = n / (n - 2) - ratio
    if not h_zero > 0.0:
        return None
    outer, inner = 0.5 * n, 0.5 * n - 1.0

    def h(q):
        return math.sin(outer * q) / math.sin(inner * q) - ratio

    return bisect_monotone(
        h, 0.0, 2.0 * math.pi / n, f_lo=h_zero, f_hi=-ratio, xtol=0.0
    )


def _real_rapidity(momentum, t):
    """The lambda of momentum p, with tan(lambda) = t cot(p/2).

    Continued through p = 0: it falls from pi to 0 as p rises from -pi to pi.
    """
    half = 0.5 * momentum
    return math.atan2(t * math.cos(half), math.sin(half))


def solve_equal(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve an equal-quantum-number real pair, or raise NoRealSolution.

    A label |J| < N/2 is solved as the top state of its block; a mirrored
    label's pair is the exact negation of its partner's, in block N - k.
    """
    if q.j1 != q.j2:
        raise ValueError("solve_equal requires equal quantum numbers")
    k, _, _, mirrored = block_address(q, p)
    # Labels at or past N/2 fold back into a block, but carry no state.
    found = _top_state_q(k, p) if abs(q.j1.twice) < p.n else None
    if found is None:
        log.debug("equal, J=%r: block k=%d has no real top state",
                  float(q.j1), -k % p.n if mirrored else k)
        raise NoRealSolution(
            f"counting function never attains {q.j1} at N={p.n}, "
            f"zeta={p.zeta} (complex pair in this regime)"
        )
    root, steps = found
    a = _block_momentum(k, p.n)
    l1, l2 = _real_rapidity(a + root, p.t), _real_rapidity(a - root, p.t)
    x, phi = 0.5 * (l1 + l2), 0.5 * (l2 - l1)
    if mirrored:
        l1, l2, x, k, a = -l2, -l1, -x, p.n - k, -a
    log.debug("equal, J=%r: block k=%d, q=%r after %d steps",
              float(q.j1), k, root, steps)
    residual = bae_defect(l1, l2, p)
    if residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} for ({q.j1}, {q.j2})"
        )
    return RapidityPair(
        lambda1=complex(l1),
        lambda2=complex(l2),
        residual=residual,
        iterations=steps,
        branch_meta={
            "method": "momentum_block",
            "branch": "real",
            "k": k,
            "q": root,
            "center": x,
            "phi": phi,
            "gamma": 2.0 * phi / p.zeta,
        },
        momenta=(a - root, a + root),
    )
