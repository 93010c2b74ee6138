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
and whether the edge pair stays real.  The paper's counting function W,
the label check of these pairs, is in counting.
"""
from __future__ import annotations

import logging
import math

from .model import (
    ChainParams,
    NoRealSolution,
    QuantumPair,
    RapidityPair,
    ToleranceNotReached,
    bae_defect,
    bisect_monotone,
    block_momentum,
    log_delta,
    log_link,
    real_rapidity,
)
from .quantum_numbers import block_address

DEFAULT_DEFECT_TOL = 1e-10

log = logging.getLogger(__name__)


def _top_state_q(k, p: ChainParams):
    """(q, steps) of block k's real top state, or None if the block has none.

    h falls from h(0) > 0 to h(2 pi / N) = -Delta / c, so one bisection
    brackets the root.
    """
    n = p.n
    if k % 2 == 0 or 2 * k >= n:
        return None
    ratio = math.exp(log_delta(p.zeta)[0] - log_link(k, n))
    h_zero = n / (n - 2) - ratio
    if not h_zero > 0.0:
        return None
    outer, inner = 0.5 * n, 0.5 * n - 1.0

    def h(q):
        return math.sin(outer * q) / math.sin(inner * q) - ratio

    return bisect_monotone(
        h, 0.0, 2.0 * math.pi / n, f_lo=h_zero, f_hi=-ratio, xtol=0.0
    )


def solve_equal(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve an equal-quantum-number real pair, or raise NoRealSolution.

    A label |J| < N/2 is solved as the top state of its block; a mirrored
    label's pair is the exact negation of its partner's, and reports the
    partner's block k with `mirrored`, as the other block solvers do.
    """
    if q.j1 != q.j2:
        raise ValueError("solve_equal requires equal quantum numbers")
    k, _, _, mirrored = block_address(q, p)
    # Labels at or past N/2 fold back into a block, but carry no state.
    found = _top_state_q(k, p) if abs(q.j1.twice) < p.n else None
    if found is None:
        log.debug("equal, J=%r: block k=%d has no real top state",
                  float(q.j1), k)
        raise NoRealSolution(
            f"counting function never attains {q.j1} at N={p.n}, "
            f"zeta={p.zeta} (complex pair in this regime)"
        )
    root, steps = found
    a = block_momentum(k, p.n)
    l1, l2 = real_rapidity(a + root, p.t), real_rapidity(a - root, p.t)
    x, phi = 0.5 * (l1 + l2), 0.5 * (l2 - l1)
    if mirrored:
        l1, l2, x, a = -l2, -l1, -x, -a
    log.debug("equal, J=%r: block k=%d, q=%r after %d steps",
              float(q.j1), k, root, steps)
    residual = bae_defect(l1, l2, p)
    if not residual <= defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} for ({q.j1}, {q.j2})"
        )
    meta = {
        "method": "momentum_block",
        "branch": "real",
        "k": k,
        "q": root,
        "center": x,
        "phi": phi,
        "gamma": 2.0 * phi / p.zeta,
    }
    if mirrored:
        meta["mirrored"] = True
    return RapidityPair(
        lambda1=complex(l1),
        lambda2=complex(l2),
        residual=residual,
        iterations=steps,
        branch_meta=meta,
        momenta=(a - root, a + root),
    )
