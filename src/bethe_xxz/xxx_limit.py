"""Divergence of reduced rapidities for the infinite real family.

As the anisotropy parameter goes to zero the first rapidity of every member
of the infinite family is squeezed into [pi/4, pi/2), so the reduced value
lambda1/zeta grows without bound.  This module traces that approach along a
decreasing schedule of anisotropy values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .equal_solver import solve_equal
from .height_solver import solve_pair
from .model import (
    BetheError,
    ChainParams,
    OutsideSqueeze,
    QuantumPair,
    SolutionClass,
)


@dataclass(frozen=True)
class TraceSample:
    """One point of a divergence trace; lambda2 is recorded, not asserted."""

    zeta: float
    lambda1: float
    lambda2: float
    reduced: float  # lambda1 / zeta


@dataclass(frozen=True)
class DivergenceTrace:
    pair: QuantumPair
    samples: tuple


def small_zeta_bound(n):
    """Anisotropy below which the pi/4 <= |lambda1| < pi/2 check is enforced."""
    return 0.1 * math.pi / n


def _check_family(q: QuantumPair, n):
    """Require an edge label +-(N-1)/2 and a half-odd label of its sign."""
    smaller, larger = sorted((abs(q.j1).twice, abs(q.j2).twice))
    if (
        q.cls is not SolutionClass.INFINITE_FAMILY_REAL
        or larger != n - 1
        or (q.j1 < 0) != (q.j2 < 0)
        or smaller % 2 == 0
    ):
        raise ValueError(f"({q.j1}, {q.j2}) is not in the infinite family")


def trace_divergence(q: QuantumPair, p0: ChainParams, zeta_schedule):
    """Trace lambda1 and lambda1/zeta along a decreasing anisotropy schedule.

    The divergent rapidity is reported first: for distinct labels that is
    the one attached to the edge label; for the equal edge pair it is the
    larger in magnitude.
    """
    _check_family(q, p0.n)
    schedule = list(zeta_schedule)
    if any(z <= 0 for z in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ValueError("schedule must be strictly decreasing and positive")
    positive = q.j1 > 0 or q.j2 > 0
    bound = small_zeta_bound(p0.n)
    samples = []
    for zeta in schedule:
        p = ChainParams(p0.n, zeta)
        try:
            # The real solvers are used directly (not the state-assembly
            # routing): the trace studies the literal mirror-symmetric real
            # branches, so the negative family must come out negated.
            if q.j1 == q.j2:
                sol = solve_equal(q, p)
            else:
                sol = solve_pair(q, p)
        except BetheError as exc:
            # Name the sample's zeta unless the solver message already does.
            if f"zeta={zeta!r}" in str(exc):
                raise
            raise type(exc)(f"{exc} (at zeta={zeta!r})") from exc
        lam1, lam2 = sorted(
            (sol.lambda1.real, sol.lambda2.real), key=abs, reverse=True
        )
        # Below about zeta = 1e-7 the squeezed lambda1 can round to +-pi/2;
        # the window stays half-open, so that sample is refused.
        if zeta <= bound:
            if positive and not (math.pi / 4.0 <= lam1 < math.pi / 2.0):
                raise OutsideSqueeze(
                    f"lambda1={lam1!r} outside [pi/4, pi/2) at zeta={zeta!r}"
                )
            if not positive and not (-math.pi / 2.0 < lam1 <= -math.pi / 4.0):
                raise OutsideSqueeze(
                    f"lambda1={lam1!r} outside (-pi/2, -pi/4] at zeta={zeta!r}"
                )
        samples.append(
            TraceSample(
                zeta=zeta, lambda1=lam1, lambda2=lam2, reduced=lam1 / zeta
            )
        )
    return DivergenceTrace(pair=q, samples=tuple(samples))
