"""Routing from an enumerated quantum-number pair to its solver.

One entry point turns any pair produced by enumerate_all into rapidities;
a second solves many pairs of one sector, with one root per momentum block
and level of its distinct-label real pairs.
The only subtlety is the boundary member of the infinite real family: its
two mirrored labels carry two distinct states of the chain (a real pair
pinned at the domain edge and a wide string centered on the edge), which
coincide mod pi at the label level.  The positive labels get the real state
and the negative labels the string, so that the full inventory stays
complete and mirror-symmetric as a set.
"""
from __future__ import annotations

from .equal_solver import solve_equal
from .height_solver import solve_pair, solve_pairs
from .model import ChainParams, QuantumPair, SolutionClass, attempt
from .string_solver import (
    singular_solution,
    solve_boundary_string,
    solve_complex,
)


def is_boundary_family_pair(q: QuantumPair, p: ChainParams):
    """True for the (+-1/2, +-(N-1)/2) members of the infinite family."""
    if q.cls is not SolutionClass.INFINITE_FAMILY_REAL:
        return False
    magnitudes = {abs(q.j1).twice, abs(q.j2).twice}
    return magnitudes == {1, p.n - 1} and (q.j1 < 0) == (q.j2 < 0)


def _goes_to_solve_pair(q: QuantumPair, p: ChainParams):
    """True for the pairs solve_pair solves.

    Those are the real pairs with distinct labels, except the negative
    boundary labels, which carry the edge string.
    """
    return (
        q.cls.is_real
        and q.j1 != q.j2
        and not (is_boundary_family_pair(q, p) and q.j1 < 0)
    )


def solve_quantum_pair(q: QuantumPair, p: ChainParams, **kwargs):
    """Solve the state carried by an enumerated quantum-number pair."""
    if _goes_to_solve_pair(q, p):
        return solve_pair(q, p, **kwargs)
    if q.cls is SolutionClass.SINGULAR:
        return singular_solution(p)
    if q.cls.is_complex:
        return solve_complex(q, p, **kwargs)
    if is_boundary_family_pair(q, p):
        return solve_boundary_string(p, **kwargs)
    return solve_equal(q, p, **kwargs)


def solve_quantum_pairs(pairs, p: ChainParams, **kwargs):
    """Solve many enumerated pairs of one sector.

    Returns one RapidityPair or BetheError per pair, in input order, as
    solve_quantum_pair returns or raises it.  The pairs it sends to
    solve_pair are solved together by height_solver.solve_pairs; the others
    one by one.
    """
    batch = [i for i, q in enumerate(pairs) if _goes_to_solve_pair(q, p)]
    solved = solve_pairs([pairs[i] for i in batch], p, **kwargs)
    outcomes = dict(zip(batch, solved))
    return [
        outcomes[i] if i in outcomes
        else attempt(solve_quantum_pair, q, p, **kwargs)
        for i, q in enumerate(pairs)
    ]
