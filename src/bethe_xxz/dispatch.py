"""Routing from an enumerated quantum-number pair to its solver.

One entry point turns any pair produced by enumerate_all into rapidities;
a second solves many pairs of one sector, with one root per momentum block
and level of its distinct-label real pairs.  Both route on the kind of
quantum_numbers.block_address.  The boundary labels (+-1/2, +-(N-1)/2)
carry two distinct states that coincide mod pi at the label level: the
positive labels the real pair pinned at the domain edge, the negative ones
(kind edge) the wide string centered on it, so that the full inventory
stays complete and mirror-symmetric as a set.
"""
from __future__ import annotations

from .equal_solver import solve_equal
from .height_solver import solve_pair, solve_pairs
from .model import ChainParams, QuantumPair, attempt
# is_boundary_family_pair is re-exported: the benchmark imports it from here.
from .quantum_numbers import block_address, is_boundary_family_pair
from .string_solver import (
    singular_solution,
    solve_boundary_string,
    solve_complex,
)

def solve_quantum_pair(q: QuantumPair, p: ChainParams, **kwargs):
    """Solve the state carried by an enumerated quantum-number pair."""
    kind = block_address(q, p)[1]
    if kind == "scattering":
        return solve_pair(q, p, **kwargs)
    if kind == "top":
        return solve_equal(q, p, **kwargs)
    if kind == "bound":
        return solve_complex(q, p, **kwargs)
    if kind == "edge":
        return solve_boundary_string(p, **kwargs)
    return singular_solution(p)


def solve_quantum_pairs(pairs, p: ChainParams, **kwargs):
    """Solve many enumerated pairs of one sector.

    Returns one RapidityPair or BetheError per pair, in input order, as
    solve_quantum_pair returns or raises it.  The pairs of kind scattering
    are solved together by height_solver.solve_pairs; the others one by
    one.
    """
    batch = [i for i, q in enumerate(pairs)
             if block_address(q, p)[1] == "scattering"]
    solved = solve_pairs([pairs[i] for i in batch], p, **kwargs)
    outcomes = dict(zip(batch, solved))
    return [
        outcomes[i] if i in outcomes
        else attempt(solve_quantum_pair, q, p, **kwargs)
        for i, q in enumerate(pairs)
    ]
