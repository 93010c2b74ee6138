"""Routing from enumerated labels to the right solver."""
import math

import pytest

from bethe_xxz.dispatch import (
    is_boundary_family_pair,
    solve_quantum_pair,
    solve_quantum_pairs,
)
from bethe_xxz.model import ChainParams, HalfInt, QuantumPair, SolutionClass
from bethe_xxz.quantum_numbers import block_address, enumerate_all

P86 = ChainParams(8, 0.6)
ROUTING_POINTS = [(4, 1e-3), (8, 0.6), (12, 0.3), (16, 300.0), (48, 2.0)]


def _methods_by_class(p):
    out = {}
    for q in enumerate_all(p):
        s = solve_quantum_pair(q, p)
        out.setdefault(q.cls, set()).add(s.branch_meta["method"])
    return out


class TestRouting:
    def test_every_enumerated_pair_solves(self):
        methods = _methods_by_class(P86)
        assert methods[SolutionClass.STANDARD_REAL] == {"momentum_block"}
        assert methods[SolutionClass.NARROW_PAIR_COMPLEX] == {"momentum_block"}
        assert methods[SolutionClass.WIDE_PAIR_COMPLEX] == {"momentum_block"}
        assert methods[SolutionClass.SINGULAR] == {"singular_exact"}
        assert methods[SolutionClass.INFINITE_FAMILY_REAL] == {
            "momentum_block",
            "boundary_limit",
            "boundary_string",
        }

    @pytest.mark.parametrize("n,zeta", ROUTING_POINTS)
    def test_kind_agrees_with_the_solved_record(self, n, zeta):
        # Each label's block kind names the state its record holds; a bound
        # state's branch follows the parity of its block.
        p = ChainParams(n, zeta)
        pairs = enumerate_all(p)
        kinds = set()
        for q, s in zip(pairs, solve_quantum_pairs(pairs, p)):
            k, kind, _, _ = block_address(q, p)
            kinds.add(kind)
            meta = s.branch_meta
            got = (meta["method"], meta.get("branch"))
            if kind == "scattering":
                if (q.j1.twice, q.j2.twice) == (1, n - 1):
                    assert got == ("boundary_limit", None), q.key()
                else:
                    assert got == ("momentum_block", "scattering"), q.key()
                    assert meta["k"] == k, q.key()
            elif kind == "top":
                assert got == ("momentum_block", "real"), q.key()
            elif kind == "bound":
                branch = "narrow" if k % 2 else "wide"
                assert got == ("momentum_block", branch), q.key()
                assert meta["k"] == k, q.key()
            elif kind == "edge":
                assert got == ("boundary_string", "wide"), q.key()
                assert meta["k"] == 0
            else:
                assert kind == "singular", q.key()
                assert got == ("singular_exact", None), q.key()
        assert {"scattering", "edge", "singular"} <= kinds

    def test_boundary_family_detection(self):
        fam = SolutionClass.INFINITE_FAMILY_REAL
        assert is_boundary_family_pair(
            QuantumPair(HalfInt(1), HalfInt(7), fam), P86
        )
        assert is_boundary_family_pair(
            QuantumPair(HalfInt(-1), HalfInt(-7), fam), P86
        )
        assert not is_boundary_family_pair(
            QuantumPair(HalfInt(3), HalfInt(7), fam), P86
        )
        assert not is_boundary_family_pair(
            QuantumPair(HalfInt(1), HalfInt(7), SolutionClass.STANDARD_REAL),
            P86,
        )

    def test_positive_boundary_pair_is_real(self):
        q = QuantumPair(
            HalfInt(1), HalfInt(7), SolutionClass.INFINITE_FAMILY_REAL
        )
        s = solve_quantum_pair(q, P86)
        assert s.lambda1.imag == 0.0 and s.lambda2.imag == 0.0
        assert s.branch_meta["method"] == "boundary_limit"

    def test_negative_boundary_pair_is_edge_string(self):
        q = QuantumPair(
            HalfInt(-1), HalfInt(-7), SolutionClass.INFINITE_FAMILY_REAL
        )
        s = solve_quantum_pair(q, P86)
        assert s.branch_meta["method"] == "boundary_string"
        assert s.lambda1.real == math.pi / 2.0
        assert s.lambda1.imag > 0.0

    def test_boundary_states_mirror_as_a_set_mod_pi(self):
        # The two mirrored labels of the boundary family carry two distinct
        # states whose rapidities coincide mod pi at the label level: the
        # real pair pinned at the edge and the string centered on the edge.
        # Negating either state's real parts maps the pair of centers
        # {pi/2, pi/2} onto itself mod pi, so the inventory stays
        # mirror-symmetric as a set even though the individual states are
        # not related by negation.
        fam = SolutionClass.INFINITE_FAMILY_REAL
        pos = solve_quantum_pair(
            QuantumPair(HalfInt(1), HalfInt(7), fam), P86
        )
        neg = solve_quantum_pair(
            QuantumPair(HalfInt(-1), HalfInt(-7), fam), P86
        )
        pos_center = max(pos.lambda1.real, pos.lambda2.real)
        neg_center = neg.lambda1.real
        shifted = (-neg_center) % math.pi
        assert shifted == pytest.approx(pos_center, abs=1e-9)

    @pytest.mark.parametrize(
        "n,zeta",
        [(n, zeta) for n in (4, 6, 8, 12, 22, 48, 64)
         for zeta in (1e-3, 0.3, 0.57, 2.0)],
    )
    def test_every_solved_pair_carries_its_momenta(self, n, zeta):
        # Only the exact singular pair is left to the oracle's lambda path:
        # the boundary pair (1/2, (N-1)/2) carries its momenta (pi, 0).
        p = ChainParams(n, zeta)
        pairs = enumerate_all(p)
        for q, s in zip(pairs, solve_quantum_pairs(pairs, p)):
            if s.branch_meta["method"] == "singular_exact":
                assert s.momenta is None
            else:
                assert s.momenta is not None, (n, zeta, q)
            if s.branch_meta["method"] == "boundary_limit":
                assert s.momenta == (math.pi, 0.0)
