"""Exact-diagonalization oracle: Hamiltonian, wavefunctions, completeness."""
import cmath
import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe_xxz import oracle
from bethe_xxz.dispatch import solve_quantum_pair, solve_quantum_pairs
from bethe_xxz.model import (
    BetheError,
    ChainParams,
    HalfInt,
    IncompleteSpectrum,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    ZeroVector,
    magnon_energy,
)
from bethe_xxz.height_solver import solve_pair
from bethe_xxz.oracle import (
    ENERGY_RTOL,
    RESIDUAL_TOL,
    BetheVector,
    _index,
    bethe_vector,
    build_hamiltonian,
    completeness_check,
    exact_spectrum,
    momentum_blocks,
    rayleigh_energy,
    regularized_singular_pair,
    singular_vector,
)
from bethe_xxz.quantum_numbers import block_address, enumerate_all
from reference import sector_amplitudes

P86 = ChainParams(8, 0.6)


class TestHamiltonian:
    def test_dimension_and_basis(self):
        ham = build_hamiltonian(ChainParams(4, 1.0))
        assert ham.dimension == 6
        assert list(zip(*np.triu_indices(4, 1))) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        assert [_index(4, *conf) for conf in zip(*np.triu_indices(4, 1))] == [
            0, 1, 2, 3, 4, 5
        ]

    def test_hand_checked_entries_n4(self):
        p = ChainParams(4, 1.0)
        ham = build_hamiltonian(p)
        idx = {conf: k for k, conf in enumerate(_basis(p.n))}
        # Adjacent down-spins touch 2 anti-aligned bonds; the diametrically
        # opposite configuration (0, 2) touches all 4.
        assert ham.matrix[idx[(0, 1)], idx[(0, 1)]] == pytest.approx(-p.delta)
        assert ham.matrix[idx[(0, 2)], idx[(0, 2)]] == pytest.approx(
            -2.0 * p.delta
        )
        # One hop of amplitude 1/2 connects (0, 1) and (0, 2).
        assert ham.matrix[idx[(0, 1)], idx[(0, 2)]] == pytest.approx(0.5)
        # (0, 1) and (2, 3) share no single-hop move.
        assert ham.matrix[idx[(0, 1)], idx[(2, 3)]] == 0.0
        # The whole matrix, in basis order (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
        d = p.delta
        expected = [
            [-d, 0.5, 0.0, 0.0, 0.5, 0.0],
            [0.5, -2 * d, 0.5, 0.5, 0.0, 0.5],
            [0.0, 0.5, -d, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, -d, 0.5, 0.0],
            [0.5, 0.0, 0.5, 0.5, -2 * d, 0.5],
            [0.0, 0.5, 0.0, 0.0, 0.5, -d],
        ]
        assert np.array_equal(ham.matrix, np.array(expected))

    @pytest.mark.parametrize("n", [4, 6, 10, 14])
    def test_dense_view_equals_per_state_reference(self, n):
        # Built state by state: -delta/2 per anti-aligned bond, 1/2 per hop
        # of one down-spin to an empty neighbouring site.
        p = ChainParams(n, 0.6)
        ham = build_hamiltonian(p)
        idx = {conf: k for k, conf in enumerate(_basis(p.n))}
        expected = np.zeros((ham.dimension, ham.dimension))
        for (x1, x2), k in idx.items():
            down = {x1, x2}
            bonds = sum((x in down) != ((x + 1) % n in down) for x in range(n))
            expected[k, k] = -p.delta * bonds / 2
            for mover, other in ((x1, x2), (x2, x1)):
                for step in (1, -1):
                    target = (mover + step) % n
                    if target != other:
                        expected[k, idx[tuple(sorted((target, other)))]] = 0.5
        assert np.array_equal(ham.matrix, expected)

    def test_symmetric(self):
        for n in (4, 8, 14):
            ham = build_hamiltonian(ChainParams(n, 0.6))
            assert np.array_equal(ham.matrix, ham.matrix.T), n

    @settings(max_examples=60, deadline=None)
    @given(
        half_n=st.integers(2, 10),
        zeta=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stencil_apply_equals_dense_matvec(self, half_n, zeta, seed):
        ham = build_hamiltonian(ChainParams(2 * half_n, zeta))
        rng = np.random.default_rng(seed)
        v = rng.normal(size=ham.dimension) + 1j * rng.normal(
            size=ham.dimension
        )
        v /= np.linalg.norm(v)
        assert np.max(np.abs(ham.apply(v) - ham.matrix @ v)) <= 1e-13

    def test_spectrum_sorted_with_matching_trace(self):
        ham = build_hamiltonian(P86)
        spec = exact_spectrum(ham)
        assert list(spec) == sorted(spec)
        assert float(np.sum(spec)) == pytest.approx(
            float(np.trace(ham.matrix)), rel=1e-12
        )


class TestMomentumBlocks:
    @pytest.mark.parametrize("zeta", [1e-3, 0.05, 0.6, 2.0, 5.0])
    @pytest.mark.parametrize("n", range(4, 31, 2))
    def test_block_spectrum_equals_dense(self, n, zeta):
        ham = build_hamiltonian(ChainParams(n, zeta))
        assert sum(len(block) for block in momentum_blocks(ham)) == (
            ham.dimension
        )
        dense = np.linalg.eigvalsh(ham.matrix)
        spec = exact_spectrum(ham)
        assert np.all(
            np.abs(spec - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense))
        )

    def test_block_shapes(self):
        ham = build_hamiltonian(ChainParams(10, 0.6))
        blocks = momentum_blocks(ham)
        assert [len(block) for block in blocks] == [5, 4] * 5
        for block in blocks:
            assert np.array_equal(block, block.T)
            assert np.array_equal(block, np.triu(np.tril(block, 1), -1))


class TestNoDenseMatrix:
    """The oracle's own paths never build the dense view."""

    def test_exact_spectrum(self):
        ham = build_hamiltonian(P86)
        exact_spectrum(ham)
        assert "matrix" not in vars(ham)

    def test_completeness_check(self, monkeypatch):
        built = []
        build = oracle.build_hamiltonian

        def recording(p, **kwargs):
            built.append(build(p, **kwargs))
            return built[-1]

        monkeypatch.setattr(oracle, "build_hamiltonian", recording)
        completeness_check(ChainParams(12, 0.57))
        (ham,) = built
        assert "matrix" not in vars(ham)

    def test_matrix_built_once_on_read(self):
        ham = build_hamiltonian(P86)
        assert ham.matrix is ham.matrix
        assert "matrix" in vars(ham)


def _basis(n):
    """The sector's basis states (x1, x2), in basis order."""
    return [(int(a), int(b)) for a, b in zip(*np.triu_indices(n, 1))]


def _lambda_momenta(pair, p):
    hz = 0.5j * p.zeta
    return [
        -1j * cmath.log(cmath.sin(lam + hz) / cmath.sin(lam - hz))
        for lam in (pair.lambda1, pair.lambda2)
    ]


def _reference_momenta(pair, p):
    """Momenta p1, p2 of a pair and the log of its scattering factor S.

    A pair solved in a momentum block carries k.  A scattering pair has
    momenta pi k / N -+ q, each taken by the rapidity whose momentum it
    equals mod 2 pi (negated if mirrored).  Otherwise a = pi k / N is
    shifted by pi where needed for cos a >= 0: a bound state has momenta
    a -+ i v, an equal-label real pair a -+ q.  S = e^{i N p2}.  Other
    pairs take their momenta from lambda and S from the two-body
    scattering amplitude.
    """
    meta = pair.branch_meta
    if meta.get("branch") == "scattering":
        a, q = math.pi * meta["k"] / p.n, meta["q"]
        sign = -1.0 if meta.get("mirrored") else 1.0
        first = _lambda_momenta(pair, p)[0].real

        def off(x):
            return abs(cmath.exp(1j * x) - cmath.exp(1j * first))

        p1, p2 = sorted((sign * (a - q), sign * (a + q)), key=off)
        return complex(p1), complex(p2), 1j * p.n * p2
    if "k" in meta:
        a = math.pi * meta["k"] / p.n
        if math.cos(a) < 0.0:
            a -= math.pi
        if "q" in meta:
            p1, p2 = complex(a - meta["q"]), complex(a + meta["q"])
        else:
            p2 = complex(a, meta["v"])
            p1 = p2.conjugate()
        if meta.get("mirrored"):
            p1, p2 = -p1, -p2
        return p1, p2, 1j * p.n * p2
    p1, p2 = _lambda_momenta(pair, p)
    e1, e2 = cmath.exp(1j * p1), cmath.exp(1j * p2)
    num = e1 * e2 - 2.0 * p.delta * e2 + 1.0
    den = e1 * e2 - 2.0 * p.delta * e1 + 1.0
    return p1, p2, cmath.log(-num) - cmath.log(den)


def _reference_amplitudes(pair, p):
    """Unshifted assembly, one plane-wave product per basis state."""
    p1, p2, log_s = _reference_momenta(pair, p)
    s = cmath.exp(log_s)
    amplitudes = []
    for x1 in range(p.n):
        for x2 in range(x1 + 1, p.n):
            amplitudes.append(
                cmath.exp(1j * (p1 * x1 + p2 * x2))
                + s * cmath.exp(1j * (p2 * x1 + p1 * x2))
            )
    return np.array(amplitudes)


def _outer_sum_vector(pair, p):
    """Amplitudes from the full (x1, x2) exponents, one common shift."""
    p1, p2, log_s = _reference_momenta(pair, p)
    x1, x2 = np.triu_indices(p.n, 1)
    direct = 1j * (p1 * x1 + p2 * x2)
    exchanged = 1j * (p2 * x1 + p1 * x2) + log_s
    shift = max(direct.real.max(), exchanged.real.max())
    amplitudes = np.exp(direct - shift) + np.exp(exchanged - shift)
    norm = float(np.linalg.norm(amplitudes))
    return BetheVector(amplitudes=amplitudes / norm, norm=norm)


def _passes(vec, ham, spectrum):
    """Whether a vector meets ENERGY_RTOL and RESIDUAL_TOL, and its energy."""
    energy, residual = rayleigh_energy(vec, ham)
    nearest = spectrum[np.argmin(np.abs(spectrum - energy))]
    err = abs(energy - nearest) / max(1.0, abs(nearest))
    return (err <= ENERGY_RTOL and residual <= RESIDUAL_TOL), energy


class TestBetheVector:
    @pytest.mark.parametrize(
        "n,j1,j2,cls",
        [
            (8, "-5/2", "-3/2", SolutionClass.STANDARD_REAL),
            (8, "5/2", "5/2", SolutionClass.NARROW_PAIR_COMPLEX),
            (8, "5/2", "7/2", SolutionClass.WIDE_PAIR_COMPLEX),
            (16, "-13/2", "-9/2", SolutionClass.STANDARD_REAL),
            (16, "-11/2", "-11/2", SolutionClass.NARROW_PAIR_COMPLEX),
            (16, "-13/2", "-11/2", SolutionClass.WIDE_PAIR_COMPLEX),
        ],
    )
    def test_same_ray_as_reference_loop(self, n, j1, j2, cls):
        p = ChainParams(n, 0.6)
        q = QuantumPair(HalfInt.parse(j1), HalfInt.parse(j2), cls)
        sol = solve_quantum_pair(q, p)
        a = sector_amplitudes(bethe_vector(sol, p), n)
        b = _reference_amplitudes(sol, p)
        assert abs(abs(np.vdot(a, b)) / np.linalg.norm(b) - 1.0) < 1e-12
        # Both assemblies only rescale by positive reals, so the unfolded
        # block vector equals the normalized reference amplitude by
        # amplitude.
        assert np.max(np.abs(a - b / np.linalg.norm(b))) <= 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_singular_rapidity_is_zero_vector(self, sign):
        hz = 0.5j * P86.zeta
        pair = RapidityPair(sign * hz, 0.3, None, 0)
        with pytest.raises(ZeroVector):
            bethe_vector(pair, P86)

    def _solved(self):
        q = QuantumPair(HalfInt(1), HalfInt(3), SolutionClass.STANDARD_REAL)
        return solve_pair(q, P86)

    def test_eigenvector_of_sector_hamiltonian(self):
        ham = build_hamiltonian(P86)
        sol = self._solved()
        vec = bethe_vector(sol, P86)
        energy, residual = rayleigh_energy(vec, ham)
        assert residual < 1e-10
        assert energy == pytest.approx(
            magnon_energy(sol.lambda1, sol.lambda2, P86), abs=1e-10
        )

    def test_normalized(self):
        vec = bethe_vector(self._solved(), P86)
        assert float(np.linalg.norm(vec.amplitudes)) == pytest.approx(1.0)

    def test_swapped_rapidities_give_same_ray(self):
        sol = self._solved()
        from bethe_xxz.model import RapidityPair

        swapped = RapidityPair(
            sol.lambda2, sol.lambda1, sol.residual, sol.iterations
        )
        a = bethe_vector(sol, P86).amplitudes
        b = bethe_vector(swapped, P86).amplitudes
        assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-10

    @pytest.mark.parametrize("n,zeta", [(22, 1e-3), (48, 2.0)])
    def test_branch_meta_is_output_only(self, n, zeta):
        # A solved pair's vector comes from the momenta it carries: with its
        # branch_meta cleared, k, norm and amplitudes stay bitwise equal.
        p = ChainParams(n, zeta)
        pairs = enumerate_all(p)
        count = 0
        for q, sol in zip(pairs, solve_quantum_pairs(pairs, p)):
            if q.cls is SolutionClass.SINGULAR:
                continue
            assert sol.momenta is not None or (
                sol.branch_meta["method"] == "boundary_limit"
            ), (q.j1, q.j2)
            want = bethe_vector(sol, p)
            got = bethe_vector(dataclasses.replace(sol, branch_meta={}), p)
            assert (got.k, got.norm) == (want.k, want.norm), (q.j1, q.j2)
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            count += 1
        assert count == n * (n - 1) // 2 - 1


class TestBlochForm:
    """The Bloch-form assembly against the per-state and outer-sum ones."""

    @pytest.mark.parametrize("n,zeta", [(22, 1e-3), (48, 2.0)])
    def test_every_solved_pair(self, n, zeta):
        p = ChainParams(n, zeta)
        ham = build_hamiltonian(p)
        spectrum = exact_spectrum(ham)
        dense = np.linalg.eigvalsh(ham.matrix)
        pairs = enumerate_all(p)
        checked = 0
        for q, sol in zip(pairs, solve_quantum_pairs(pairs, p)):
            if isinstance(sol, BetheError) or q.cls is SolutionClass.SINGULAR:
                continue
            b = _reference_amplitudes(sol, p)
            vec = bethe_vector(sol, p)
            a = sector_amplitudes(vec, n)
            assert np.max(np.abs(a - b / np.linalg.norm(b))) <= 1e-12, (
                q.j1, q.j2
            )
            old = _outer_sum_vector(sol, p)
            assert vec.norm == pytest.approx(old.norm, rel=1e-12)
            passes, energy = _passes(vec, ham, spectrum)
            old_passes, old_energy = _passes(old, ham, dense)
            assert passes == old_passes, (q.j1, q.j2)
            assert energy == pytest.approx(old_energy, rel=1e-14, abs=1e-14)
            checked += 1
        assert checked > 0.9 * ham.dimension

    @pytest.mark.parametrize(
        "lam1,lam2",
        [
            (0.3 + 0.2j, -0.4 + 0.05j),
            (0.05 + 0.299j, 0.7 + 0.1j),
            (0.3 - 0.2j, -0.4 - 0.05j),
            (0.3 - 0.29j, 0.1 - 0.25j),
        ],
    )
    def test_complex_total_momentum(self, lam1, lam2):
        # Not a conjugate pair, so Im K != 0 (either sign) and |e^{iKx}|
        # spans e^{+-50} or more over the chain.
        p = ChainParams(64, 0.6)
        pair = RapidityPair(lam1, lam2, None, 0)
        vec = bethe_vector(pair, p)
        old = _outer_sum_vector(pair, p)
        assert vec.norm == pytest.approx(old.norm, rel=1e-12)
        assert np.max(np.abs(vec.amplitudes - old.amplitudes)) <= 1e-12


# Largest differences measured over every even N 4-30 x REFERENCE_ZETAS
# (every solved pair and the singular vector): block against full-sector
# energy 1.0e-15 relative, eigen-residual 2.7e-15 absolute, and block
# against dense spectrum 5.5e-15 relative.
REFERENCE_ZETAS = (1e-3, 0.05, 0.6, 5.0)
BLOCK_ENERGY_BOUND = 4e-15
BLOCK_RESIDUAL_BOUND = 1e-14
BLOCK_SPECTRUM_BOUND = 2e-14


class TestBlockReference:
    """Block vectors and spectrum against the full sector, even N <= 30."""

    @pytest.mark.parametrize("zeta", REFERENCE_ZETAS)
    def test_block_values_equal_full_sector(self, zeta):
        for n in range(4, 31, 2):
            p = ChainParams(n, zeta)
            ham = build_hamiltonian(p)
            dense = np.linalg.eigvalsh(ham.matrix)
            assert np.max(
                np.abs(exact_spectrum(ham) - dense)
                / np.maximum(1.0, np.abs(dense))
            ) <= BLOCK_SPECTRUM_BOUND, n
            pairs = enumerate_all(p)
            for q, sol in zip(pairs, solve_quantum_pairs(pairs, p)):
                assert not isinstance(sol, BetheError), (n, q.key())
                if q.cls is SolutionClass.SINGULAR:
                    vec = singular_vector(ham)
                else:
                    vec = bethe_vector(sol, p)
                    # The norm over the sector, as the full-sector
                    # assembly of the same momenta gives it.
                    momenta = oracle._momenta(sol, p)
                    old = oracle._sector_amplitudes(*momenta, n)
                    assert vec.norm == pytest.approx(
                        float(np.linalg.norm(old)), rel=1e-12
                    ), (n, q.key())
                assert vec.k is not None, (n, q.key())
                energy, residual = rayleigh_energy(vec, ham)
                full = BetheVector(sector_amplitudes(vec, n), vec.norm)
                full_energy, full_residual = rayleigh_energy(full, ham)
                assert abs(energy - full_energy) <= BLOCK_ENERGY_BOUND * max(
                    1.0, abs(full_energy)
                ), (n, q.key())
                assert abs(residual - full_residual) <= BLOCK_RESIDUAL_BOUND, (
                    n, q.key()
                )
            reg = bethe_vector(regularized_singular_pair(p), p)
            assert reg.k is None and len(reg.amplitudes) == ham.dimension

    def test_block_is_the_total_momentum(self):
        # Block k holds the pairs whose labels sum to -k (mod N); the edge
        # string, the bound state of block 0, has labels summing to N/2.
        p = ChainParams(16, 0.6)
        pairs = enumerate_all(p)
        for q, sol in zip(pairs, solve_quantum_pairs(pairs, p)):
            if q.cls is SolutionClass.SINGULAR:
                continue
            edge = sol.branch_meta["method"] == "boundary_string"
            shift = p.n // 2 if edge else 0
            want = (-(q.j1.twice + q.j2.twice) // 2 + shift) % p.n
            assert bethe_vector(sol, p).k == want, q.key()

    @pytest.mark.parametrize("bad", ["total", "log_s"])
    def test_non_finite_momenta_are_a_zero_vector(self, bad, monkeypatch):
        # Refused before the block index is rounded from K.
        momenta = {
            "total": (complex(math.nan, 0.0), 0.3 + 0j, 0.1j),
            "log_s": (0.3 + 0j, -0.3 + 0j, complex(math.inf, 0.0)),
        }[bad]
        monkeypatch.setattr(oracle, "_momenta", lambda pair, p: momenta)
        with pytest.raises(ZeroVector, match="not finite"):
            bethe_vector(RapidityPair(0.1, 0.2, None, 0), P86)


class TestSingularState:
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_closed_form_vector_is_exact(self, n):
        p = ChainParams(n, 0.7)
        ham = build_hamiltonian(p)
        vec = singular_vector(ham)
        energy, residual = rayleigh_energy(vec, ham)
        assert energy == pytest.approx(-p.delta, rel=1e-13)
        assert residual < 1e-13

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_block_vector_is_the_alternating_state(self, n):
        # (-1)^x1 on (x, x + 1) and -1 on (0, N - 1), norm sqrt(N): the
        # state of block N/2 at r = 1.
        vec = singular_vector(build_hamiltonian(ChainParams(n, 0.7)))
        assert vec.k == n // 2 and vec.norm == math.sqrt(n)
        want = np.zeros(n * (n - 1) // 2)
        x = np.arange(n - 1)
        want[_index(n, x, x + 1)] = (-1.0) ** x
        want[_index(n, 0, n - 1)] = -1.0
        got = sector_amplitudes(vec, n)
        phase = got[0] / abs(got[0])
        assert np.max(np.abs(got / phase - want / math.sqrt(n))) <= 1e-15

    def test_regularized_pair_energy_converges(self):
        # The displaced pair's amplitudes span a dynamic range of
        # eps^-(N-2), so its eigen-residual is uninformative, but the
        # Rayleigh energy still lands on -Delta.  At large N zeta both the
        # displacement and the amplitudes would overflow unless formed from
        # 1/R and shifted exponents.
        for n, zeta in [(8, 0.6), (16, 0.6), (48, 0.3), (48, 2.0), (100, 1.0)]:
            p = ChainParams(n, zeta)
            ham = build_hamiltonian(p)
            vec = bethe_vector(regularized_singular_pair(p), p)
            energy, _ = rayleigh_energy(vec, ham)
            assert energy == pytest.approx(-p.delta, rel=1e-14), (n, zeta)


class TestRegularizedSingularPair:
    @staticmethod
    def _formula(p, eps=None):
        """The displaced pair as formed before the underflow guard."""
        if eps is None:
            eps = oracle.SINGULAR_EPS * min(1.0, p.zeta)
        hz = 0.5j * p.zeta
        inv_r = (cmath.sin(eps) / cmath.sin(2.0 * hz + eps)) ** p.n
        d = cmath.atan(
            cmath.sin(4.0 * hz) * inv_r / (1.0 - cmath.cos(4.0 * hz) * inv_r)
        )
        return hz + eps, -hz + eps - d

    @pytest.mark.parametrize(
        "n,zeta", [(8, 0.6), (16, 0.6), (48, 2.0), (100, 1.0), (8, 300.0)]
    )
    def test_bit_identical_where_formula_returns(self, n, zeta):
        p = ChainParams(n, zeta)
        pair = regularized_singular_pair(p)
        assert (pair.lambda1, pair.lambda2) == self._formula(p)

    @pytest.mark.parametrize("zeta", [400.0, 709.78])
    def test_huge_zeta_has_no_displacement(self, zeta):
        # sin(2 i zeta) overflows here, but 1/R has long underflowed to 0.
        p = ChainParams(8, zeta)
        with pytest.raises(OverflowError):
            self._formula(p)
        pair = regularized_singular_pair(p)
        hz = 0.5j * zeta
        assert pair.lambda1 == hz + oracle.SINGULAR_EPS
        assert pair.lambda2 == -hz + oracle.SINGULAR_EPS

    @pytest.mark.parametrize("n,zeta", [(4, 1e-4), (10, 1e-5), (48, 1e-6)])
    def test_cross_check_holds_at_small_zeta(self, n, zeta):
        # The displaced pair's energy error grows like 2 (eps/zeta)^2, so a
        # fixed eps failed the cross-check below zeta of about 1e-4 with
        # every state matched; the default eps scales with zeta there.
        p = ChainParams(n, zeta)
        assert regularized_singular_pair(p).branch_meta["eps"] == (
            oracle.SINGULAR_EPS * zeta
        )
        match = completeness_check(p)
        assert len(match.entries) == n * (n - 1) // 2
        assert match.unavailable == ()


# The verify envelope, even N 4-200 x zeta in [1e-3, 5], stratified: each
# of the ten zeta of the solver envelopes at one N of 4-22 and one of
# 30-102, and six of them at one N of 116-200.  About 8 s on a 2-core
# machine; every even N 4-200 x the ten zeta is run outside tier-1.
VERIFY_ZETAS = (1e-3, 0.01, 0.05, 0.3, 0.6, 1.0, 2.0, 3.0, 4.5, 5.0)
VERIFY_LARGE_N = {1e-3: 200, 0.05: 176, 0.6: 152, 2.0: 128, 4.5: 116, 5.0: 188}
VERIFY_ENVELOPE = (
    [(4 + 2 * i, zeta) for i, zeta in enumerate(VERIFY_ZETAS)]
    + [(30 + 8 * i, zeta) for i, zeta in enumerate(VERIFY_ZETAS)]
    + [(n, zeta) for zeta, n in VERIFY_LARGE_N.items()]
)


class TestVerifyEnvelope:
    @pytest.mark.parametrize("n,zeta", VERIFY_ENVELOPE)
    def test_every_state_matched(self, n, zeta):
        match = completeness_check(ChainParams(n, zeta))
        assert len(match.entries) == match.dimension == n * (n - 1) // 2
        assert match.max_energy_error <= ENERGY_RTOL
        assert match.max_residual <= RESIDUAL_TOL
        assert match.unsolved == match.unavailable == ()


def _block_rank(q, p):
    """(k, rank): the label's own block and its ascending eigenvalue rank.

    Block k holds d = N/2 - (k mod 2) states.  A scattering label at its
    own level m takes rank d - 2 - (m - 1) // 2 if cos(pi k / N) > 0 and
    (m - 1) // 2 otherwise; every other kind takes the top rank d - 1.
    In block N/2 every state but the top one sits at -2 Delta, so its
    scattering ranks need no special case.
    """
    n = p.n
    k, kind, m, mirrored = block_address(q, p)
    if mirrored:
        k, m = -k % n, n - 2 - m
    if kind == "edge":
        k = 0
    d = n // 2 - k % 2
    if kind != "scattering":
        return k, d - 1
    j = (m - 1) // 2
    return k, (d - 2 - j if math.cos(math.pi * k / n) > 0 else j)


class TestBlockRank:
    @pytest.mark.parametrize("n,zeta", VERIFY_ENVELOPE[:20])
    def test_every_label_takes_its_own_rank(self, n, zeta):
        # Each solved pair's energy is the eigenvalue of its own block at
        # the rank its label gives, and no two labels share a slot.
        p = ChainParams(n, zeta)
        ham = build_hamiltonian(p)
        spectra = [np.linalg.eigvalsh(b) for b in momentum_blocks(ham)]
        pairs = enumerate_all(p)
        slots = set()
        for q, rap in zip(pairs, solve_quantum_pairs(pairs, p)):
            k, rank = _block_rank(q, p)
            slots.add((k, rank))
            if q.cls is SolutionClass.SINGULAR:
                vec = singular_vector(ham)
            else:
                vec = bethe_vector(rap, p)
            energy, _ = rayleigh_energy(vec, ham)
            want = spectra[k][rank]
            assert abs(energy - want) <= ENERGY_RTOL * max(1.0, abs(want)), (
                q.key(), k, rank, energy, want
            )
        assert len(slots) == len(pairs) == sum(map(len, spectra))


class TestCompleteness:
    @pytest.mark.parametrize(
        "n,zeta",
        [(4, 1.0), (8, 0.6), (16, 0.6), (22, 1e-3), (48, 0.3), (48, 2.0),
         (64, 2.0)],
    )
    def test_full_spectrum_matched(self, n, zeta):
        match = completeness_check(ChainParams(n, zeta))
        assert len(match.entries) == n * (n - 1) // 2
        assert match.max_energy_error < 1e-6
        assert match.max_residual < 1e-8

    def test_each_eigenvalue_used_once(self):
        match = completeness_check(P86)
        spec = sorted(exact_spectrum(build_hamiltonian(P86)))
        used = sorted(e.ed_energy for e in match.entries)
        assert np.allclose(used, spec)

    def test_unsolved_pairs_reported_and_rest_matched(self, fail_complex):
        # At (16, 0.6) the narrow pairs (+-9/2, +-9/2) are made to fail;
        # every other pair still solves and matches.
        fail_complex(lambda q: abs(q.j1) == abs(q.j2) == HalfInt(9))
        p = ChainParams(16, 0.6)
        with pytest.raises(IncompleteSpectrum) as info:
            completeness_check(p)
        match = info.value.match
        assert sorted((str(q.j1), str(q.j2)) for q, _ in match.unsolved) == [
            ("-9/2", "-9/2"), ("9/2", "9/2")
        ]
        assert len(match.entries) == 118
        assert match.max_energy_error < 1e-6
        assert match.max_residual < 1e-8
        assert "2 pairs unsolved" in str(info.value)

    @pytest.mark.parametrize("which", [0, 1])
    def test_nan_energy_or_residual_fails(self, which, monkeypatch):
        # A NaN compares false both ways, so `x > tol` would let it pass.
        rayleigh, calls = oracle.rayleigh_energy, []

        def nan_for_the_first_vector(vec, ham):
            out = list(rayleigh(vec, ham))
            if not calls:
                out[which] = math.nan
            calls.append(vec)
            return tuple(out)

        monkeypatch.setattr(oracle, "rayleigh_energy", nan_for_the_first_vector)
        with pytest.raises(IncompleteSpectrum, match="nan"):
            completeness_check(P86)

    def test_regularized_cross_check_reported_unavailable(self):
        # From zeta of about 695 the displaced singular rapidity overflows
        # its momentum, and the regularized assembly is not finite.
        assert completeness_check(P86).unavailable == ()
        match = completeness_check(ChainParams(8, 700.0))
        (note,) = match.unavailable
        assert note.startswith("regularized singular cross-check unavailable")
        assert len(match.entries) == 28

    def test_debug_line_counts_block_and_full_space_vectors(self, caplog):
        # 27 solved pairs and the singular vector in their blocks; the
        # regularized singular cross-check over the full sector.
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz.oracle"):
            completeness_check(P86)
        lines = [
            r.getMessage() for r in caplog.records
            if r.name == "bethe_xxz.oracle"
        ]
        assert lines == [
            "verify N=8 zeta=0.6: 28 block vectors, 1 full-space vectors"
        ]
