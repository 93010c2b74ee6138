"""Independent verification by exact diagonalization in momentum blocks.

The two down-spin sector (dimension N(N-1)/2) commutes with translations,
so it splits into N real tridiagonal blocks, one per total momentum
K = 2 pi k / N (Karbach & Mueller, arXiv:cond-mat/9809162); the exact
spectrum is the union of their eigenvalues.  Every solved rapidity pair is
turned into a coordinate-ansatz wavefunction, assembled in Bloch form
A(x1, x1 + r) = e^{iK x1} phi(r) from O(N) exponentials; its Rayleigh
quotient must both be an eigenvalue and leave a tiny eigen-residual in the
full sector, where H v is an O(dim) neighbour stencil.  Matching the full
multiset of energies against the exact spectrum is the completeness check.
No dense matrix is formed unless `SectorHamiltonian.matrix` is read.
"""
from __future__ import annotations

import bisect as _bisect
import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dispatch import solve_quantum_pairs
from .model import (
    BetheError,
    ChainParams,
    DimensionOverflow,
    IncompleteSpectrum,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    ZeroVector,
)
from .quantum_numbers import enumerate_all
from .string_solver import bound_state_momenta

# The dense float64 view `SectorHamiltonian.matrix` takes dim^2 * 8 bytes.
# Nothing in the package reads it (the spectrum comes from momentum blocks);
# the cap bounds only that view, for callers that do (dim <= 11585).
MAX_DENSE_BYTES = 2**30
DEFAULT_MAX_DIM = math.isqrt(MAX_DENSE_BYTES // 8)
NORM_TOL = 1e-10
ENERGY_RTOL = 1e-6
RESIDUAL_TOL = 1e-8
SINGULAR_ENERGY_RTOL = 1e-4
SINGULAR_RESIDUAL_TOL = 1e-4
SINGULAR_EPS = 1e-6


@dataclass(frozen=True)
class SectorHamiltonian:
    """Hamiltonian restricted to two down-spins on a periodic chain.

    `diagonal` and `hops` are the neighbour stencil: column j of the
    (4, dim) array `hops` holds the basis indices reached from state j by
    one hop of amplitude 1/2, padded with `dimension` where a hop is
    blocked.  `matrix` is the same operator, dense, built on first read.
    """

    n: int
    delta: float
    dimension: int
    diagonal: np.ndarray
    hops: np.ndarray

    def apply(self, v):
        """H v through the stencil, in O(dim)."""
        # One gather of the four hop rows, summed; a padding zero absorbs the
        # blocked hops, which point at `dimension`.
        padded = np.append(v, 0.0)
        return self.diagonal * v + 0.5 * padded[self.hops].sum(axis=0)

    @cached_property
    def matrix(self):
        """Dense H (dim^2 float64), derived from the stencil when read."""
        h = np.diag(self.diagonal)
        rows = np.broadcast_to(np.arange(self.dimension), self.hops.shape)
        open_ = self.hops < self.dimension
        np.add.at(h, (rows[open_], self.hops[open_]), 0.5)
        return h


@dataclass(frozen=True)
class BetheVector:
    """Normalized coordinate-ansatz amplitudes over the sector basis.

    `norm` is taken before normalizing, with the largest plane-wave term
    scaled to modulus 1.
    """

    amplitudes: np.ndarray
    norm: float


@dataclass(frozen=True)
class MatchEntry:
    pair: QuantumPair
    rapidities: RapidityPair
    energy: float
    ed_energy: float
    energy_error: float
    residual: float


@dataclass(frozen=True)
class SpectrumMatch:
    params: ChainParams
    dimension: int
    entries: tuple
    max_energy_error: float
    max_residual: float
    unsolved: tuple  # (QuantumPair, BetheError) for pairs with no vector
    unavailable: tuple = ()  # cross-checks that could not be made, why


def _index(n, x1, x2):
    """Position of |x1 < x2> in the basis order of np.triu_indices(n, 1)."""
    return x1 * (2 * n - x1 - 1) // 2 + x2 - x1 - 1


@lru_cache(maxsize=8)
def _bloch_coordinates(n):
    """Exponent grids and per-state gather indices of the two Bloch forms.

    Each grid holds the Bloch factor's sites (x1 = 0..N-2, or x2 = 1..N-1)
    and twice the r = 1..N-1 of phi's two plane waves; x1, x2 - 1 and r - 1
    index them for each basis state |x1, x2>, in basis order.
    """
    x1, x2 = np.triu_indices(n, 1)
    steps = np.arange(1, n)
    arrays = (
        np.stack([steps - 1, steps, steps]),
        np.stack([steps, steps, steps]),
        x1,
        x2 - 1,
        x2 - x1 - 1,
    )
    for array in arrays:  # shared by every caller through the cache
        array.flags.writeable = False
    return arrays


def build_hamiltonian(p: ChainParams, max_dim=DEFAULT_MAX_DIM):
    """Sector Hamiltonian over basis states |x1 < x2>, as a stencil.

    The states are in the order of np.triu_indices(N, 1).

    Each state hops to at most four neighbours, so H v is an O(dim) stencil
    apply; the dense matrix is derived from the same stencil only when
    `matrix` is read.
    """
    n = p.n
    dim = n * (n - 1) // 2
    if dim > max_dim:
        raise DimensionOverflow(
            f"sector dimension {dim} exceeds cap {max_dim}: its dense "
            f"matrix would take {dim * dim * 8} bytes"
        )
    x1, x2 = np.triu_indices(n, 1)
    delta = p.delta
    # Each bond with anti-aligned spins contributes -delta/2 (the aligned
    # ones cancel against the identity shift): adjacent down-spins touch two
    # such bonds, separated ones four.
    adjacent = (x2 - x1 == 1) | (x2 - x1 == n - 1)
    diagonal = np.where(adjacent, -delta, -2.0 * delta)
    # Hopping: amplitude 1/2 for moving one down-spin across a bond, blocked
    # when the target site holds the other one.
    a = np.stack([(x1 + 1) % n, (x1 - 1) % n, x1, x1])
    b = np.stack([x2, x2, (x2 + 1) % n, (x2 - 1) % n])
    hops = np.where(
        a == b, dim, _index(n, np.minimum(a, b), np.maximum(a, b))
    )
    return SectorHamiltonian(
        n=n,
        delta=delta,
        dimension=dim,
        diagonal=diagonal,
        hops=hops,
    )


def momentum_blocks(ham: SectorHamiltonian):
    """The N real tridiagonal blocks of H, block k at momentum 2 pi k / N.

    Block k acts on the relative distance r = x2 - x1 folded to
    1 <= r <= N/2.  Its two hops of amplitude 1/2 combine into the link
    c = |cos(pi k / N)|; for even k the r = N/2 state is its own mirror,
    so its link carries sqrt(2), and for odd k that state cancels.
    """
    n, half = ham.n, ham.n // 2
    blocks = []
    for k in range(n):
        size = half - k % 2
        block = np.diag(np.full(size, -2.0 * ham.delta))
        block[0, 0] = -ham.delta
        links = np.full(size - 1, abs(math.cos(math.pi * k / n)))
        if k % 2 == 0:
            links[-1] *= math.sqrt(2.0)
        r = np.arange(size - 1)
        block[r, r + 1] = block[r + 1, r] = links
        blocks.append(block)
    return blocks


def exact_spectrum(ham: SectorHamiltonian):
    """Sorted eigenvalues of the sector Hamiltonian, block by block."""
    blocks = momentum_blocks(ham)
    # Blocks of one parity share a size, so each parity is one stacked call.
    stacks = [np.stack(blocks[k::2]) for k in (0, 1)]
    return np.sort(
        np.concatenate([np.linalg.eigvalsh(stack).ravel() for stack in stacks])
    )


def _momentum(lam, p: ChainParams):
    hz = 0.5j * p.zeta
    num, den = cmath.sin(lam + hz), cmath.sin(lam - hz)
    if num == 0 or den == 0:
        raise ZeroVector(f"rapidity {lam!r} sits on a pole, +-i zeta/2")
    return -1j * cmath.log(num / den)


def _momenta(pair: RapidityPair, p: ChainParams):
    """Momenta p1, p2 of a pair and the log of its scattering factor S.

    With amplitudes e^{i(p1 x1 + p2 x2)} + S e^{i(p2 x1 + p1 x2)} on
    x1 < x2, periodicity fixes S = e^{i N p2}.  A pair solved in its
    momentum block takes its momenta from the block root (for a bound
    state, S from lambda is a ratio of two nearly vanishing terms).  Other
    pairs take their momenta from lambda, with S from the two-body
    scattering amplitude, which carries the momentum of the particle
    crossing from the right (p2) in the numerator.
    """
    momenta = bound_state_momenta(pair, p)
    if momenta is not None:
        p1, p2 = momenta
        return p1, p2, 1j * p.n * p2
    p1 = _momentum(pair.lambda1, p)
    p2 = _momentum(pair.lambda2, p)
    e1, e2 = cmath.exp(1j * p1), cmath.exp(1j * p2)
    e12 = e1 * e2
    num = e12 - 2.0 * p.delta * e2 + 1.0
    den = e12 - 2.0 * p.delta * e1 + 1.0
    if abs(den) < 1e-300 or num == 0:
        raise ZeroVector("scattering amplitude vanished or diverged")
    return p1, p2, cmath.log(-num) - cmath.log(den)


def bethe_vector(pair: RapidityPair, p: ChainParams):
    """Two-magnon coordinate-ansatz amplitudes for a rapidity pair."""
    p1, p2, log_s = _momenta(pair, p)
    # Bloch form, with r = x2 - x1 and total momentum K = p1 + p2:
    #   A = e^{iK x1} (e^{i p2 r} + S e^{i p1 r})
    #     = e^{iK x2} (e^{-i p1 r} + S e^{-i p2 r}).
    # Complex momenta make the plane waves span an exponential range, so each
    # factor is shifted to put its largest term at modulus 1 before
    # exponentiating.  |e^{iKx}| peaks at x1 = 0 when Im K >= 0 and at
    # x2 = N - 1 otherwise; every r meets that site, so the largest amplitude
    # lands at modulus 1 too and `norm` keeps its meaning.
    k = p1 + p2
    by_x1, by_x2, x1, x2, r = _bloch_coordinates(p.n)
    if k.imag >= 0:
        grid, site, momenta = by_x1, x1, (k, p2, p1)
    else:
        grid, site, momenta = by_x2, x2, (k, -p1, -p2)
    waves = 1j * np.array(momenta)[:, None] * grid
    waves[2] += log_s
    top = waves.real.max(axis=1)
    waves[0] -= top[0]
    waves[1:] -= max(top[1], top[2])
    bloch, direct, exchanged = np.exp(waves, out=waves)
    amplitudes = bloch[site] * (direct + exchanged)[r]
    norm = float(np.linalg.norm(amplitudes))
    if not NORM_TOL <= norm < math.inf:
        raise ZeroVector(
            f"assembled wavefunction has norm {norm!r}, outside "
            f"[{NORM_TOL!r}, inf)"
        )
    amplitudes /= norm
    return BetheVector(amplitudes=amplitudes, norm=norm)


def rayleigh_energy(vec: BetheVector, ham: SectorHamiltonian):
    """Rayleigh quotient and relative eigen-residual of a unit vector.

    The residual |H v - E v| is divided by max(1, |E|), as the energy error
    is: at strong anisotropy H scales like Delta, and the unscaled residual
    measures only its rounding (or overflows in the norm).
    """
    v = vec.amplitudes
    hv = ham.apply(v)
    energy = float(np.real(np.vdot(v, hv)))
    scale = max(1.0, abs(energy))
    residual = float(np.linalg.norm((hv - energy * v) / scale))
    return energy, residual


def regularized_singular_pair(p: ChainParams, eps=SINGULAR_EPS):
    """Slightly displaced singular rapidities with the first equation kept.

    The displacement of the second rapidity is eps minus a first-order
    correction d chosen so the displaced pair still satisfies the first
    product-form equation to second order in eps.
    """
    hz = 0.5j * p.zeta
    # 1/R with R = (sin(i zeta + eps) / sin eps)^N: R overflows at large
    # N zeta, while 1/R underflows harmlessly to zero, and so does d; the
    # sin(2 i zeta) of the formula would overflow from zeta of about 355.
    inv_r = (cmath.sin(eps) / cmath.sin(2.0 * hz + eps)) ** p.n
    d = 0.0
    if inv_r != 0:
        d = cmath.atan(
            cmath.sin(4.0 * hz) * inv_r / (1.0 - cmath.cos(4.0 * hz) * inv_r)
        )
    lam1 = hz + eps
    lam2 = -hz + eps - d
    return RapidityPair(
        lambda1=lam1,
        lambda2=lam2,
        residual=None,
        iterations=0,
        branch_meta={"method": "singular_regularized", "eps": eps},
    )


def singular_vector(ham: SectorHamiltonian):
    """Closed-form eigenvector carried by the singular pair.

    Alternating amplitudes (-1)^x1 on nearest-neighbour configurations
    (x, x+1), with -1 on the wrap pair (0, N-1); an exact eigenvector at
    energy -Delta for every even N.  Used for the eigen-residual check: the
    regularized coordinate assembly spans a dynamic range of eps^-(N-2) and
    cannot reach small residuals in double precision, although its Rayleigh
    energy does converge and is cross-checked against this vector's.
    """
    n = ham.n
    x = np.arange(n - 1)
    amplitudes = np.zeros(ham.dimension, dtype=complex)
    amplitudes[_index(n, x, x + 1)] = (-1.0) ** x
    amplitudes[_index(n, 0, n - 1)] = -1.0
    norm = float(np.linalg.norm(amplitudes))
    return BetheVector(amplitudes=amplitudes / norm, norm=norm)


def _tolerances_for(q: QuantumPair):
    if q.cls is SolutionClass.SINGULAR:
        return SINGULAR_ENERGY_RTOL, SINGULAR_RESIDUAL_TOL
    return ENERGY_RTOL, RESIDUAL_TOL


def completeness_check(p: ChainParams, max_dim=DEFAULT_MAX_DIM):
    """Match the energies of every enumerated pair against the ED spectrum.

    Greedy nearest-value matching over the sorted exact spectrum, each
    eigenvalue usable once; degenerate eigenvalues are therefore matched as
    a multiset.  A pair whose solve or vector raises BetheError is recorded
    as unsolved and the others are still matched.  Raises IncompleteSpectrum
    (with the partial match attached) on any unsolved pair, unmatched
    eigenvalue, oversize energy error, or oversize eigen-residual.  Every
    gate is written so that a NaN fails it.
    """
    ham = build_hamiltonian(p, max_dim=max_dim)
    available = list(exact_spectrum(ham))
    solved = []
    unsolved = []
    failures = []
    unavailable = []
    pairs = enumerate_all(p)
    for q, rap in zip(pairs, solve_quantum_pairs(pairs, p)):
        if isinstance(rap, BetheError):
            unsolved.append((q, rap))
            continue
        try:
            if q.cls is SolutionClass.SINGULAR:
                vec = singular_vector(ham)
                energy, residual = rayleigh_energy(vec, ham)
                # Cross-check: the regularized coordinate assembly must agree
                # on the energy even though its eigen-residual is
                # uninformative.  At huge zeta its displaced rapidity
                # overflows the momentum and the assembly is not finite:
                # there is nothing to compare.
                try:
                    reg_vec = bethe_vector(regularized_singular_pair(p), p)
                except ZeroVector as exc:
                    unavailable.append(
                        f"regularized singular cross-check unavailable: {exc}"
                    )
                else:
                    reg_energy, _ = rayleigh_energy(reg_vec, ham)
                    if not abs(reg_energy - energy) <= SINGULAR_ENERGY_RTOL * (
                        max(1.0, abs(energy))
                    ):
                        failures.append(
                            f"regularized singular energy {reg_energy!r} "
                            f"disagrees with {energy!r}"
                        )
            else:
                vec = bethe_vector(rap, p)
                energy, residual = rayleigh_energy(vec, ham)
        except BetheError as exc:
            unsolved.append((q, exc))
            continue
        solved.append((q, rap, energy, residual))
    if unsolved:
        failures.append(
            f"{len(unsolved)} pairs unsolved: "
            + ", ".join(
                f"({q.j1},{q.j2}) {q.cls.value} {type(exc).__name__}"
                for q, exc in unsolved
            )
        )

    entries = []
    max_err = max_res = 0.0
    for q, rap, energy, residual in sorted(solved, key=lambda item: item[2]):
        k = _bisect.bisect_left(available, energy)
        candidates = [i for i in (k - 1, k) if 0 <= i < len(available)]
        if not candidates:
            failures.append(f"no eigenvalue left for {q.j1},{q.j2}")
            continue
        best = min(candidates, key=lambda i: abs(available[i] - energy))
        ed_energy = available.pop(best)
        err = abs(energy - ed_energy) / max(1.0, abs(ed_energy))
        entries.append(
            MatchEntry(
                pair=q,
                rapidities=rap,
                energy=energy,
                ed_energy=ed_energy,
                energy_error=err,
                residual=residual,
            )
        )
        energy_rtol, residual_tol = _tolerances_for(q)
        if not err <= energy_rtol:
            failures.append(
                f"({q.j1},{q.j2}) energy {energy!r} vs {ed_energy!r} "
                f"(relative error {err!r})"
            )
        if not residual <= residual_tol:
            failures.append(
                f"({q.j1},{q.j2}) eigen-residual {residual!r}"
            )
        max_err = max(max_err, err)
        max_res = max(max_res, residual)
    match = SpectrumMatch(
        params=p,
        dimension=ham.dimension,
        entries=tuple(entries),
        max_energy_error=max_err,
        max_residual=max_res,
        unsolved=tuple(unsolved),
        unavailable=tuple(unavailable),
    )
    if available:
        failures.append(f"{len(available)} eigenvalues left unmatched")
    if failures:
        raise IncompleteSpectrum("; ".join(failures), match=match)
    return match
