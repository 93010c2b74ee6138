"""Independent verification by exact diagonalization in momentum blocks.

The two down-spin sector (dimension N(N-1)/2) commutes with translations,
so it splits into N real tridiagonal blocks, one per total momentum
K = 2 pi k / N (Karbach & Mueller, arXiv:cond-mat/9809162); the exact
spectrum is the union of their eigenvalues.  Every solved rapidity pair is
turned into a coordinate-ansatz wavefunction.  A pair whose K is a block
momentum is a Bloch state, A(x1, x1 + r) = e^{iK x1} phi(r), and its
vector is its N/2 - (k mod 2) amplitudes in block k; its Rayleigh
quotient and eigen-residual come from that block's tridiagonal operator,
in O(N).  Any other pair is assembled over the full sector, where H v is
an O(dim) neighbour stencil.  Matching the full multiset of energies
against the exact spectrum is the completeness check.  No dense matrix is
formed unless `SectorHamiltonian.matrix` is read.
"""
from __future__ import annotations

import bisect as _bisect
import cmath
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dispatch import solve_quantum_pairs
from .model import (
    BetheError,
    ChainParams,
    IncompleteSpectrum,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    ZeroVector,
)
from .quantum_numbers import enumerate_all
from .string_solver import _block_momentum

NORM_TOL = 1e-10
ENERGY_RTOL = 1e-6
RESIDUAL_TOL = 1e-8
SINGULAR_ENERGY_RTOL = 1e-4
SINGULAR_RESIDUAL_TOL = 1e-4
SINGULAR_EPS = 1e-6
# A pair is a Bloch state of block k when its total momentum K lies within
# this many block spacings 2 pi / N of 2 pi k / N.  Solved pairs sit at
# rounding (at most 5.7e-14 spacings over even N 4-200 and zeta 1e-3 to
# 300); the regularized singular pair, the one vector per sector that must
# be assembled over the full sector, sits 1.3e-6 to 6.4e-2 spacings off.
BLOCK_TOL = 1e-9

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SectorHamiltonian:
    """Hamiltonian restricted to two down-spins on a periodic chain.

    `diagonal` and `hops` are the neighbour stencil: column j of the
    (4, dim) array `hops` holds the basis indices reached from state j by
    one hop of amplitude 1/2, padded with `dimension` where a hop is
    blocked.  `blocks` is the same operator split by total momentum, and
    `matrix` the same operator, dense.
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
        """Dense H (dim^2 float64), derived from the stencil when read.

        Nothing in src/ reads it; the tests and bench/ do.
        """
        h = np.diag(self.diagonal)
        rows = np.broadcast_to(np.arange(self.dimension), self.hops.shape)
        open_ = self.hops < self.dimension
        np.add.at(h, (rows[open_], self.hops[open_]), 0.5)
        return h

    @cached_property
    def blocks(self):
        """(diagonal, links) of the N tridiagonal momentum blocks.

        Block k, at total momentum 2 pi k / N, acts on the relative
        distance r = x2 - x1 folded to 1 <= r <= N/2: its diagonal is
        -Delta at r = 1 and -2 Delta elsewhere, and the two hops of
        amplitude 1/2 between r and r + 1 combine into the link
        c = |cos(pi k / N)|.  For even k the r = N/2 state is its own
        mirror, so its link carries sqrt(2); for odd k that state cancels.
        """
        n, half = self.n, self.n // 2
        blocks = []
        for k in range(n):
            diagonal = np.full(half - k % 2, -2.0 * self.delta)
            diagonal[0] = -self.delta
            links = np.full(len(diagonal) - 1, abs(math.cos(math.pi * k / n)))
            if k % 2 == 0:
                links[-1] *= math.sqrt(2.0)
            for array in (diagonal, links):  # shared by every caller
                array.flags.writeable = False
            blocks.append((diagonal, links))
        return tuple(blocks)


@dataclass(frozen=True)
class BetheVector:
    """Normalized coordinate-ansatz amplitudes.

    With `k` None, over the sector basis; with `k` an int, over the basis
    r = 1 ... N/2 - (k mod 2) of momentum block k (see `bethe_vector`).
    `norm` is the norm over the sector basis, taken before normalizing,
    with the largest plane-wave term scaled to modulus 1.
    """

    amplitudes: np.ndarray
    norm: float
    k: int | None = None


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


def _bloch_coordinates(n):
    """Exponent grids and per-state gather indices of the two Bloch forms.

    Each grid holds the Bloch factor's sites (x1 = 0..N-2, or x2 = 1..N-1)
    and twice the r = 1..N-1 of phi's two plane waves; x1, x2 - 1 and r - 1
    index them for each basis state |x1, x2>, in basis order.
    """
    x1, x2 = np.triu_indices(n, 1)
    steps = np.arange(1, n)
    return (
        np.stack([steps - 1, steps, steps]),
        np.stack([steps, steps, steps]),
        x1,
        x2 - 1,
        x2 - x1 - 1,
    )


def build_hamiltonian(p: ChainParams):
    """Sector Hamiltonian over basis states |x1 < x2>, as a stencil.

    The states are in the order of np.triu_indices(N, 1).

    Each state hops to at most four neighbours, so H v is an O(dim) stencil
    apply; the dense matrix is derived from the same stencil only when
    `matrix` is read.
    """
    n = p.n
    dim = n * (n - 1) // 2
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
    """The N real tridiagonal blocks of H (`ham.blocks`), as dense arrays."""
    return [
        np.diag(diagonal) + np.diag(links, 1) + np.diag(links, -1)
        for diagonal, links in ham.blocks
    ]


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
    x1 < x2, periodicity fixes S = e^{i N p2}.  A solved pair carries the
    momenta its solver found (for a bound state, S from lambda is a ratio
    of two nearly vanishing terms).  Only the regularized singular pair and
    pairs built by the caller take their momenta from lambda, with S from
    the two-body scattering amplitude, which carries the momentum of the
    particle crossing from the right (p2) in the numerator.
    """
    if pair.momenta is not None:
        p1, p2 = map(complex, pair.momenta)
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


def _block_of(total, n):
    """k if the total momentum is 2 pi k / N to within BLOCK_TOL, else None."""
    steps = total * (n / (2.0 * math.pi))
    k = round(steps.real)
    if abs(steps - k) > BLOCK_TOL:
        return None
    return k % n


def bethe_vector(pair: RapidityPair, p: ChainParams):
    """Two-magnon coordinate-ansatz amplitudes for a rapidity pair.

    A pair whose total momentum is a block momentum 2 pi k / N (every
    solved pair) gets its unit amplitudes in block k; any other pair gets
    its amplitudes over the full sector, with k None.
    """
    p1, p2, log_s = _momenta(pair, p)
    total = p1 + p2
    if not (cmath.isfinite(total) and cmath.isfinite(log_s)):
        raise ZeroVector(
            f"momenta {p1!r}, {p2!r} or scattering log {log_s!r} not finite"
        )
    k = _block_of(total, p.n)
    if k is None:
        amplitudes = _sector_amplitudes(p1, p2, log_s, p.n)
        scale = 1.0
    else:
        amplitudes = _block_amplitudes(p1, p2, log_s, k, p.n)
        scale = math.sqrt(p.n)  # left out of every block amplitude
    norm = scale * _norm(amplitudes)
    if not NORM_TOL <= norm < math.inf:
        raise ZeroVector(
            f"assembled wavefunction has norm {norm!r}, outside "
            f"[{NORM_TOL!r}, inf)"
        )
    amplitudes /= norm / scale
    return BetheVector(amplitudes=amplitudes, norm=norm, k=k)


def _block_amplitudes(p1, p2, log_s, k, n):
    """phi(r) of a Bloch state, gauged and folded into the basis of block k.

    phi(r) = e^{i p2 r} + S e^{i p1 r}, with the largest plane-wave term
    over r = 1 ... N - 1 at modulus 1.  With a = K/2 folded so that
    cos a >= 0 (the sign of block k's links), the block amplitude is
    e^{-i a r} phi(r) for r = 1 ... N/2 - (k mod 2), and 1/sqrt(2) of it
    at r = N/2 for even k: r and N - r carry the same state, and r = N/2
    only once.  Returned without the common factor sqrt(N).
    """
    a = _block_momentum(k, n)
    # |e^{i p r}| is monotonic in r, so each wave peaks at r = 1 or N - 1.
    shift = max(
        max(-p2.imag, -p2.imag * (n - 1)),
        log_s.real + max(-p1.imag, -p1.imag * (n - 1)),
    )
    r = np.arange(1.0, n // 2 + 1 - k % 2)
    amplitudes = np.exp((1j * (p2 - a)) * r - shift)
    amplitudes += np.exp((1j * (p1 - a)) * r + (log_s - shift))
    if k % 2 == 0:
        amplitudes[-1] *= math.sqrt(0.5)
    return amplitudes


def _sector_amplitudes(p1, p2, log_s, n):
    """Amplitudes of a pair over the full sector, in basis order."""
    # Bloch form, with r = x2 - x1 and total momentum K = p1 + p2:
    #   A = e^{iK x1} (e^{i p2 r} + S e^{i p1 r})
    #     = e^{iK x2} (e^{-i p1 r} + S e^{-i p2 r}).
    # Complex momenta make the plane waves span an exponential range, so each
    # factor is shifted to put its largest term at modulus 1 before
    # exponentiating.  |e^{iKx}| peaks at x1 = 0 when Im K >= 0 and at
    # x2 = N - 1 otherwise; every r meets that site, so the largest amplitude
    # lands at modulus 1 too and `norm` keeps its meaning.
    total = p1 + p2
    by_x1, by_x2, x1, x2, r = _bloch_coordinates(n)
    if total.imag >= 0:
        grid, site, momenta = by_x1, x1, (total, p2, p1)
    else:
        grid, site, momenta = by_x2, x2, (total, -p1, -p2)
    waves = 1j * np.array(momenta)[:, None] * grid
    waves[2] += log_s
    top = waves.real.max(axis=1)
    waves[0] -= top[0]
    waves[1:] -= max(top[1], top[2])
    bloch, direct, exchanged = np.exp(waves, out=waves)
    return bloch[site] * (direct + exchanged)[r]


def rayleigh_energy(vec: BetheVector, ham: SectorHamiltonian):
    """Rayleigh quotient and relative eigen-residual of a unit vector.

    A block vector is applied to its block's tridiagonal operator, in
    O(N); a full-sector vector to the O(dim) stencil.  The residual
    |H v - E v| is divided by max(1, |E|), as the energy error is: at
    strong anisotropy H scales like Delta, and the unscaled residual
    measures only its rounding (or overflows in the norm).
    """
    v = vec.amplitudes
    if vec.k is None:
        hv = ham.apply(v)
    else:
        diagonal, links = ham.blocks[vec.k]
        hv = diagonal * v
        hv[:-1] += links * v[1:]
        hv[1:] += links * v[:-1]
    energy = float(np.vdot(v, hv).real)
    hv -= energy * v
    hv /= max(1.0, abs(energy))
    return energy, _norm(hv)


def _norm(v):
    """Euclidean norm of a complex vector; NaN if it holds a NaN."""
    return math.sqrt(np.vdot(v, v).real)


def regularized_singular_pair(p: ChainParams, eps=None):
    """Slightly displaced singular rapidities with the first equation kept.

    The displacement of the second rapidity is eps minus a first-order
    correction d chosen so the displaced pair still satisfies the first
    product-form equation to second order in eps, by default
    SINGULAR_EPS * min(1, zeta): the energy error grows like 2 (eps/zeta)^2.
    """
    eps = SINGULAR_EPS * min(1.0, p.zeta) if eps is None else eps
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
    (x, x+1), with -1 on the wrap pair (0, N-1): the Bloch state of block
    N/2 (c = 0) at r = 1, an exact eigenvector at energy -Delta for every
    even N, with norm sqrt(N) over the sector.  Used for the eigen-residual
    check: the regularized coordinate assembly spans a dynamic range of
    eps^-(N-2) and cannot reach small residuals in double precision,
    although its Rayleigh energy does converge and is cross-checked against
    this vector's.
    """
    k = ham.n // 2
    amplitudes = np.zeros(k - k % 2, dtype=complex)
    amplitudes[0] = 1.0
    return BetheVector(amplitudes=amplitudes, norm=math.sqrt(ham.n), k=k)


def _tolerances_for(q: QuantumPair):
    if q.cls is SolutionClass.SINGULAR:
        return SINGULAR_ENERGY_RTOL, SINGULAR_RESIDUAL_TOL
    return ENERGY_RTOL, RESIDUAL_TOL


def completeness_check(p: ChainParams):
    """Match the energies of every enumerated pair against the ED spectrum.

    Greedy nearest-value matching over the sorted exact spectrum, each
    eigenvalue usable once; degenerate eigenvalues are therefore matched as
    a multiset.  A pair whose solve or vector raises BetheError is recorded
    as unsolved and the others are still matched.  Raises IncompleteSpectrum
    (with the partial match attached) on any unsolved pair, unmatched
    eigenvalue, oversize energy error, or oversize eigen-residual.  Every
    gate is written so that a NaN fails it.
    """
    ham = build_hamiltonian(p)
    available = list(exact_spectrum(ham))
    solved = []
    unsolved = []
    failures = []
    unavailable = []
    vector_blocks = []  # k of every vector built, None for the sector
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
                    vector_blocks.append(reg_vec.k)
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
        vector_blocks.append(vec.k)
    full = vector_blocks.count(None)
    log.debug(
        "verify N=%d zeta=%r: %d block vectors, %d full-space vectors",
        p.n, p.zeta, len(vector_blocks) - full, full,
    )
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
