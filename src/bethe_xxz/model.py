"""Core domain types and shared evaluations for the two down-spin sector.

Everything here is an immutable value or a pure function, the rapidity
maps of the momentum-block frame included; the solver modules and the
oracle build on these primitives.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, total_ordering

POLE_TOL = 1e-14
# The largest zeta whose 2 Delta = 2 cosh(zeta), the sector Hamiltonian's
# diagonal, is a finite float.
MAX_ZETA = math.acosh(sys.float_info.max / 2.0)


class BetheError(Exception):
    """Base class for all domain errors raised by this package."""


class PoleEncountered(BetheError):
    """A denominator of the product-form equations is numerically zero."""


class BoundaryDegenerate(BetheError):
    """The parameters sit exactly on a regime boundary; no side is chosen."""


class AtDiscontinuity(BetheError):
    """mu1 coincides with a discontinuity point of the second-rapidity map."""


class NoRootInInterval(BetheError):
    """No sign change found for the discontinuity-point equation."""


class NoRootInBracket(BetheError):
    """The height function never attains the requested value on the contour."""


class NoRootOnBranch(BetheError):
    """The complex counting function never attains the requested value."""


class NoRealSolution(BetheError):
    """The equal-quantum-number counting function has no real root here."""


class ToleranceNotReached(BetheError):
    """A solver converged in abscissa but the residual check failed."""


class NegativeTanSquare(BetheError):
    """The closed form produced tan^2 < 0: no real string center exists."""


class NegativeDiscriminant(BetheError):
    """The quadratic for the string center has no real root."""


class DenominatorVanishes(BetheError):
    """A closed-form denominator is numerically zero."""


class ZeroVector(BetheError):
    """A wavefunction assembly gave a numerically null or non-finite vector."""


class OutsideSqueeze(BetheError):
    """A traced family rapidity lies outside its small-anisotropy window."""


class IncompleteSpectrum(BetheError):
    """Spectrum matching left unmatched eigenvalues or oversize residuals."""

    def __init__(self, message, match=None):
        super().__init__(message)
        self.match = match


@total_ordering
@dataclass(frozen=True)
class HalfInt:
    """Exact half-integer, stored as the doubled value.

    Quantum numbers must compare exactly, so they are never floats.
    """

    twice: int

    @classmethod
    def from_fraction(cls, value):
        frac = Fraction(value)
        if frac.denominator not in (1, 2):
            raise ValueError(f"not a half-integer: {value!r}")
        return cls(int(frac * 2))

    @classmethod
    def parse(cls, text):
        """Parse strings like '7/2', '-5/2' or '3'."""
        return cls.from_fraction(Fraction(text.strip()))

    def __float__(self):
        return self.twice / 2.0

    def __neg__(self):
        return HalfInt(-self.twice)

    def __abs__(self):
        return HalfInt(abs(self.twice))

    def _twice_of(self, other):
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return None

    def __add__(self, other):
        tw = self._twice_of(other)
        if tw is None:
            return NotImplemented
        return HalfInt(self.twice + tw)

    __radd__ = __add__

    def __sub__(self, other):
        tw = self._twice_of(other)
        if tw is None:
            return NotImplemented
        return HalfInt(self.twice - tw)

    def __eq__(self, other):
        tw = self._twice_of(other)
        if tw is None:
            return float(self) == other
        return self.twice == tw

    def __lt__(self, other):
        tw = self._twice_of(other)
        if tw is None:
            return float(self) < other
        return self.twice < tw

    def __hash__(self):
        # Equal to the hash of the int or float it compares equal to.
        return hash(self.twice / 2)

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice})"


@dataclass(frozen=True)
class ChainParams:
    """Chain size and anisotropy of the massive regime."""

    n: int
    zeta: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError("site number must be even and at least 4")
        if not self.zeta > 0:
            raise ValueError("anisotropy parameter must be positive")
        if not self.zeta <= MAX_ZETA:
            raise ValueError(
                f"anisotropy parameter must be finite and at most "
                f"{MAX_ZETA!r}; 2 cosh(zeta) overflows above it"
            )

    @property
    def delta(self):
        """Anisotropy Delta = cosh(zeta) > 1."""
        return math.cosh(self.zeta)

    @cached_property
    def t(self):
        """Shorthand t = tanh(zeta/2), in (0, 1); cached per instance."""
        return math.tanh(self.zeta / 2.0)


class SolutionClass(Enum):
    STANDARD_REAL = "standard_real"
    INFINITE_FAMILY_REAL = "infinite_family_real"
    EQUAL_QN_REAL = "equal_qn_real"
    NARROW_PAIR_COMPLEX = "narrow_pair_complex"
    WIDE_PAIR_COMPLEX = "wide_pair_complex"
    EXTRA_TWO_STRING = "extra_two_string"
    SINGULAR = "singular"

    @property
    def is_real(self):
        return self in _REAL_CLASSES

    @property
    def is_complex(self):
        return self in _COMPLEX_CLASSES


_REAL_CLASSES = frozenset(
    {
        SolutionClass.STANDARD_REAL,
        SolutionClass.INFINITE_FAMILY_REAL,
        SolutionClass.EQUAL_QN_REAL,
    }
)
_COMPLEX_CLASSES = frozenset(
    {
        SolutionClass.NARROW_PAIR_COMPLEX,
        SolutionClass.WIDE_PAIR_COMPLEX,
        SolutionClass.EXTRA_TWO_STRING,
    }
)


@dataclass(frozen=True)
class QuantumPair:
    """Ordered pair of quantum numbers with its solution class."""

    j1: HalfInt
    j2: HalfInt
    cls: SolutionClass

    def negated(self):
        return QuantumPair(-self.j1, -self.j2, self.cls)

    def key(self):
        return (self.j1.twice, self.j2.twice, self.cls.value)


@dataclass(frozen=True)
class RapidityPair:
    """A solved pair of rapidities with its residual and solver metadata.

    `momenta` is (p1, p2) for every solved pair but the exact singular one:
    the momenta its solver found, which the oracle builds the Bethe vector
    from.  Real momenta stay floats.  Without them (the regularized
    singular pair, a pair built by hand) the oracle derives the momenta
    from lambda.  `branch_meta` is only emitted.
    """

    lambda1: complex
    lambda2: complex
    residual: float | None
    iterations: int
    branch_meta: dict = field(default_factory=dict, compare=False)
    momenta: tuple | None = field(default=None, compare=False)

    def negated(self):
        momenta = self.momenta
        if momenta is not None:
            momenta = (-momenta[0], -momenta[1])
        return RapidityPair(
            -self.lambda1, -self.lambda2, self.residual, self.iterations,
            dict(self.branch_meta, mirrored=True), momenta,
        )


@dataclass(frozen=True)
class RegimeReport:
    """Summary of the (N, zeta) regime for two-string solutions."""

    stable: bool
    threshold: float
    cutoff: HalfInt
    m_collapsed: int
    extra_two_string: bool


def bae_defect(lambda1, lambda2, p):
    """Residual of the product-form equations for a rapidity pair.

    Returns the maximum over both rapidities of |LHS - RHS| where
    LHS = (sin(lam + i zeta/2)/sin(lam - i zeta/2))^N and
    RHS = sin(lam - other + i zeta)/sin(lam - other - i zeta).
    The product form is branch-free, so it is an independent check on the
    logarithmic-form solvers.  The difference is normalized by
    max(1, |LHS|, |RHS|): wide strings at strong anisotropy have both sides
    of order e^(N zeta), where the absolute difference measures nothing.
    A side that overflows also raises PoleEncountered: the pair then sits
    numerically on a pole.  A side that is NaN or infinite (a NaN or
    infinite rapidity) gives a NaN defect, which no tolerance accepts.
    """
    hz = 0.5j * p.zeta
    defect = 0.0
    for lam, other in ((lambda1, lambda2), (lambda2, lambda1)):
        den_one = cmath.sin(lam - hz)
        den_two = cmath.sin(lam - other - 2 * hz)
        if abs(den_one) < POLE_TOL or abs(den_two) < POLE_TOL:
            raise PoleEncountered(
                "product-form denominator vanishes (singular solution?)"
            )
        try:
            lhs = (cmath.sin(lam + hz) / den_one) ** p.n
            rhs = cmath.sin(lam - other + 2 * hz) / den_two
        except OverflowError:
            raise PoleEncountered(
                "product-form side overflows (near a pole)"
            ) from None
        term = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        if math.isnan(term):
            # max would keep the defect it compares a NaN against.
            return term
        defect = max(defect, term)
    return defect


def magnon_energy(lambda1, lambda2, p):
    """Energy of the two-magnon state, sum of cos(p_j) minus 2 Delta.

    e^(i p_j) is the phase sin(lam + i zeta/2)/sin(lam - i zeta/2).  Near
    MAX_ZETA a bound state's phase overflows while its energy is finite;
    then the sum is taken scaled: with L_j the log of the phase and s the
    largest |Re L_j|, the terms are e^(+-L_j - s), and the sum is scaled
    back by e^(s/2) twice.
    """
    hz = 0.5j * p.zeta
    total = 0.0j
    for lam in (lambda1, lambda2):
        num = cmath.sin(lam + hz)
        den = cmath.sin(lam - hz)
        if abs(den) < POLE_TOL or abs(num) < POLE_TOL:
            # Tightly bound pair at the pole: the pairwise-combined momenta
            # give cos(p1) + cos(p2) = Delta exactly.
            return p.delta - 2.0 * p.delta
        phase = num / den
        total += 0.5 * (phase + 1.0 / phase)
    if math.isfinite(total.real):
        return total.real - 2.0 * p.delta
    logs = [
        cmath.log(cmath.sin(lam + hz)) - cmath.log(cmath.sin(lam - hz))
        for lam in (lambda1, lambda2)
    ]
    s = max(abs(log.real) for log in logs)
    scaled = sum(cmath.exp(log - s) + cmath.exp(-log - s) for log in logs)
    half = math.exp(0.5 * s)
    return 0.5 * scaled.real * half * half - 2.0 * p.delta


# The momentum-block frame (Karbach & Mueller, arXiv:cond-mat/9809162).
def real_rapidity(momentum, t):
    """The lambda of momentum p, with tan(lambda) = t cot(p/2).

    Continued through p = 0: it falls from pi to 0 as p rises from -pi to pi.
    """
    half = 0.5 * momentum
    return math.atan2(t * math.cos(half), math.sin(half))


def block_momentum(k, n):
    """Real part a of block k's bound-state momenta: K/2 folded so cos a >= 0."""
    return math.pi * k / n if 2 * k <= n else -math.pi * (n - k) / n


def log_delta(zeta):
    """(log Delta, zeta - log Delta), with neither cancelling nor overflowing."""
    if zeta < 1.0:
        value = math.log1p(2.0 * math.sinh(0.5 * zeta) ** 2)
        return value, zeta - value
    gap = math.log(2.0) - math.log1p(math.exp(-2.0 * zeta))
    return zeta - gap, gap


def log_link(k, n):
    """log c for c = |cos(pi k / N)|, accurate also for c near 1 or near 0."""
    m = min(k, n - k)
    if 4 * m <= n:
        return math.log1p(-2.0 * math.sin(0.5 * math.pi * m / n) ** 2)
    return math.log(math.sin(0.5 * math.pi * (n - 2 * m) / n))


def attempt(solve, *args, **kwargs):
    """solve(*args, **kwargs), or the BetheError it raised.

    Batch solvers keep one outcome per pair.  The error keeps no traceback:
    its frames would hold the batch's lists in a reference cycle until the
    next collection.
    """
    try:
        return solve(*args, **kwargs)
    except BetheError as exc:
        return exc.with_traceback(None)


def bisect_monotone(f, lo, hi, f_lo=None, f_hi=None, xtol=1e-13, max_iter=200):
    """Bisection for a monotone f with a sign change on [lo, hi].

    Returns (root, iterations).  The direction is inferred from the endpoint
    values; raises NoRootInBracket when no sign change is present.
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo == 0.0:
        return lo, 0
    if f_hi == 0.0:
        return hi, 0
    if f_lo * f_hi > 0.0:
        raise NoRootInBracket(
            f"no sign change on [{lo!r}, {hi!r}]: f={f_lo!r}, {f_hi!r}"
        )
    iterations = 0
    while iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or (hi - lo) < xtol:
            break
        f_mid = f(mid)
        iterations += 1
        if f_mid == 0.0:
            return mid, iterations
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi), iterations


def newton_monotone(f, df, lo, hi, start, max_iter=50):
    """Newton's method for a monotone f on [lo, hi], safeguarded by bisection.

    start is the end of the bracket on Fourier's side of the root, where
    f(start) and f'' share their sign; from there the Newton iterates
    approach the root monotonically, never crossing it.  Newton stops when
    f vanishes, or when a step no longer moves away from start, and returns
    the last iterate that moved.  An iterate outside [lo, hi] (NaN
    included), a zero slope, or max_iter steps hand the bracket to
    bisect_monotone, run to adjacent floats.

    Returns (root, steps, fell_back), where steps counts the Newton steps
    and, after a fallback, the bisection steps too.
    """
    toward = 1.0 if start == lo else -1.0
    x = start
    steps = 0
    while steps < max_iter:
        fx = f(x)
        steps += 1
        if fx == 0.0:
            return x, steps, False
        slope = df(x)
        if slope == 0.0:
            break
        nxt = x - fx / slope
        if not lo <= nxt <= hi:
            break
        if (nxt - x) * toward <= 0.0:
            return x, steps, False
        x = nxt
    root, bisections = bisect_monotone(f, lo, hi, xtol=0.0)
    return root, steps + bisections, True
