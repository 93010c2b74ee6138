"""Complete enumeration and solution of the two down-spin sector of the
periodic anisotropic spin-1/2 chain in its gapped regime.

Public surface: parameter/label types, the regime classifier and pair
enumeration with each label's block address, the three momentum-block
solvers (distinct real, equal real, complex string), the paper's label
checks (the height function and the counting functions W and Z1, in
counting), the dispatcher, the reduced-rapidity divergence tracer, and
the exact-diagonalization completeness oracle.

The oracle is the only module that imports numpy.  Its four names here
(SpectrumMatch, bethe_vector, build_hamiltonian, completeness_check) load
it on first use, so importing the package, and every command but
`verify`, leaves numpy unimported.
"""
from .counting import counting_w, height, tan2x_of_phi, tan2x_of_w, z1
from .dispatch import solve_quantum_pair
from .equal_solver import solve_equal
from .height_solver import solve_pair
from .model import (
    BetheError,
    ChainParams,
    HalfInt,
    QuantumPair,
    RapidityPair,
    RegimeReport,
    SolutionClass,
    bae_defect,
    magnon_energy,
)
from .quantum_numbers import (
    classify_regime,
    collapse_count,
    enumerate_all,
    has_extra_two_string,
    threshold_f,
)
from .string_solver import (
    singular_solution,
    solve_boundary_string,
    solve_complex,
)
from .xxx_limit import DivergenceTrace, trace_divergence

__all__ = [
    "BetheError",
    "ChainParams",
    "DivergenceTrace",
    "HalfInt",
    "QuantumPair",
    "RapidityPair",
    "RegimeReport",
    "SolutionClass",
    "SpectrumMatch",
    "bae_defect",
    "bethe_vector",
    "build_hamiltonian",
    "classify_regime",
    "collapse_count",
    "completeness_check",
    "counting_w",
    "enumerate_all",
    "has_extra_two_string",
    "height",
    "magnon_energy",
    "singular_solution",
    "solve_boundary_string",
    "solve_complex",
    "solve_equal",
    "solve_pair",
    "solve_quantum_pair",
    "tan2x_of_phi",
    "tan2x_of_w",
    "threshold_f",
    "trace_divergence",
    "z1",
]

__version__ = "0.1.0"

# The oracle's names load it, and numpy with it, on first use (PEP 562).
_ORACLE_NAMES = frozenset(
    {"SpectrumMatch", "bethe_vector", "build_hamiltonian", "completeness_check"}
)


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
