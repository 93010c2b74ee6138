"""Complete enumeration and solution of the two down-spin sector of the
periodic anisotropic spin-1/2 chain in its gapped regime.

Public surface: parameter/label types, the regime classifier and pair
enumeration with each label's block address, the three momentum-block
solvers (distinct real, equal real, complex string), the dispatcher, the
reduced-rapidity divergence tracer, and the exact-diagonalization
completeness oracle.
"""
from .dispatch import solve_quantum_pair
from .equal_solver import counting_w, solve_equal, tan2x_of_phi
from .height_solver import height, solve_pair
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
from .oracle import (
    SpectrumMatch,
    bethe_vector,
    build_hamiltonian,
    completeness_check,
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
    tan2x_of_w,
    z1,
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
