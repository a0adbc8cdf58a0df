"""Exact computation in based quantum tori.

Quantum seeds with principal coefficients, one-step mutation, and machine
verification of the quantum Serre-type relations between one-step mutated
cluster variables, plus a standalone q-identity oracle suite.
"""

from .qarith import QLaurent, q_binom
from .qtorus import SkewForm, TorusElem
from .seeds import ExchangeMatrix, QuantumSeed, SeedFormatError, load_seed, mutate, principal_seed

__all__ = [
    "QLaurent",
    "q_binom",
    "SkewForm",
    "TorusElem",
    "ExchangeMatrix",
    "QuantumSeed",
    "SeedFormatError",
    "load_seed",
    "principal_seed",
    "mutate",
]
