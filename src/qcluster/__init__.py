"""Exact computation in based quantum tori.

Quantum seeds with principal coefficients, one-step mutation, and machine
verification of the quantum Serre-type relations between one-step mutated
cluster variables, plus a standalone q-identity oracle suite.

The coefficient ring (`QLaurent`, `q_binom`) and the torus ring
(`TorusElem`) load on first access (PEP 562), as no passing relation
check builds an element of either.
"""

from .lattice import SkewForm
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


def __getattr__(name: str):
    if name in ("QLaurent", "q_binom"):
        from . import qarith as module
    elif name == "TorusElem":
        from . import qtorus as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
