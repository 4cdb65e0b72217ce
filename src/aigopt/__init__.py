"""Search- and learning-guided synthesis recipe optimization for AIGs."""

from .aig import (
    Aig,
    AigBuilder,
    AigerError,
    Equivalence,
    SequentialCircuitError,
    equivalent,
    parse_aiger,
    write_aiger,
)
from .transforms import Action, Recipe, apply, apply_recipe

__all__ = [
    "Aig",
    "AigBuilder",
    "AigerError",
    "Equivalence",
    "SequentialCircuitError",
    "Action",
    "Recipe",
    "apply",
    "apply_recipe",
    "equivalent",
    "parse_aiger",
    "write_aiger",
]
