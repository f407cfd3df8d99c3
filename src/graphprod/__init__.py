"""Exact computation in graph products of groups.

Decides the word and conjugacy problems over concrete vertex groups (finite
tables, the integers, integers mod n), computes amalgam splittings, parabolic
closures, normalizer and centralizer descriptions, and constructs
finite-quotient separation witnesses.
"""

from .presentation import (
    GroupPresentation,
    InvariantError,
    PresentationError,
    SimplicialGraph,
    Syllable,
    Word,
    WordError,
    link_of,
    parse_presentation,
    parse_word,
    render_word,
    star_of,
    vertex_conjugate_test,
    vertex_mul,
)
from .words import (
    BudgetExceededError,
    Element,
    ShapeReport,
    brute_force_equal,
    canonical_form,
    element_of,
    invert,
    is_reduced_product,
    multiply,
    reduce,
    shape,
)

__all__ = [
    "BudgetExceededError",
    "Element",
    "GroupPresentation",
    "InvariantError",
    "PresentationError",
    "ShapeReport",
    "SimplicialGraph",
    "Syllable",
    "Word",
    "WordError",
    "brute_force_equal",
    "canonical_form",
    "element_of",
    "invert",
    "is_reduced_product",
    "link_of",
    "multiply",
    "parse_presentation",
    "parse_word",
    "reduce",
    "render_word",
    "shape",
    "star_of",
    "vertex_conjugate_test",
    "vertex_mul",
]
