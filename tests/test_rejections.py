"""Library branches that reject a bad call, or answer a degenerate one, each pinned once."""

import pytest

from graphprod import corpus
from graphprod.amalgam import (
    AmalgamError,
    amalgam_conjugate_by,
    amalgam_form,
    centralizer_check,
    decompose_at,
    sigma_map,
)
from graphprod.conjugacy import conjugate_in_clique_subgroup
from graphprod.presentation import PresentationError, parse_word
from graphprod.separability import (
    ALL_FINITE,
    QuotientFamily,
    apply_quotient,
    retraction,
    shape_preserving_family,
)
from graphprod.words import (
    PresentationMismatchError,
    element_of,
    is_reduced_key,
    is_reduced_product,
    iter_ball,
    key_of_word,
    multiply,
)

P = corpus.corpus_presentations()
PATH, STAR, FREE, EDGE, MIXED = P["path-racg"], P["star-racg"], P["free-zz"], P["edge-zz"], P["triangle-mixed"]
AT_C = decompose_at(PATH, "c")


def el(pres, text):
    return element_of(pres, text)


REJECTIONS = {
    "multiply-across-presentations": (
        lambda: multiply(el(PATH, "a[1]"), el(FREE, "x[1]")),
        PresentationMismatchError,
        "different presentations",
    ),
    "iter-ball-negative-radius": (lambda: next(iter_ball(PATH, -1)), ValueError, "radius"),
    "amalgam-form-foreign-element": (
        lambda: amalgam_form(AT_C, el(STAR, "c[1]")),
        PresentationError,
        "view's presentation",
    ),
    "conjugate-by-b-with-apex": (
        lambda: amalgam_conjugate_by(AT_C, {"a", "c"}, el(PATH, "c[1]"), el(PATH, "c[1]"), 2),
        AmalgamError,
        "subset of the A-side",
    ),
    "conjugate-by-no-consonant": (
        lambda: amalgam_conjugate_by(AT_C, {"a"}, el(PATH, "a[1]"), el(PATH, "a[1]"), 2),
        AmalgamError,
        "at least one consonant",
    ),
    "centralizer-not-cyclically-reduced": (
        lambda: centralizer_check(AT_C, el(PATH, "c[1] a[1] c[1] b[1]"), 2),
        AmalgamError,
        "not cyclically reduced at this apex",
    ),
    "sigma-infinite-vertex": (
        lambda: sigma_map(FREE, STAR, {"x"}),
        AmalgamError,
        "must be finite",
    ),
    "clique-conjugacy-outside-clique": (
        lambda: conjugate_in_clique_subgroup(PATH, ["a", "b"], el(PATH, "c[1]"), el(PATH, "a[1]")),
        PresentationError,
        "not supported in the clique",
    ),
    "modulus-on-table-vertex": (
        lambda: QuotientFamily(MIXED, {"u": 2, "v": 3, "w": 4}, ALL_FINITE),
        PresentationError,
        "kept, not quotiented",
    ),
    "quotient-foreign-element": (
        lambda: apply_quotient(QuotientFamily(PATH, {v: 2 for v in "abc"}, ALL_FINITE), el(STAR, "c[1]")),
        PresentationError,
        "family's presentation",
    ),
    "retraction-foreign-element": (
        lambda: retraction(PATH, ["a"], el(STAR, "c[1]")),
        PresentationError,
        "does not belong",
    ),
    "shape-family-of-nothing": (
        lambda: shape_preserving_family([], ALL_FINITE),
        ValueError,
        "at least one element",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejects(name):
    call, error, message = REJECTIONS[name]
    with pytest.raises(error, match=message):
        call()


def test_degenerate_answers():
    assert is_reduced_key(PATH, ((0, 0),)) is False  # a trivial syllable
    # a joinable pair with a commuting syllable between, and one with a blocker
    assert is_reduced_key(EDGE, key_of_word(EDGE, parse_word(EDGE, "x[1] y[1] x[1]"))) is False
    assert is_reduced_key(PATH, key_of_word(PATH, parse_word(PATH, "a[1] c[1] a[1]"))) is True
    assert is_reduced_product([]) is True
