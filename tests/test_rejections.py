"""Library branches that reject a bad call, or answer a degenerate one, each pinned once."""

import pytest

from graphprod import corpus
from graphprod.amalgam import (
    AmalgamError,
    SigmaAmalgam,
    amalgam_conjugate_by,
    amalgam_form,
    centralizer_check,
    conjugator_classify,
    consonant_leading_form,
    decompose_at,
)
from graphprod.conjugacy import conjugate_in_clique_subgroup
from graphprod.presentation import (
    CyclicGroup,
    FiniteTableGroup,
    GroupPresentation,
    PresentationError,
    SimplicialGraph,
    Syllable,
    Word,
    WordError,
    parse_word,
    presentation_from_config,
    render_word,
    vertex_group_from_config,
)
from graphprod.separability import (
    ALL_FINITE,
    QuotientFamily,
    apply_quotient,
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
    reduce,
)

from oracles import key_of_word_by_syllable

P = corpus.corpus_presentations()
PATH, STAR, FREE, EDGE, MIXED = P["path-racg"], P["star-racg"], P["free-zz"], P["edge-zz"], P["triangle-mixed"]
AT_C = decompose_at(PATH, "c")


def el(pres, text):
    return element_of(pres, text)


def classify_by_identity(form_of, text):
    """Classify the identity as a conjugator of g to itself, g's form built by form_of at c."""
    form = form_of(AT_C, el(PATH, text))
    return conjugator_classify(AT_C, form, form, el(PATH, "1"))


REJECTIONS = {
    "multiply-across-presentations": (
        lambda: multiply(el(PATH, "a[1]"), el(FREE, "x[1]")),
        PresentationMismatchError,
        "different presentations",
    ),
    "iter-ball-negative-radius": (lambda: next(iter_ball(PATH, -1)), ValueError, "radius"),
    "iter-ball-foreign-left-factor": (
        lambda: next(iter_ball(PATH, 1, left=el(FREE, "x[1]"))),
        PresentationMismatchError,
        "another presentation",
    ),
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
        lambda: SigmaAmalgam(FREE, STAR, {"x"}),
        AmalgamError,
        "must be finite",
    ),
    "clique-conjugacy-outside-clique": (
        lambda: conjugate_in_clique_subgroup(PATH, ["a", "b"], el(PATH, "c[1]"), el(PATH, "a[1]")),
        PresentationError,
        "not supported in the clique",
    ),
    "clique-conjugacy-not-a-clique": (
        lambda: conjugate_in_clique_subgroup(PATH, ["c", "a"], el(PATH, "a[1]"), el(PATH, "c[1]")),
        PresentationError,
        "'a' and 'c' are not adjacent: not a clique",
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
    "shape-family-of-nothing": (
        lambda: shape_preserving_family([], ALL_FINITE),
        ValueError,
        "at least one element",
    ),
    # table groups
    "table-no-elements": (lambda: FiniteTableGroup([], [], 0), PresentationError, "at least one element"),
    "table-duplicate-names": (
        lambda: FiniteTableGroup(["e", "e"], [[0, 1], [1, 0]], 0),
        PresentationError,
        "duplicate element names",
    ),
    "table-not-square": (lambda: FiniteTableGroup(["e", "t"], [[0, 1]], 0), PresentationError, "must be square"),
    "table-identity-not-fixed": (
        lambda: FiniteTableGroup(["e", "t"], [[1, 0], [0, 1]], 0),
        PresentationError,
        "identity row/column not fixed",
    ),
    # value codecs
    "table-encode-unknown-name": (
        lambda: key_of_word(MIXED, Word((Syllable("u", "zz"),))),
        WordError,
        "not an element of this table group",
    ),
    "table-parse-unknown-name": (lambda: parse_word(MIXED, "u[zz]"), WordError, "unknown table element"),
    "integer-keys-without-window": (lambda: CyclicGroup().nontrivial_keys(), ValueError, "exponent window"),
    "integer-encode-text": (lambda: CyclicGroup().encode("1"), WordError, "not an integer exponent"),
    "residue-encode-text": (lambda: CyclicGroup(3).encode("1"), WordError, "not an integer residue"),
    "residue-parse-text": (lambda: parse_word(PATH, "a[x]"), WordError, "expected an integer residue"),
    # the encoder that reduce runs on a Word's syllables; JSON true loads as the bool 1
    "reduce-unknown-vertex": (lambda: reduce(PATH, Word((Syllable("zz", 1),))), PresentationError, "unknown vertex"),
    "reduce-bool-exponent": (
        lambda: reduce(FREE, Word((Syllable("x", True),))),
        WordError,
        "not an integer exponent",
    ),
    "reduce-bool-residue": (lambda: reduce(PATH, Word((Syllable("a", True),))), WordError, "not an integer residue"),
    # a valid syllable, then an equal-hashing invalid one (True == 1, 2.0 == 2, False == 0)
    "reduce-bool-after-equal-exponent": (
        lambda: reduce(FREE, Word((Syllable("x", 1), Syllable("x", True)))),
        WordError,
        "not an integer exponent",
    ),
    "reduce-float-after-equal-exponent": (
        lambda: reduce(FREE, Word((Syllable("x", 2), Syllable("x", 2.0)))),
        WordError,
        "not an integer exponent",
    ),
    "reduce-bool-after-equal-residue": (
        lambda: reduce(PATH, Word((Syllable("a", 1), Syllable("a", True)))),
        WordError,
        "not an integer residue",
    ),
    "reduce-false-after-equal-residue": (
        lambda: reduce(PATH, Word((Syllable("a", 0), Syllable("a", False)))),
        WordError,
        "not an integer residue",
    ),
    # vertex groups, graphs and presentations
    "group-table-missing-keys": (
        lambda: vertex_group_from_config({"table": {"elements": ["e"]}}),
        PresentationError,
        "needs elements, mul, identity",
    ),
    # a null modulus is rejected, not read as CyclicGroup's order None (Z)
    "group-mod-null": (
        lambda: vertex_group_from_config({"mod": None}),
        PresentationError,
        "modulus must be a positive integer",
    ),
    "group-config-not-text-or-dict": (
        lambda: vertex_group_from_config(5),
        PresentationError,
        "unknown vertex group description",
    ),
    "graph-duplicate-vertices": (lambda: SimplicialGraph(["a", "a"], []), PresentationError, "duplicate vertex"),
    "graph-bad-vertex-name": (lambda: SimplicialGraph(["1a"], []), PresentationError, "bad vertex name"),
    "graph-star-unknown-vertex": (lambda: PATH.graph.star("zz"), PresentationError, "unknown vertex 'zz'"),
    "presentation-groups-mismatch": (
        lambda: GroupPresentation(SimplicialGraph(["a"], []), {"b": CyclicGroup()}),
        PresentationError,
        "one vertex group per vertex",
    ),
    "render-unknown-vertex": (
        lambda: render_word(PATH, Word((Syllable("zz", 1),))),
        PresentationError,
        "unknown vertex",
    ),
    "config-not-a-dict": (lambda: presentation_from_config([]), PresentationError, "document must be"),
    "config-no-vertices": (
        lambda: presentation_from_config({"vertices": []}),
        PresentationError,
        "nonempty vertex list",
    ),
    "config-vertex-entry-not-a-dict": (
        lambda: presentation_from_config({"vertices": [5]}),
        PresentationError,
        "bad vertex entry",
    ),
    "config-bad-vertex-name": (
        lambda: presentation_from_config({"vertices": [{"name": "1a", "group": "Z"}]}),
        PresentationError,
        "bad vertex name",
    ),
    # amalgams
    "classify-not-consonant-leading": (
        lambda: classify_by_identity(amalgam_form, "a[1] c[1]"),
        AmalgamError,
        "consonant-leading",
    ),
    "classify-tail-in-h-side": (
        lambda: classify_by_identity(consonant_leading_form, "c[1] b[1]"),
        AmalgamError,
        "tail piece of g must leave the H-side",
    ),
    "sigma-overlapping-factors": (
        lambda: SigmaAmalgam(PATH, PATH, {"a"}),
        AmalgamError,
        "vertex names must be disjoint",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejects(name):
    call, error, message = REJECTIONS[name]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "pres, valid, invalid",
    [(FREE, 1, True), (FREE, 2, 2.0), (PATH, 1, True), (PATH, 0, False)],
    ids=["exponent-1-True", "exponent-2-2.0", "residue-1-True", "residue-0-False"],
)
def test_equal_hashing_value_is_rejected_as_when_alone(pres, valid, invalid):
    vertex = pres.vertices[0]
    with pytest.raises(WordError) as alone:
        key_of_word(pres, Word((Syllable(vertex, invalid),)))
    with pytest.raises(WordError) as after:
        key_of_word(pres, Word((Syllable(vertex, valid), Syllable(vertex, invalid))))
    assert str(after.value) == str(alone.value)


def test_key_values_keep_the_reference_types():
    # exact ints, an int subclass equal to them and table names, repeated along a long word
    count = type("Count", (int,), {})
    values = {"x": [2, count(2), -1, count(-1)], "y": [count(3), 3]}
    syllables = [Syllable(v, values[v][i % len(values[v])]) for i in range(1500) for v in "xy"]
    key = key_of_word(FREE, Word(tuple(syllables)))
    reference = key_of_word_by_syllable(FREE, Word(tuple(syllables)))
    assert key == reference
    assert [type(val) for _, val in key] == [type(val) for _, val in reference]
    assert {type(val) for _, val in key} == {int}


def test_degenerate_answers():
    assert is_reduced_key(PATH, ((0, 0),)) is False  # a trivial syllable
    # a joinable pair with a commuting syllable between, and one with a blocker
    assert is_reduced_key(EDGE, key_of_word(EDGE, parse_word(EDGE, "x[1] y[1] x[1]"))) is False
    assert is_reduced_key(PATH, key_of_word(PATH, parse_word(PATH, "a[1] c[1] a[1]"))) is True
    assert is_reduced_product([]) is True
    # an int subclass that is not a bool encodes like its int value
    count = type("Count", (int,), {})
    assert reduce(FREE, Word((Syllable("x", count(2)), Syllable("y", count(-1))))).key == ((0, 2), (1, -1))
    assert reduce(PATH, Word((Syllable("a", count(3)), Syllable("b", count(4))))).key == ((0, 1),)
