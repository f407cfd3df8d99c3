"""The result records of presentation, words, cyclic and conjugacy are NamedTuples.

They keep the fields, field order, methods and repr text they had as frozen
dataclasses: equal records compare and hash equal, fields cannot be assigned,
and a Word's length and truth value are those of its syllables.
"""

from pathlib import Path

import pytest

from graphprod.conjugacy import BruteForceConjugacy, ConjugacyVerdict, brute_force_conjugate
from graphprod.cyclic import CyclicReduction, PSDecomposition, cyclically_reduce, ps_decompose
from graphprod.presentation import EMPTY_WORD, Syllable, Word, load_presentation
from graphprod.words import ShapeReport, element_of, shape

PATH_RACG = load_presentation(Path(__file__).parent / "data" / "path-racg.json")


def records():
    """(record, an equal record built apart, its repr, one of its fields); sets in a
    repr have at most one element, so the text does not depend on hash order."""
    e = lambda text: element_of(PATH_RACG, text)
    a = Syllable("a", 1)
    return [
        (a, Syllable("a", 1), "Syllable(vertex='a', value=1)", "vertex"),
        (Word((a,)), Word((Syllable("a", 1),)), "Word(syllables=(Syllable(vertex='a', value=1),))", "syllables"),
        (
            shape(e("c[1]")),
            ShapeReport(1, frozenset("c"), frozenset("c"), frozenset("c")),
            "ShapeReport(length=1, support=frozenset({'c'}), first_letters=frozenset({'c'}), "
            "last_letters=frozenset({'c'}))",
            "length",
        ),
        (
            ps_decompose(e("b[1]")),
            PSDecomposition(e("b[1]"), e("1"), frozenset("b"), frozenset()),
            "PSDecomposition(s_part=<b[1]>, p_part=<1>, s_vertices=frozenset({'b'}), p_vertices=frozenset())",
            "s_part",
        ),
        (
            cyclically_reduce(e("a[1] c[1] a[1]")),
            CyclicReduction(e("c[1]"), e("a[1]")),
            "CyclicReduction(reduced=<c[1]>, conjugator=<a[1]>)",
            "reduced",
        ),
        (
            ConjugacyVerdict(False, None, "support-mismatch"),
            ConjugacyVerdict(False, None, "support-mismatch"),
            "ConjugacyVerdict(conjugate=False, conjugator=None, refutation='support-mismatch')",
            "refutation",
        ),
        (
            brute_force_conjugate(e("a[1] c[1]"), e("c[1] a[1]"), 1),
            BruteForceConjugacy("yes", e("a[1]")),
            "BruteForceConjugacy(status='yes', conjugator=<a[1]>)",
            "status",
        ),
    ]


@pytest.mark.parametrize("record,twin,text,field", records(), ids=lambda r: type(r).__name__)
def test_record_contract(record, twin, text, field):
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == twin


def test_word_length_and_truth_are_its_syllables():
    assert len(EMPTY_WORD) == 0 and not EMPTY_WORD
    word = Word((Syllable("a", 1), Syllable("b", 1)))
    assert len(word) == 2 and word
    assert list(word.syllables) == [("a", 1), ("b", 1)]


def test_brute_force_found():
    a, c = element_of(PATH_RACG, "a[1]"), element_of(PATH_RACG, "c[1]")
    assert brute_force_conjugate(a, a, 0).found
    assert not brute_force_conjugate(a, c, 2).found
    assert brute_force_conjugate(a, c, 2) == BruteForceConjugacy("exhausted", None)


def test_replace_builds_a_new_record():
    verdict = ConjugacyVerdict(False, None, "support-mismatch")
    assert verdict._replace(refutation="length-mismatch") == ConjugacyVerdict(False, None, "length-mismatch")
    assert verdict.refutation == "support-mismatch"
