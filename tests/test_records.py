"""Every result record of the package is a NamedTuple.

The nineteen records of presentation, words, cyclic, conjugacy, amalgam,
parabolic and separability keep the fields, field order, defaults, methods
and repr text they had as frozen dataclasses: equal records compare and hash
equal, fields cannot be assigned, and a Word's length and truth value are
those of its syllables.
"""

from pathlib import Path

import pytest

from graphprod.amalgam import (
    AmalgamForm,
    CentralizerReport,
    ConjugatorClass,
    KernelSampleReport,
    OmegaDescription,
    SigmaAmalgam,
    SubgroupConjugacy,
    amalgam_conjugate_by,
    amalgam_form,
    centralizer_check,
    conjugator_classify,
    consonant_leading_form,
    decompose_at,
)
from graphprod.conjugacy import BruteForceConjugacy, ConjugacyVerdict, brute_force_conjugate
from graphprod.corpus import random_words
from graphprod.cyclic import CyclicReduction, PSDecomposition, cyclically_reduce, ps_decompose
from graphprod.parabolic import (
    AvoidingVertex,
    CentralizerStructureReport,
    IntersectionResult,
    ParabolicSubgroup,
    centralizer_structure_check,
    full_parabolic,
    maximal_full_avoiding,
    parabolic_intersection_search,
)
from graphprod.presentation import Syllable, Word, load_presentation, presentation_from_config
from graphprod.separability import ALL_FINITE, ClassMode, SeparationWitness, residual_witness
from graphprod.words import ShapeReport, element_of, shape

PATH_RACG = load_presentation(Path(__file__).parent / "data" / "path-racg.json")


def e(text):
    return element_of(PATH_RACG, text)


def view():
    return decompose_at(PATH_RACG, "c")


def c2(v):
    return presentation_from_config({"vertices": [{"name": v, "group": "cyclic 2"}], "edges": []})


def kernel_sample_report():
    sigma = SigmaAmalgam(c2("q"), c2("s"), [])
    return sigma.kernel_sample_check(random_words(sigma.presentation, 4, 4, 0))


def conjugator_class():
    at_c = view()
    ca = consonant_leading_form(at_c, e("c[1] a[1]"))
    return (
        conjugator_classify(at_c, ca, ca, e("c[1] a[1]")),
        ConjugatorClass("c", e("1"), e("1"), 1),
        "ConjugatorClass(case='c', h=<1>, piece=<1>, exponent=1)",
        "case",
    )


def separation_witness():
    witness = residual_witness(e("a[1]"))
    return (
        witness,
        SeparationWitness(witness.family, (e("a[1]"),), (element_of(witness.family.target, "a[1]"),),
                          "nontrivial-image"),
        f"SeparationWitness(family={witness.family!r}, inputs=(<a[1]>,), images=(<a[1]>,), "
        "certificate_tag='nontrivial-image')",
        "images",
    )


# record type name -> a builder of (record, an equal record built apart, its
# repr, one of its fields); sets in a repr have at most one element, so the
# text does not depend on hash order.  Each record is built inside its test,
# so a fault in the function that builds it fails that test alone.
RECORDS = {
    "Syllable": lambda: (Syllable("a", 1), Syllable("a", 1), "Syllable(vertex='a', value=1)", "vertex"),
    "Word": lambda: (
        Word((Syllable("a", 1),)),
        Word((Syllable("a", 1),)),
        "Word(syllables=(Syllable(vertex='a', value=1),))",
        "syllables",
    ),
    "ShapeReport": lambda: (
        shape(e("c[1]")),
        ShapeReport(1, frozenset("c"), frozenset("c"), frozenset("c")),
        "ShapeReport(length=1, support=frozenset({'c'}), first_letters=frozenset({'c'}), "
        "last_letters=frozenset({'c'}))",
        "length",
    ),
    "PSDecomposition": lambda: (
        ps_decompose(e("b[1]")),
        PSDecomposition(e("b[1]"), e("1"), frozenset("b"), frozenset()),
        "PSDecomposition(s_part=<b[1]>, p_part=<1>, s_vertices=frozenset({'b'}), p_vertices=frozenset())",
        "s_part",
    ),
    "CyclicReduction": lambda: (
        cyclically_reduce(e("a[1] c[1] a[1]")),
        CyclicReduction(e("c[1]"), e("a[1]")),
        "CyclicReduction(reduced=<c[1]>, conjugator=<a[1]>)",
        "reduced",
    ),
    "ConjugacyVerdict": lambda: (
        ConjugacyVerdict(False, None, "support-mismatch"),
        ConjugacyVerdict(False, None, "support-mismatch"),
        "ConjugacyVerdict(conjugate=False, conjugator=None, refutation='support-mismatch')",
        "refutation",
    ),
    "BruteForceConjugacy": lambda: (
        brute_force_conjugate(e("a[1] c[1]"), e("c[1] a[1]"), 1),
        BruteForceConjugacy("yes", e("a[1]")),
        "BruteForceConjugacy(status='yes', conjugator=<a[1]>)",
        "status",
    ),
    "AmalgamForm": lambda: (
        amalgam_form(view(), e("a[1] c[1] b[1]")),
        AmalgamForm((e("a[1] b[1]"), e("1")), (1,)),
        "AmalgamForm(x_pieces=(<a[1] b[1]>, <1>), consonants=(1,))",
        "consonants",
    ),
    "ConjugatorClass": conjugator_class,
    "SubgroupConjugacy": lambda: (
        amalgam_conjugate_by(view(), ["a"], e("c[1] a[1]"), e("a[1] c[1]"), 1),
        SubgroupConjugacy("yes", e("a[1]"), None),
        "SubgroupConjugacy(status='yes', conjugator=<a[1]>, failed_condition=None)",
        "conjugator",
    ),
    "OmegaDescription": lambda: (
        centralizer_check(view(), e("c[1] a[1]"), 1).omega,
        OmegaDescription((e("1"), e("c[1] a[1]")), (e("1"), e("1")), (e("1"), e("a[1] c[1]"))),
        "OmegaDescription(prefixes=(<1>, <c[1] a[1]>), matched=(<1>, <1>), omega=(<1>, <a[1] c[1]>))",
        "omega",
    ),
    "CentralizerReport": lambda: (
        centralizer_check(view(), e("c[1]"), 1),
        CentralizerReport("product", None, (), 4, (e("1"), e("b[1]"), e("c[1]")), ()),
        "CentralizerReport(kind='product', omega=None, unresolved=(), ball_size=4, "
        "centralizer=(<1>, <b[1]>, <c[1]>), violations=())",
        "kind",
    ),
    "KernelSampleReport": lambda: (
        kernel_sample_report(),
        KernelSampleReport(4, 1, ()),
        "KernelSampleReport(samples=4, nontrivial=1, failures=())",
        "failures",
    ),
    "ParabolicSubgroup": lambda: (
        full_parabolic(PATH_RACG, ["a"]),
        ParabolicSubgroup(e("1"), frozenset("a")),
        "ParabolicSubgroup(conjugator=<1>, core=frozenset({'a'}))",
        "core",
    ),
    "CentralizerStructureReport": lambda: (
        centralizer_structure_check(e("a[1]"), 1),
        CentralizerStructureReport(frozenset("a"), frozenset("b"), 4, (e("1"), e("a[1]"), e("b[1]")), ()),
        "CentralizerStructureReport(core=frozenset({'a'}), halo=frozenset({'b'}), ball_size=4, "
        "centralizer=(<1>, <a[1]>, <b[1]>), violations=())",
        "halo",
    ),
    "AvoidingVertex": lambda: (
        maximal_full_avoiding(e("b[1] a[1] b[1]")),
        AvoidingVertex("a", e("a[1]"), 1),
        "AvoidingVertex(vertex='a', core=<a[1]>, consonant_length=1)",
        "vertex",
    ),
    "IntersectionResult": lambda: (
        parabolic_intersection_search(full_parabolic(PATH_RACG, "ab"), full_parabolic(PATH_RACG, "bc"), 0),
        IntersectionResult("found", ParabolicSubgroup(e("1"), frozenset("b"))),
        "IntersectionResult(status='found', parabolic=ParabolicSubgroup(conjugator=<1>, core=frozenset({'b'})))",
        "parabolic",
    ),
    "ClassMode": lambda: (ALL_FINITE, ClassMode(), "ClassMode(p=None)", "p"),
    "SeparationWitness": separation_witness,
}


# each id keeps the form the four-value parametrization gave it: the type
# names of the record, its twin, its repr text and its field name
@pytest.mark.parametrize("name", sorted(RECORDS), ids=lambda name: f"{name}-{name}-str-str")
def test_record_contract(name):
    record, twin, text, field = RECORDS[name]()
    assert type(record).__name__ == type(twin).__name__ == name
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == twin


def test_word_length_and_truth_are_its_syllables():
    assert len(Word(())) == 0 and not Word(())
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
