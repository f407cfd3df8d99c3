"""Seeded invariant checks, shared by `gp selftest` and the test suite.

Each check_* function takes one input, runs every check of its family on it
and raises SelfTestFailure naming the input at the first failure.  The
_suite_* functions build the selftest's seeded inputs; the tests, acceptance
criteria 1-8 among them, build their own and call the same checks.
"""

from __future__ import annotations

import random
import time
import traceback
from typing import Callable, List

from . import corpus
from .presentation import Word, presentation_from_config, render_word
from .words import (
    Element,
    _compare_centralizer,
    _in_ball,
    _joinable_pairs,
    brute_force_equal,
    canonical_form,
    conjugate,
    element_of,
    invert,
    is_reduced_key,
    iter_ball,
    key_of_word,
    multiply,
    reduce,
    shape,
)
from .cyclic import cyclically_reduce, is_cyclically_reduced, ps_decompose
from .conjugacy import ConjugacyVerdict, are_conjugate, conjugacy_class_in_ball
from .amalgam import amalgam_form, amalgam_form_of_word, centralizer_check, decompose_at
from .parabolic import (
    ParabolicSubgroup,
    centralizer_structure_check,
    full_parabolic,
    maximal_full_avoiding,
    normalizer_membership,
    parabolic_closure_of_cyclic,
    parabolic_generators,
    parabolic_membership,
)
from .separability import (
    ALL_FINITE,
    SeparationWitness,
    _is_p_power,
    apply_quotient,
    conjugacy_witness,
    p_group_mode,
    residual_witness,
    shape_preserving_family,
)

# States the rewriting-closure oracle may visit: enough to exhaust words of
# up to 10 syllables in total.
ORACLE_BUDGET = 100_000


class SelfTestFailure(AssertionError):
    pass


def _ensure(ok: bool, message: str, *inputs, pres=None) -> None:
    """Fail naming the inputs: a Word as pres renders it, anything else by repr."""
    if not ok:
        names = (render_word(pres, x) if isinstance(x, Word) else repr(x) for x in inputs)
        raise SelfTestFailure(f"{message}: " + ", ".join(names))


def check_reduction(pres, w: Word) -> None:
    """Reduction contracts and is idempotent; short words agree with the
    rewriting-closure oracle on triviality."""
    e = reduce(pres, w)
    _ensure(len(e) <= len(w), "reduction grew a word", w, pres=pres)
    _ensure(reduce(pres, e.word()) == e, "reduction not idempotent", w, pres=pres)
    _ensure(is_reduced_key(pres, e.key), "reduced form not reduced", w, pres=pres)
    if len(w) <= 6:
        trivial = brute_force_equal(pres, w, Word(()), ORACLE_BUDGET)
        _ensure(trivial == e.is_identity, "triviality oracle disagrees", w, pres=pres)


def check_equality(pres, w1: Word, w2: Word) -> None:
    """Equal normal forms iff the rewriting-closure oracle joins the words."""
    agrees = brute_force_equal(pres, w1, w2, ORACLE_BUDGET)
    equal = reduce(pres, w1) == reduce(pres, w2)
    _ensure(agrees == equal, "equality oracle disagrees", w1, w2, pres=pres)


def check_confluence(pres, w: Word, rng: random.Random) -> None:
    """Joining random joinable pairs until none is left reaches the normal form."""
    key = list(key_of_word(pres, w))
    while True:
        key = [s for s in key if s[1] != pres.identity_keys[s[0]]]
        joinable = list(_joinable_pairs(pres, key))
        if not joinable:
            break
        i, j = rng.choice(joinable)
        vi = key[i][0]
        merged = pres.by_index[vi].mul(key[i][1], key[j][1])
        del key[j]
        key[i] = (vi, merged)
    survivors = Word(tuple(pres.decode_syllable(vi, val) for vi, val in key))
    _ensure(
        canonical_form(pres, survivors) == reduce(pres, w).word(),
        "random-strategy reduction missed the canonical form",
        w,
        pres=pres,
    )


def check_conjugacy(x, y, reachable: set, radius: int) -> ConjugacyVerdict:
    """The verdict on (x, y) against the conjugates of x by the radius ball.

    reachable is conjugacy_class_in_ball(x, radius).  A conjugator must
    conjugate x to y, and one inside that ball must reach a y the oracle saw.
    """
    verdict = are_conjugate(x, y)
    if verdict.conjugate:
        w = verdict.conjugator
        _ensure(conjugate(w, x) == y, "bad conjugator", x, y)
        _ensure(y in reachable or not _in_ball(w, radius), "conjugator inside the ball, oracle missed it", x, y)
    else:
        _ensure(y not in reachable, "oracle found a conjugator, criterion says no", x, y)
    return verdict


def check_cyclic_reduction(g) -> None:
    """The cyclic reduction is cyclically reduced, no longer, and conjugates back."""
    r = cyclically_reduce(g)
    _ensure(is_cyclically_reduced(r.reduced), "cyclic reduction incomplete", g)
    _ensure(conjugate(r.conjugator, r.reduced) == g, "cyclic conjugator broken", g)
    _ensure(len(r.reduced) <= len(g), "cyclic reduction grew", g)


def check_ps_split(g) -> None:
    """g = s_part * p_part, the end letters split along S, and the four forms
    of cyclic reducedness agree."""
    ps = ps_decompose(g)
    _ensure(multiply(ps.s_part, ps.p_part) == g, "S/P parts do not multiply back", g)
    report, p_report = shape(g), shape(ps.p_part)
    conditions = (
        is_cyclically_reduced(g),
        not (report.first_letters & report.last_letters) - ps.s_vertices,
        not p_report.first_letters & p_report.last_letters,
        is_cyclically_reduced(ps.p_part),
    )
    _ensure(len(set(conditions)) == 1, "cyclic-reducedness criteria disagree", g)
    for letters, p_letters in (
        (report.first_letters, p_report.first_letters),
        (report.last_letters, p_report.last_letters),
    ):
        _ensure(letters == ps.s_vertices | p_letters, "end letters are not S plus those of P", g)
        _ensure(not ps.s_vertices & p_letters, "P starts or ends in S", g)


def check_consonants(view, w: Word, variant: Word) -> None:
    """The consonants at the view's apex depend only on the element."""
    pres = view.pres
    f1 = amalgam_form_of_word(view, w)
    f2 = amalgam_form_of_word(view, variant)
    _ensure(f1.consonants == f2.consonants, "consonants changed under shuffling", view.apex, w, variant, pres=pres)
    e = reduce(pres, w)
    same = f1.consonants == amalgam_form(view, e).consonants
    _ensure(same, "consonants depend on the expression", view.apex, w, pres=pres)
    _ensure(f1.consonant_length == 0 or not e.is_identity, "the identity has a consonant", view.apex, w, pres=pres)


def check_centralizer(view, g, radius: int) -> None:
    """centralizer_check finds no violation and no unresolved prefix, and the
    A-side centralizer is the coset intersection of the x-piece prefixes."""
    report = centralizer_check(view, g, radius)
    _ensure(report.ok and not report.unresolved, "centralizer factorization failed", view.apex, g)
    xs = amalgam_form(view, g).x_pieces
    x_cum = [xs[0]]
    for piece in xs[1:-1]:
        x_cum.append(multiply(x_cum[-1], piece))
    x_prod = multiply(x_cum[-1], xs[-1])

    def in_cosets(key, centralizes) -> bool:
        b = Element(g.pres, key)
        return conjugate(b, x_prod) == x_prod and all(
            multiply(multiply(invert(c), b), c).support() <= view.h_vertices for c in x_cum
        )

    _, _, violations = _compare_centralizer(g, radius, in_cosets, vertices=view.a_vertices)
    _ensure(not violations, "coset-intersection formula", view.apex, g, *violations[:1])


def check_centralizer_split(g, radius: int) -> None:
    """C(g) = C_{G_A}(g) * G_link(A) on the radius ball, for A the support of g."""
    _ensure(centralizer_structure_check(g, radius).ok, "centralizer split failed", g)


def check_parabolic_closure(g, conjugators) -> None:
    """The closure of <g> contains g, no conjugate by one of the given
    conjugators of a smaller core does, and g avoids a maximal full subgroup."""
    closure = parabolic_closure_of_cyclic(g)
    _ensure(parabolic_membership(closure, g), "closure misses its element", g)
    for h in conjugators:
        for drop in closure.core:
            smaller = ParabolicSubgroup(h, closure.core - {drop})
            _ensure(not parabolic_membership(smaller, g), "closure not minimal", g, smaller)
    _ensure(maximal_full_avoiding(g).consonant_length >= 1, "avoidance certificate empty", g)


def check_normalizer(p: ParabolicSubgroup, u) -> None:
    """The normalizer formula agrees with conjugating every generator by u and u^-1."""
    direct = all(
        parabolic_membership(p, conjugate(u, gen)) and parabolic_membership(p, conjugate(invert(u), gen))
        for gen in parabolic_generators(p)
    )
    _ensure(normalizer_membership(p, u) == direct, "normalizer formula vs conjugation mismatch", p, u)


def check_witness(w: SeparationWitness) -> None:
    """The witness re-verifies, keeps the shape of what its family was built
    around, and has p-power moduli in a p-group mode.

    A residual family is built around its input, a conjugacy family around
    the cyclically reduced cores of the pair.
    """
    _ensure(w.verify(), "witness fails its re-check", *w.inputs)
    residual = w.certificate_tag == "nontrivial-image"
    for e in w.inputs:
        core = e if residual else cyclically_reduce(e).reduced
        img = apply_quotient(w.family, core)
        _ensure(len(img) == len(core) and img.support() == core.support(), "quotient changes the shape", core)
        _ensure(not is_cyclically_reduced(core) or is_cyclically_reduced(img), "quotient breaks cyclic reducedness", core)
    if w.family.mode.is_p_mode:
        p = w.family.mode.p
        for m in w.family.moduli.values():
            _ensure(m is None or _is_p_power(m, p), f"modulus not a power of {p}", *w.inputs)


def _suite_normal_forms(seed: int) -> str:
    rng = random.Random(seed)
    pairs_checked = 0
    for pres in corpus.corpus_presentations().values():
        words = corpus.random_words(pres, 100, 8, seed=rng.randrange(1 << 30))
        for w in words:
            check_reduction(pres, w)
        for _ in range(40):
            w1, w2 = rng.choice(words), rng.choice(words)
            if len(w1) + len(w2) > 10:
                continue
            check_equality(pres, w1, w2)
            pairs_checked += 1
    return f"equality vs rewriting closure on random pairs ({pairs_checked} pairs)"


def _suite_confluence(seed: int) -> str:
    rng = random.Random(seed)
    checked = 0
    for pres in corpus.corpus_presentations().values():
        for w in corpus.random_words(pres, 60, 8, seed=rng.randrange(1 << 30)):
            check_confluence(pres, w, rng)
            checked += 1
    return f"random-strategy reduction confluence ({checked} words)"


def _suite_conjugacy(seed: int) -> str:
    rng = random.Random(seed)
    checked = 0
    radius = 3
    for pres in corpus.corpus_presentations().values():
        elements = corpus.corpus_elements(pres, max_len=3)
        sample = [elements[rng.randrange(len(elements))] for _ in range(10)]
        for x in sample:
            reachable = conjugacy_class_in_ball(x, radius)
            for y in sample:
                check_conjugacy(x, y, reachable, radius)
                checked += 1
    return f"conjugacy criterion vs ball oracle ({checked} ordered pairs)"


def _suite_cyclic(seed: int) -> str:
    rng = random.Random(seed)
    checked = 0
    for pres in corpus.corpus_presentations().values():
        for w in corpus.random_words(pres, 80, 7, seed=rng.randrange(1 << 30)):
            g = reduce(pres, w)
            check_cyclic_reduction(g)
            check_ps_split(g)
            checked += 1
    return f"cyclic reduction contracts ({checked} elements)"


def _suite_consonants(seed: int) -> str:
    rng = random.Random(seed)
    checked = 0
    for pres in corpus.corpus_presentations().values():
        views = [decompose_at(pres, v) for v in pres.vertices]
        for w in corpus.random_words(pres, 60, 7, seed=rng.randrange(1 << 30)):
            variant = corpus.shuffled_variant(pres, w, rng)
            for view in views:
                check_consonants(view, w, variant)
            checked += 1
    return f"consonant invariance under shuffling ({checked} word pairs)"


def _suite_centralizers(seed: int) -> str:
    reports = 0
    for config in (corpus.PATH_RACG, corpus.PATH_C3_END, corpus.PATH_C3_MID):
        pres = presentation_from_config(config)
        view = decompose_at(pres, "c")
        for text in ("c[1] b[1]", "c[1] a[1]"):
            check_centralizer(view, element_of(pres, text), 3)
            reports += 1
        for text in ("c[1]", "a[1] c[1]"):
            check_centralizer_split(element_of(pres, text), 3)
            reports += 1
    return f"centralizer formulas on radius-3 balls ({reports} checks)"


def _suite_parabolics(seed: int) -> str:
    rng = random.Random(seed)
    checked = 0
    for pres in corpus.corpus_presentations().values():
        elements = corpus.corpus_elements(pres, max_len=3)
        sample = [e for e in elements if not e.is_identity]
        rng.shuffle(sample)
        small = [Element(pres, key) for key in iter_ball(pres, 2)]
        for g in sample[:6]:
            check_parabolic_closure(g, small)
            checked += 1
        for core_size in (1, 2):
            p = full_parabolic(pres, list(pres.vertices)[:core_size])
            for u in small:
                check_normalizer(p, u)
                checked += 1
    return f"parabolic closures and normalizers ({checked} checks)"


def _suite_witnesses(seed: int) -> str:
    rng = random.Random(seed)
    built = 0
    for pres in corpus.corpus_presentations().values():
        elements = corpus.corpus_elements(pres, max_len=3)
        rng.shuffle(elements)
        nontrivial = [e for e in elements if not e.is_identity]
        for g in nontrivial[:4]:
            check_witness(residual_witness(g))
            built += 1
        pairs = 0
        for x in elements[:8]:
            for y in elements[:8]:
                if pairs >= 6:
                    break
                if are_conjugate(x, y).conjugate:
                    continue
                check_witness(conjugacy_witness(x, y))
                pairs += 1
                built += 1
    z1 = presentation_from_config({"vertices": [{"name": "x", "group": "Z"}], "edges": []})
    fam = shape_preserving_family([element_of(z1, "x[1]"), element_of(z1, "x[2]")], ALL_FINITE)
    _ensure(fam.moduli == {"x": 3}, "modulus selection drifted for {x, x^2}")
    fam2 = shape_preserving_family([element_of(z1, "x[6]")], p_group_mode(2))
    _ensure(fam2.moduli == {"x": 4}, "modulus selection drifted for x^6 in 2-group mode")
    return f"separation witnesses re-verified ({built} witnesses)"


SUITES: List[Callable[[int], str]] = [
    _suite_normal_forms,
    _suite_confluence,
    _suite_conjugacy,
    _suite_cyclic,
    _suite_consonants,
    _suite_centralizers,
    _suite_parabolics,
    _suite_witnesses,
]


def run_selftest(seed: int = 0, out=None) -> int:
    """Run every suite; print one line per suite; 0 on success."""
    import sys

    out = out or sys.stdout
    failures = 0
    for suite in SUITES:
        name = suite.__name__.removeprefix("_suite_")
        start = time.perf_counter()
        try:
            detail = suite(seed)
            elapsed = time.perf_counter() - start
            print(f"ok {name}: {detail} [{elapsed:.1f}s]", file=out)
        except SelfTestFailure as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=out)
        except Exception as exc:  # a library error fails its suite; the rest still run
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}", file=out)
            traceback.print_exc(file=sys.stderr)
    print(("selftest passed" if not failures else f"selftest failed ({failures} suites)"), file=out)
    return 0 if failures == 0 else 1
