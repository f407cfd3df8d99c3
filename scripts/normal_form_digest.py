#!/usr/bin/env python3
"""Print one SHA-256 digest per normal-form, search and amalgam function over seeded inputs.

Each seed builds a random graph (2-10 vertices over Z, Z/n and S3) and random
words on it, and feeds the keys returned by reduce, multiply, invert,
canonical_form, cyclically_reduce (core and conjugator), are_conjugate
(verdict, tag and conjugator) and iter_ball (radius 3, and radius 3 with
window 2 on a second vertex subset) into one hash per function.  A second,
smaller random graph (2-4 vertices) feeds the bounded searches at radius 2-3:
brute_force_conjugate, centralizer_structure_check, centralizer_check,
amalgam_conjugate_by, and the exact parabolic_intersection, whose line keeps
the name and bytes of the former parabolic_intersection_search.  Last, words of at
most 12 syllables on the first graph feed the JSON of residual_witness and
of conjugacy_witness on non-conjugate pairs.  The "render" line hashes the
text Element.render prints for the 40 reduced words of each seed (Z
exponents of both signs, Z/n residues, S3 names).

The remaining lines draw from random generators of their own, so the lines
above keep their inputs.  "amalgam_form" splits reduced elements of a random graph (2-6
vertices) at every apex; "amalgam_form_of_word" splits unreduced random words
of up to 40 syllables and shuffles of them, which exercise the merging of
pieces across cancelled consonants; "sigma" builds the amalgam of two random
finite graph products (Z/2, Z/3 and S3 vertices) over a random vertex subset
and digests SigmaAmalgam.sigma and kernel_sample_check.  "shape" (length,
support, FL and LL), "ps_decompose" and "commuting_factors" take elements of
up to 40 syllables on 1-4 random vertices of a random graph (2-10 vertices),
and "parabolic_closure_of_cyclic" takes conjugates u c u^-1 of such elements
by words of up to 30 syllables.

Two checkouts that print the same digests return the same keys on every
input, so a change that must keep the normal form and the search results is
checked by running

    PYTHONPATH=src python3 scripts/normal_form_digest.py --seeds 20

in both checkouts and comparing the output.  tests/test_digest.py pins the
output at --seeds 20.
"""

import argparse
import hashlib
import json
import random
from collections import Counter

from graphprod import Word, corpus, parse_presentation
from graphprod.amalgam import (
    AmalgamError,
    SigmaAmalgam,
    amalgam_conjugate_by,
    amalgam_form,
    amalgam_form_of_word,
    centralizer_check,
    decompose_at,
)
from graphprod.conjugacy import are_conjugate, brute_force_conjugate
from graphprod.cyclic import commuting_factors, cyclically_reduce, ps_decompose
from graphprod.parabolic import (
    ParabolicSubgroup,
    centralizer_structure_check,
    parabolic_closure_of_cyclic,
    parabolic_intersection,
)
from graphprod.separability import conjugacy_witness, residual_witness
from graphprod.words import canonical_form, conjugate, invert, iter_ball, multiply, reduce, shape

FUNCTIONS = (
    "reduce",
    "multiply",
    "invert",
    "canonical_form",
    "cyclically_reduce.core",
    "cyclically_reduce.conjugator",
    "are_conjugate",
    "iter_ball",
    "iter_ball.subset",
    "brute_force_conjugate",
    "centralizer_structure_check",
    "centralizer_check",
    "amalgam_conjugate_by",
    "parabolic_intersection_search",
    "residual_witness",
    "conjugacy_witness",
    "render",
    "amalgam_form",
    "amalgam_form_of_word",
    "sigma",
    "shape",
    "ps_decompose",
    "commuting_factors",
    "parabolic_closure_of_cyclic",
)


def s3_table():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return {"table": {"elements": ["e", "r", "r2", "s", "sr", "sr2"], "mul": table, "identity": 0}}


def random_presentation(rng: random.Random, max_vertices=10, min_vertices=2, finite=False, prefix="v"):
    n = rng.randint(min_vertices, max_vertices)
    density = rng.uniform(0.2, 0.8)
    if finite:
        groups = ["cyclic 2", "cyclic 3", s3_table()]
    else:
        groups = ["Z", "cyclic 2", "cyclic 3", "cyclic 5", s3_table()]
    vertices = [{"name": f"{prefix}{i}", "group": rng.choice(groups)} for i in range(n)]
    edges = [[f"{prefix}{i}", f"{prefix}{j}"] for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))


def digest_seed(seed: int, hashes, counts) -> None:
    rng = random.Random(seed)
    pres = random_presentation(rng)

    def feed(name, value):
        hashes[name].update(repr(value).encode())
        counts[name] += 1

    def element(max_len):
        return reduce(pres, corpus.random_word(pres, rng, max_len, z_window=3))

    elements = [element(200) for _ in range(40)]
    for e in elements:
        feed("reduce", e.key)
        feed("render", e.render())
        feed("invert", invert(e).key)
        shuffled = corpus.shuffled_variant(pres, e.word(), rng, steps=4 * len(e))
        feed("canonical_form", canonical_form(pres, shuffled))
        r = cyclically_reduce(conjugate(element(30), e))
        feed("cyclically_reduce.core", r.reduced.key)
        feed("cyclically_reduce.conjugator", r.conjugator.key)
    for a, b in zip(elements, elements[1:]):
        feed("multiply", multiply(a, b).key)
    for _ in range(30):
        x = element(24)
        y = conjugate(element(12), x) if rng.random() < 0.5 else element(24)
        verdict = are_conjugate(x, y)
        conjugator = None if verdict.conjugator is None else verdict.conjugator.key
        feed("are_conjugate", (verdict.conjugate, verdict.refutation, conjugator))
    ball_vertices = rng.sample(pres.vertices, min(3, len(pres.vertices)))
    for key in iter_ball(pres, 3, window=1, vertices=ball_vertices):
        feed("iter_ball", key)
    ball_vertices = rng.sample(pres.vertices, rng.randint(1, min(4, len(pres.vertices))))
    for key in iter_ball(pres, 3, window=2, vertices=ball_vertices):
        feed("iter_ball.subset", key)
    digest_searches(random_presentation(rng, max_vertices=4), rng, feed)
    for _ in range(5):
        x = element(12)
        if not x.is_identity:
            feed("residual_witness", residual_witness(x).to_json())
        # a conjugate of x times one syllable often keeps the support and length
        y = element(12) if rng.random() < 0.5 else conjugate(element(4), multiply(x, element(1)))
        if not are_conjugate(x, y).conjugate:
            feed("conjugacy_witness", conjugacy_witness(x, y).to_json())
    digest_amalgams(seed, feed)
    digest_structure(seed, feed)


def keys(elements):
    return tuple(e.key for e in elements)


def digest_searches(pres, rng: random.Random, feed) -> None:
    alphabet = corpus.syllable_alphabet(pres, z_window=2)

    def element_on(vertices, max_len, min_len=0):
        letters = [s for s in alphabet if s.vertex in vertices]
        length = rng.randint(min_len, max_len) if letters else 0
        return reduce(pres, Word(tuple(rng.choice(letters) for _ in range(length))))

    everywhere = set(pres.vertices)
    for _ in range(3):
        x = element_on(everywhere, 4)
        y = conjugate(element_on(everywhere, 2), x) if rng.random() < 0.5 else element_on(everywhere, 4)
        found = brute_force_conjugate(x, y, 2)
        feed("brute_force_conjugate", (found.status, found.conjugator and found.conjugator.key))

    g = cyclically_reduce(element_on(everywhere, 5, 1)).reduced
    report = centralizer_structure_check(g, 3)
    feed("centralizer_structure_check", (report.ball_size, keys(report.centralizer), keys(report.violations)))

    # c1 x1 ... cn xn at a random apex: consonants on the apex, pieces on the A-side
    view = decompose_at(pres, rng.choice(pres.vertices))

    def consonant_leading():
        e = element_on({view.apex}, 1, 1)
        for _ in range(rng.randint(0, 2)):
            e = multiply(multiply(e, element_on(view.a_vertices, 2)), element_on({view.apex}, 1, 1))
        return multiply(e, element_on(view.a_vertices, 2))

    for _ in range(3):
        g = consonant_leading()
        try:
            report = centralizer_check(view, g, 2)
            feed("centralizer_check", (report.kind, report.unresolved, keys(report.centralizer), keys(report.violations)))
        except AmalgamError as exc:
            feed("centralizer_check", ("AmalgamError", str(exc)))
        b_vertices = set(rng.sample(sorted(view.a_vertices), rng.randint(0, len(view.a_vertices))))
        b = element_on(b_vertices, 2) if rng.random() < 0.5 else element_on(everywhere, 2)
        f = conjugate(b, g) if rng.random() < 0.75 else consonant_leading()
        try:
            answer = amalgam_conjugate_by(view, b_vertices, f, g, 2)
            conjugator = answer.conjugator and answer.conjugator.key
            feed("amalgam_conjugate_by", (answer.status, conjugator, answer.failed_condition))
        except AmalgamError as exc:
            feed("amalgam_conjugate_by", ("AmalgamError", str(exc)))

    def parabolic():
        core = frozenset(rng.sample(pres.vertices, rng.randint(1, len(pres.vertices))))
        return ParabolicSubgroup(element_on(everywhere, 2), core)

    found = parabolic_intersection(parabolic(), parabolic())
    core = sorted(found.core, key=pres.vertex_index)
    feed("parabolic_intersection_search", ("found", found.conjugator.key, core))


def digest_amalgams(seed: int, feed) -> None:
    """The amalgam_form, amalgam_form_of_word and sigma lines, one generator each."""

    def form_parts(view, form):
        decode = view.pres.by_index[view.apex_index].decode
        return keys(form.x_pieces), tuple(decode(c) for c in form.consonants)

    rng = random.Random(f"amalgam_form {seed}")
    pres = random_presentation(rng, max_vertices=6)
    views = [decompose_at(pres, v) for v in pres.vertices]
    for _ in range(10):
        e = reduce(pres, corpus.random_word(pres, rng, 40))
        for view in views:
            feed("amalgam_form", form_parts(view, amalgam_form(view, e)))

    rng = random.Random(f"amalgam_form_of_word {seed}")
    pres = random_presentation(rng, max_vertices=6)
    views = [decompose_at(pres, v) for v in pres.vertices]
    for _ in range(10):
        w = corpus.random_word(pres, rng, 40)
        for word in (w, corpus.shuffled_variant(pres, w, rng, steps=4 * len(w))):
            for view in views:
                feed("amalgam_form_of_word", form_parts(view, amalgam_form_of_word(view, word)))

    rng = random.Random(f"sigma {seed}")
    q_pres = random_presentation(rng, max_vertices=3, min_vertices=1, finite=True, prefix="q")
    s_pres = random_presentation(rng, max_vertices=3, min_vertices=1, finite=True, prefix="s")
    r_vertices = rng.sample(q_pres.vertices, rng.randint(0, len(q_pres.vertices)))
    amalgam = SigmaAmalgam(q_pres, s_pres, r_vertices)
    for _ in range(10):
        e = reduce(amalgam.presentation, corpus.random_word(amalgam.presentation, rng, 20))
        feed("sigma", keys(amalgam.sigma(e)))
    report = amalgam.kernel_sample_check(corpus.random_words(amalgam.presentation, 20, 12, rng.randrange(1 << 30)))
    feed("sigma", (report.samples, report.nontrivial, keys(report.failures)))


def digest_structure(seed: int, feed) -> None:
    """The shape, ps_decompose, commuting_factors and parabolic_closure_of_cyclic lines."""

    def setup(name):
        rng = random.Random(f"{name} {seed}")
        pres = random_presentation(rng)
        alphabet = corpus.syllable_alphabet(pres, z_window=3)

        def element_on_few_vertices():
            vertices = rng.sample(pres.vertices, rng.randint(1, min(4, len(pres.vertices))))
            letters = [s for s in alphabet if s.vertex in vertices]
            return reduce(pres, Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 40)))))

        return rng, pres, element_on_few_vertices

    _, _, element = setup("shape")
    for _ in range(40):
        report = shape(element())
        feed("shape", (report.length, sorted(report.support), sorted(report.first_letters), sorted(report.last_letters)))

    _, _, element = setup("ps_decompose")
    for _ in range(40):
        ps = ps_decompose(element())
        feed("ps_decompose", (ps.s_part.key, ps.p_part.key, sorted(ps.s_vertices), sorted(ps.p_vertices)))

    _, _, element = setup("commuting_factors")
    for _ in range(40):
        feed("commuting_factors", tuple((root, e.key) for root, e in commuting_factors(element()).items()))

    rng, pres, element = setup("parabolic_closure_of_cyclic")
    for _ in range(40):
        u = reduce(pres, corpus.random_word(pres, rng, 30, z_window=3))
        closure = parabolic_closure_of_cyclic(conjugate(u, element()))
        feed("parabolic_closure_of_cyclic", (closure.conjugator.key, sorted(closure.core)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=20, help="number of seeded graphs (seeds 0..N-1)")
    args = parser.parse_args()
    hashes = {name: hashlib.sha256() for name in FUNCTIONS}
    counts = Counter()
    for seed in range(args.seeds):
        digest_seed(seed, hashes, counts)
    for name in FUNCTIONS:
        print(f"{name:30s} {counts[name]:7d} {hashes[name].hexdigest()}")


if __name__ == "__main__":
    main()
