"""End-to-end checks over a presentation with a nonabelian table vertex group."""

import json
import random

import pytest

from graphprod import corpus, parse_presentation
from graphprod.words import ball, conjugate, element_of, invert, multiply, power, reduce
from graphprod.cyclic import cyclically_reduce, is_cyclically_reduced
from graphprod.conjugacy import are_conjugate, brute_force_conjugate, conjugacy_class_in_ball
from graphprod.amalgam import (
    amalgam_conjugate_by,
    centralizer_check,
    conjugator_classify,
    consonant_leading_form,
    decompose_at,
    is_amalgam_cyclically_reduced,
    multiply_out,
)
from graphprod.parabolic import centralizer_structure_check, parabolic_closure_of_cyclic, parabolic_membership
from graphprod.separability import ALL_FINITE, conjugacy_witness, residual_witness


def s3_config():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    names = ["e", "r", "r2", "s", "sr", "sr2"]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return {"table": {"elements": names, "mul": table, "identity": 0}}


@pytest.fixture(scope="module")
def s3_path():
    # g -- m -- z: S3 at one end, Z at the other, C2 in the middle
    doc = {
        "vertices": [
            {"name": "g", "group": s3_config()},
            {"name": "m", "group": "cyclic 2"},
            {"name": "z", "group": "Z"},
        ],
        "edges": [["g", "m"], ["m", "z"]],
    }
    return parse_presentation(json.dumps(doc))


def test_words_and_shapes(s3_path):
    # m commutes with g, so the S3 syllables join across it; z does not
    assert element_of(s3_path, "g[r] m[1] g[r2]").render() == "m[1]"
    e = element_of(s3_path, "g[r] z[1] g[r2]")
    assert e.render() == "g[r] z[1] g[r2]"
    assert element_of(s3_path, "g[r] g[r2]").is_identity
    assert element_of(s3_path, "g[s] m[1] z[2]").support() == {"g", "m", "z"}
    # table values multiply by the table, not commutatively
    sr = multiply(element_of(s3_path, "g[s]"), element_of(s3_path, "g[r]"))
    rs = multiply(element_of(s3_path, "g[r]"), element_of(s3_path, "g[s]"))
    assert sr != rs


def test_conjugacy_uses_table_search(s3_path):
    x = element_of(s3_path, "g[s]")
    y = element_of(s3_path, "g[sr]")
    verdict = are_conjugate(x, y)
    assert verdict.conjugate
    assert conjugate(verdict.conjugator, x) == y
    assert not are_conjugate(x, element_of(s3_path, "g[r]")).conjugate
    # with a central C2 syllable attached, the clique part still decides
    xm = element_of(s3_path, "g[s] m[1]")
    ym = element_of(s3_path, "g[sr2] m[1]")
    v2 = are_conjugate(xm, ym)
    assert v2.conjugate and conjugate(v2.conjugator, xm) == ym
    assert are_conjugate(xm, element_of(s3_path, "g[r] m[1]")).refutation == "s-part-not-conjugate"


def test_criterion_matches_ball_oracle(s3_path):
    rng = random.Random(3)
    elements = corpus.corpus_elements(s3_path, max_len=3, z_window=1)
    sample = sorted({elements[rng.randrange(len(elements))] for _ in range(10)})
    for x in sample:
        reachable = conjugacy_class_in_ball(x, 3)
        for y in sample:
            verdict = are_conjugate(x, y)
            if y in reachable:
                assert verdict.conjugate
            if verdict.conjugate:
                assert conjugate(verdict.conjugator, x) == y
                w = verdict.conjugator
                if len(w) <= 3 and all(abs(v) <= 3 for _, v in w.key):
                    assert brute_force_conjugate(x, y, 3).found


def test_classification_on_ball_conjugators(s3_path):
    view = decompose_at(s3_path, "g")
    rng = random.Random(5)
    seen_cases = set()
    for _ in range(300):
        g = cyclically_reduce(reduce(s3_path, corpus.random_word(s3_path, rng, 4, z_window=1))).reduced
        try:
            gform = consonant_leading_form(view, g)
        except Exception:
            continue
        if not is_amalgam_cyclically_reduced(view, gform):
            continue
        if gform.x_pieces[-1].support() <= view.h_vertices:
            continue
        for u in ball(s3_path, 2, window=2):
            f = conjugate(u, g)
            try:
                fform = consonant_leading_form(view, f)
            except Exception:
                continue
            if not is_amalgam_cyclically_reduced(view, fform):
                continue
            if multiply_out(view, fform) != f or fform.consonants != gform.consonants:
                continue
            got = conjugator_classify(view, gform, fform, u)
            seen_cases.add(got.case)
            if got.case == "a":
                assert got.h == u and u.support() <= view.h_vertices
            elif got.case == "b":
                rebuilt = multiply(multiply(got.h, invert(got.piece)), power(g, -got.exponent))
                assert rebuilt == u
            else:
                rebuilt = multiply(multiply(got.h, got.piece), power(g, got.exponent))
                assert rebuilt == u
    assert {"a", "b", "c"} <= seen_cases


def test_amalgam_conjugacy_and_centralizers(s3_path):
    view = decompose_at(s3_path, "g")
    g = element_of(s3_path, "g[r] z[1]")
    rot = conjugate(element_of(s3_path, "z[-1]"), g)
    answer = amalgam_conjugate_by(view, view.a_vertices, rot, g, 4)
    assert answer.status == "yes" and conjugate(answer.conjugator, g) == rot

    report = centralizer_check(view, element_of(s3_path, "g[r] m[1]"), 3)
    assert report.kind == "product" and report.ok
    # r has centralizer <r> inside S3, and m is central here
    assert {e.render() for e in report.centralizer} == {
        "1", "g[r]", "g[r2]", "m[1]", "g[r] m[1]", "g[r2] m[1]",
    }

    rep2 = centralizer_structure_check(element_of(s3_path, "g[s]"), 3)
    assert rep2.ok
    assert {e.render() for e in rep2.centralizer} == {"1", "g[s]", "m[1]", "g[s] m[1]"}


def test_parabolics_and_witnesses(s3_path):
    g = element_of(s3_path, "z[1] g[s] z[-1]")
    closure = parabolic_closure_of_cyclic(g)
    assert closure.core == {"g"} and parabolic_membership(closure, g)

    w = residual_witness(element_of(s3_path, "g[s] z[4]"), ALL_FINITE)
    assert w.verify()
    assert w.family.moduli["g"] is None  # the table group is kept

    pair = conjugacy_witness(
        element_of(s3_path, "g[s] m[1]"), element_of(s3_path, "g[r] m[1]"), ALL_FINITE
    )
    assert pair.verify() and pair.certificate_tag == "s-part-not-conjugate"


def test_cyclic_reduction_of_long_conjugates():
    # u c u^-1 with a 160-syllable core c over Z, Z/n and S3 vertices.  c is a
    # walk in the complement graph (no two neighbours commute), so it is reduced,
    # its only first letter is its first vertex and its only last letter its last
    # vertex; these differ, so c is cyclically reduced.
    doc = {
        "vertices": [
            {"name": "a", "group": "Z"},
            {"name": "b", "group": "cyclic 5"},
            {"name": "g", "group": s3_config()},
            {"name": "d", "group": "Z"},
            {"name": "e", "group": "cyclic 3"},
            {"name": "f", "group": s3_config()},
        ],
        "edges": [["a", "b"], ["b", "g"], ["g", "d"], ["d", "e"], ["e", "a"], ["a", "f"], ["f", "d"]],
    }
    pres = parse_presentation(json.dumps(doc))
    rng = random.Random(1)

    def syllable(v):
        group = pres.groups[v]
        if group.kind == "table":
            return f"{v}[{rng.choice(group.elements[1:])}]"
        if group.kind == "mod":
            return f"{v}[{rng.randint(1, 2)}]"
        return f"{v}[{rng.choice([-2, -1, 1, 2])}]"

    def apart(v, *others):
        # vertices that neither equal nor commute with v
        return [u for u in pres.vertices if u not in (v, *others) and u not in pres.graph.link(v)]

    walk = [pres.vertices[0]]
    while len(walk) < 159:
        walk.append(rng.choice(apart(walk[-1])))
    walk.append(rng.choice(apart(walk[-1], walk[0])))
    c = element_of(pres, " ".join(syllable(v) for v in walk))
    assert len(c) == 160 and {pres.groups[v].kind for v in c.support()} == {"Z", "mod", "table"}
    u = element_of(pres, " ".join(syllable(rng.choice(pres.vertices)) for _ in range(60)))
    assert len(u) >= 40
    g = conjugate(u, c)

    r = cyclically_reduce(g)
    assert conjugate(r.conjugator, r.reduced) == g
    assert is_cyclically_reduced(r.reduced)
    assert len(r.reduced) == len(c)
    assert len(g) - len(r.reduced) >= 80  # long peeling, not a few end syllables
    assert are_conjugate(r.reduced, c).conjugate
