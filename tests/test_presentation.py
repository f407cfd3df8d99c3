import itertools
import json
import random
import time
from pathlib import Path

import pytest

from graphprod import (
    corpus,
    PresentationError,
    WordError,
    link_of,
    parse_presentation,
    parse_word,
    render_word,
    star_of,
    vertex_conjugate_test,
    vertex_mul,
)
from graphprod.amalgam import SigmaAmalgam
from graphprod.presentation import CyclicGroup, FiniteTableGroup, induced_presentation

from oracles import associative_by_triples


def doc(vertices, edges):
    return json.dumps({"vertices": vertices, "edges": edges})


def s3_table():
    """S3 as permutations of (0,1,2); the multiplication table is derived here."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    names = ["e", "r", "r2", "s", "sr", "sr2"]
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return names, table, perms


def test_parse_path_racg_roundtrip(path_racg):
    assert path_racg.vertices == ("a", "b", "c")
    assert path_racg.graph.edges == frozenset({("a", "b"), ("b", "c")})
    assert all(path_racg.groups[v].order == 2 for v in "abc")


def test_loop_edge_rejected():
    with pytest.raises(PresentationError, match="loop"):
        parse_presentation(doc([{"name": "a", "group": "cyclic 2"}], [["a", "a"]]))


def test_duplicate_edge_rejected():
    vertices = [{"name": "a", "group": "Z"}, {"name": "b", "group": "Z"}]
    with pytest.raises(PresentationError, match="duplicate edge"):
        parse_presentation(doc(vertices, [["a", "b"], ["b", "a"]]))


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(PresentationError, match="unknown vertex"):
        parse_presentation(doc([{"name": "a", "group": "Z"}], [["a", "b"]]))


def test_free_product_of_integers(free_zz):
    assert free_zz.graph.edges == frozenset()
    assert free_zz.groups["x"].kind == "Z"


def test_non_latin_square_rejected():
    bad = {"table": {"elements": ["e", "g"], "mul": [[0, 1], [1, 1]], "identity": 0}}
    with pytest.raises(PresentationError, match="Latin"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_nonassociative_loop_rejected():
    # a 5-element Latin square with identity that is not a group
    mul = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    bad = {"table": {"elements": list("eabcd"), "mul": mul, "identity": 0}}
    with pytest.raises(PresentationError, match="associative"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_edge_endpoint_that_is_not_a_name_rejected():
    vertices = [{"name": "u", "group": "Z"}, {"name": "v", "group": "Z"}]
    with pytest.raises(PresentationError, match="edges"):
        parse_presentation(doc(vertices, [[["u"], "v"]]))


def test_table_elements_that_are_not_a_list_rejected():
    bad = {"table": {"elements": 5, "mul": [[0]], "identity": 0}}
    with pytest.raises(PresentationError, match="list of elements"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_table_elements_that_are_a_string_rejected():
    bad = {"table": {"elements": "eg", "mul": [[0, 1], [1, 0]], "identity": 0}}
    with pytest.raises(PresentationError, match="list of elements"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


@pytest.mark.parametrize("elements", [[None, 1.5], ["e", True]])
def test_table_element_names_that_are_not_strings_rejected(elements):
    # str() would load the names "None", "1.5" and "True"
    bad = {"table": {"elements": elements, "mul": [[0, 1], [1, 0]], "identity": 0}}
    with pytest.raises(PresentationError, match="bad element name"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_table_mul_that_is_not_a_list_rejected():
    bad = {"table": {"elements": ["e"], "mul": 0, "identity": 0}}
    with pytest.raises(PresentationError, match="list of rows"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_table_mul_row_that_is_not_a_list_rejected():
    bad = {"table": {"elements": ["e", "g"], "mul": [0, 1], "identity": 0}}
    with pytest.raises(PresentationError, match="list of rows"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_boolean_identity_rejected():
    # element 1 is the identity, so true read as the int 1 would load a valid group
    bad = {"table": {"elements": ["g", "e"], "mul": [[1, 0], [0, 1]], "identity": True}}
    with pytest.raises(PresentationError, match="identity index"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_boolean_table_entry_rejected():
    bad = {"table": {"elements": ["e", "g"], "mul": [[False, True], [True, False]], "identity": 0}}
    with pytest.raises(PresentationError, match="table entry"):
        parse_presentation(doc([{"name": "a", "group": bad}], []))


def test_boolean_modulus_rejected():
    with pytest.raises(PresentationError, match="modulus"):
        parse_presentation(doc([{"name": "a", "group": {"mod": True}}], []))


def test_cyclic_with_a_non_decimal_digit_rejected():
    # "\u00b2".isdigit() holds, but int() cannot read it
    with pytest.raises(PresentationError, match="unknown vertex group"):
        parse_presentation(doc([{"name": "a", "group": "cyclic \u00b2"}], []))


def test_json_nested_too_deep_to_decode_rejected():
    with pytest.raises(PresentationError, match="not valid JSON"):
        parse_presentation("[" * 100000)


def test_table_group_axioms_hold_after_load():
    # S3, Z on the keys -4..4, and Z/1, Z/2, Z/6: the group axioms hold, every
    # key an operation returns is an exact int (in [0, n) for a finite group),
    # and parsing a value's text gives the key that encoding the value gives
    names, table, _ = s3_table()
    for group in [FiniteTableGroup(names, table, 0), CyclicGroup(), CyclicGroup(1), CyclicGroup(2), CyclicGroup(6)]:
        e = group.identity_key
        nontrivial = list(group.nontrivial_keys(4))
        assert nontrivial == sorted(nontrivial) and e not in nontrivial
        keys = [e, *nontrivial]
        assert len(keys) == (9 if group.order is None else group.order)

        def canonical(key):
            return type(key) is int and (group.order is None or 0 <= key < group.order)

        for a, b, c in itertools.product(keys, repeat=3):
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        for a in keys:
            assert group.mul(a, group.inv(a)) == e == group.mul(group.inv(a), a)
            assert group.mul(e, a) == a == group.mul(a, e)
            assert canonical(group.inv(a)) and all(canonical(group.mul(a, b)) for b in keys)
        values = names if group.kind == "table" else range(-13, 14)
        for value in values:
            assert canonical(group.encode(value)) and group.parse_value(str(value)) == group.encode(value)


def random_loop(n, rng):
    """A random Latin square with a two-sided identity, its labels shuffled."""
    rows = [[0] * n for _ in range(n)]
    rows[0] = list(range(n))
    for i in range(n):
        rows[i][0] = i

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            return fill(cell + 1)
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        for x in rng.sample(range(n), n):
            if x not in used:
                rows[i][j] = x
                if fill(cell + 1):
                    return True
        return False

    assert fill(0)
    return relabel(rows, rng)


def relabel(rows, rng):
    n = len(rows)
    perm = rng.sample(range(n), n)  # new label of each old label
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[rows[i][j]]
    return out, perm[0]


def test_associativity_matches_all_triples():
    # Light's test against the n^3 scan on 1,500 Latin squares with identity
    rng = random.Random(5)
    _, s3, _ = s3_table()
    groups = [[[(i + j) % n for j in range(n)] for i in range(n)] for n in (5, 6)] + [s3]
    verdicts = set()
    for trial in range(1500):
        if trial % 10 == 0:
            rows, identity = relabel(rng.choice(groups), rng)
        else:
            rows, identity = random_loop(trial % 6 + 1, rng)
        names = [f"e{i}" for i in range(len(rows))]
        associative = associative_by_triples(rows)
        verdicts.add(associative)
        try:
            FiniteTableGroup(names, rows, identity)
            accepted = True
        except PresentationError as exc:
            assert "associative" in str(exc)
            accepted = False
        assert accepted == associative, rows
    assert verdicts == {True, False}


def test_large_tables_load_fast():
    # Light's test needs log2(n) + 1 generators: one for Z/400, eight for XOR on 256
    for n, op in ((400, lambda i, j: (i + j) % 400), (256, lambda i, j: i ^ j)):
        rows = [[op(i, j) for j in range(n)] for i in range(n)]
        start = time.perf_counter()
        group = FiniteTableGroup([f"e{i}" for i in range(n)], rows, 0)
        assert time.perf_counter() - start < 0.5
        assert all(group.mul(a, group.inv(a)) == 0 == group.mul(group.inv(a), a) for a in range(n))
    rows[5][7] = rows[5][8]  # one wrong entry
    with pytest.raises(PresentationError):
        FiniteTableGroup([f"e{i}" for i in range(256)], rows, 0)


def test_parse_word_basics(path_racg, free_zz):
    w = parse_word(path_racg, "a[1] b[1] a[1]")
    assert [s.vertex for s in w.syllables] == ["a", "b", "a"]
    assert parse_word(path_racg, "1").syllables == ()
    assert parse_word(path_racg, "").syllables == ()
    w2 = parse_word(free_zz, "x[3] y[-2]")
    assert [(s.vertex, s.value) for s in w2.syllables] == [("x", 3), ("y", -2)]


def test_parse_word_errors(path_racg, free_zz):
    with pytest.raises(WordError, match="unknown vertex"):
        parse_word(path_racg, "z[1]")
    with pytest.raises(WordError):
        parse_word(free_zz, "x[one]")
    with pytest.raises(WordError, match="bad token"):
        parse_word(path_racg, "a1")


def test_word_render_roundtrip(all_presentations):
    samples = {
        "path-racg": "a[1] b[1] a[1] c[1]",
        "star-racg": "c[1] l1[1] l2[1]",
        "free-zz": "x[3] y[-2] x[1]",
        "edge-zz": "x[-1] y[5]",
        "triangle-mixed": "u[t] v[2] w[3]",
    }
    for name, pres in all_presentations.items():
        w = parse_word(pres, samples[name])
        assert parse_word(pres, render_word(pres, w)) == w
    assert render_word(all_presentations["path-racg"], parse_word(all_presentations["path-racg"], "1")) == "1"


def test_vertex_mul_examples():
    assert vertex_mul(CyclicGroup(2), 1, 1) == 0
    assert vertex_mul(CyclicGroup(), 3, -2) == 1
    assert vertex_mul(CyclicGroup(4), 3, 2) == 1


def test_vertex_conjugacy_in_s3_matches_permutation_search():
    names, table, perms = s3_table()
    group = FiniteTableGroup(names, table, 0)
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    invert = lambda p: tuple(sorted(range(3), key=lambda i: p[i]))
    # transpositions s = (0 1) and sr2 = (0 2) must be conjugate
    found, conj = vertex_conjugate_test(group, "s", "sr2")
    assert found
    t = perms[names.index(conj)]
    assert compose(compose(t, perms[names.index("s")]), invert(t)) == perms[names.index("sr2")]
    # a transposition is never conjugate to a 3-cycle
    found, _ = vertex_conjugate_test(group, "s", "r")
    assert not found
    # exhaustive agreement with a raw permutation search
    for a in names:
        for b in names:
            direct = any(
                compose(compose(t, perms[names.index(a)]), invert(t)) == perms[names.index(b)]
                for t in perms
            )
            assert vertex_conjugate_test(group, a, b)[0] == direct


def test_conjugacy_in_abelian_groups_is_equality():
    z = CyclicGroup()
    assert vertex_conjugate_test(z, 1, 2) == (False, None)
    assert vertex_conjugate_test(z, 2, 2) == (True, 0)
    m = CyclicGroup(4)
    assert vertex_conjugate_test(m, 1, 3) == (False, None)
    assert vertex_conjugate_test(m, 3, 3) == (True, 0)


def test_link_and_star(path_racg):
    g = path_racg.graph
    assert link_of(g, {"b"}) == {"a", "c"}
    assert star_of(g, {"a", "c"}) == {"b"}
    assert link_of(g, set()) == {"a", "b", "c"}
    assert star_of(g, set()) == {"a", "b", "c"}
    with pytest.raises(PresentationError):
        link_of(g, {"nope"})


def test_link_star_antitone(triangle_mixed, star_racg):
    for pres in (triangle_mixed, star_racg):
        g = pres.graph
        vertices = list(g.vertices)
        for i in range(len(vertices)):
            smaller = set(vertices[:i])
            larger = set(vertices[: i + 1])
            assert link_of(g, larger) <= link_of(g, smaller)
            assert star_of(g, larger) <= star_of(g, smaller)


def random_finite_presentation(rng, prefix):
    """2-8 vertices whose names sort in a different order than their indices, edges in either orientation."""
    names = [f"{prefix}{k}" for k in rng.sample(range(20), rng.randint(2, 8))]
    vertices = [{"name": v, "group": rng.choice(["cyclic 2", "cyclic 3"])} for v in names]
    density = rng.random()
    edges = [rng.choice([[u, v], [v, u]]) for i, u in enumerate(names) for v in names[i + 1 :] if rng.random() < density]
    return parse_presentation(doc(vertices, edges))


def assert_adjacency_agrees(pres):
    """iadj is loop-free and symmetric, and edges, link, star and istar all read the same adjacency."""
    g = pres.graph
    names = g.vertices
    pairs = set()
    for i, adj in enumerate(g.iadj):
        assert i not in adj
        assert all(i in g.iadj[j] for j in adj)
        pairs |= {tuple(sorted((names[i], names[j]))) for j in adj}
        assert g.link(names[i]) == {names[j] for j in adj}
        assert g.star(names[i]) == {names[j] for j in adj} | {names[i]}
        assert pres.istar[i] == adj | {i}
    assert pairs == g.edges


def test_adjacency_has_one_source():
    rng = random.Random("adjacency")
    for _ in range(200):
        q = random_finite_presentation(rng, "q")
        s = random_finite_presentation(rng, "s")
        r = rng.sample(q.vertices, rng.randint(0, len(q.vertices)))
        sub = induced_presentation(q, rng.sample(q.vertices, rng.randint(1, len(q.vertices))))
        for pres in (q, s, sub, SigmaAmalgam(q, s, r).presentation):
            assert_adjacency_agrees(pres)


DATA = Path(__file__).parent / "data"


def test_data_files_match_corpus_configs():
    # the goldens and the benchmark read these files; gp selftest builds the configs
    files = {path.stem: json.loads(path.read_text()) for path in DATA.glob("*.json")}
    assert files == {**corpus.CORPUS_CONFIGS, "path-c3-end": corpus.PATH_C3_END, "path-c3-mid": corpus.PATH_C3_MID}
