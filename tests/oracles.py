"""Independent reference computations the tests check the library against.

Everything here works on raw syllable tuples with explicit enumeration and
never calls the reduction engine's internals, apart from the final `_make` of
the two cyclic reductions, of `invert_by_syllable` and of each rotation in
`rotation_closure_by_make`.  Five replaced engine loops are kept as
references: `push_syllable`, the one-syllable push that the batched
`words._push` replaced (`fold_push` folds it over a word);
`cyclic_reduction_by_repush`, which pushes both end syllables back on at each
step; `cyclic_reduction_by_rescan`, which rescans the word for its movable
vertices at each step; `rotation_closure_by_make`, the rotation closure that
reduced each rotation in full and kept Elements; and `ball_by_levels`, the
ball walk that stored every level.  The replaced parse loop, which built one
Syllable per token, is kept as `parse_word_by_syllables`.  The loops that
translated every position of a word, which the per-call dicts of
`words.key_of_word`, `Element.word` and `words.invert` replaced, are kept as
`key_of_word_by_syllable` (encode), `word_of_key` (decode) and
`invert_by_syllable`.  The rewriting closure that searched tuple states, one
`single_step_rewrites` call per state, is kept as
`brute_force_equal_by_tuples`, the reference for `words.brute_force_equal`
on string states.  The ball comparisons that multiplied Elements per ball
element are kept as `brute_force_conjugate_by_multiply` and
`compare_centralizer_by_multiply`; the first walks the whole ball, with no
pruning.  The structure check's prediction that multiplied each ball
element's core retraction with g both ways is kept as
`centralizer_structure_check_by_pushes`, and the product-branch prediction of
`amalgam.centralizer_check` that multiplied each star element's apex and
H-side retractions with g's factors both ways is kept as
`centralizer_product_prediction_by_multiply`.  The witness loop that formed every
product r_i·r_j^-1 is kept as `distinctness_by_products`, the reference for
`separability._collect_distinctness`, which reads the products' values off
the boundary of each pair.  `right_angled_is_identity` decides the word problem
of right-angled Coxeter and Artin groups by a faithful linear action, with no
rewriting at all.
"""

import itertools
import math
from collections import deque
from functools import lru_cache

from graphprod.amalgam import (
    AmalgamError,
    CentralizerReport,
    ConjugatorClass,
    SubgroupConjugacy,
    amalgam_form,
    consonant_leading_form,
)
from graphprod.conjugacy import BruteForceConjugacy, are_conjugate
from graphprod.cyclic import commuting_factors, cyclic_permutation_conjugators, cyclically_reduce, ps_decompose
from graphprod.parabolic import (
    CentralizerStructureReport,
    ParabolicSubgroup,
    parabolic_generators,
    parabolic_membership,
)
from graphprod.presentation import _TOKEN_RE, Syllable, Word, WordError, induced_presentation, link_of
from graphprod.separability import _collect_shape_constraints
from graphprod.words import (
    BudgetExceededError,
    Element,
    _make,
    conjugate,
    identity,
    invert,
    iter_ball,
    key_of_word,
    multiply,
    power,
    reduce,
    retract_key,
)


def shuffle_class(pres, key):
    """All words reachable from a reduced word by legal adjacent swaps."""
    seen = {tuple(key)}
    queue = deque([tuple(key)])
    while queue:
        word = queue.popleft()
        for i in range(len(word) - 1):
            (u, uv), (w, wv) = word[i], word[i + 1]
            if u != w and w in pres.iadj[u]:
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return seen


def lexicographic_least_shuffle(pres, key):
    """The shuffle-equivalent word whose vertex sequence is lexicographically least."""
    return min(shuffle_class(pres, key), key=lambda w: tuple(vi for vi, _ in w))


def greedy_least_vertex_first(pres, key):
    """Linearize a reduced word by always emitting the least vertex that can come first.

    A syllable can come first when every syllable before it commutes with it.
    Rescans what is left for every syllable emitted, so it is quadratic.
    """
    remaining = list(key)
    out = []
    while remaining:
        best_pos = best_vi = None
        seen = set()
        for pos, (vi, _) in enumerate(remaining):
            if seen <= pres.iadj[vi] and (best_vi is None or vi < best_vi):
                best_pos, best_vi = pos, vi
            seen.add(vi)
        out.append(remaining.pop(best_pos))
    return tuple(out)


def ball_by_enumeration(pres, radius, window, vertices=None):
    """The keys of the radius ball, sorted by (length, key), from all short words.

    Builds every syllable sequence of length <= radius over the generating
    syllables, keeps the reduced ones, linearizes them greedily and removes
    duplicates: two reduced words are the same element iff they are shuffles
    of each other, so equal elements meet in one greedy linearization.
    """
    indices = range(len(pres.vertices)) if vertices is None else {pres.vertex_index(v) for v in vertices}
    gens = [(vi, val) for vi in sorted(indices) for val in pres.by_index[vi].nontrivial_keys(window)]

    def reduced(word):
        # no two syllables of one vertex with only commuting syllables between them
        for i, (vi, _) in enumerate(word):
            for uj, _ in word[i + 1 :]:
                if uj == vi:
                    return False
                if uj not in pres.iadj[vi]:
                    break
        return True

    words = [()]
    for length in range(radius):
        words += [w + (g,) for w in words if len(w) == length for g in gens]
    keys = {greedy_least_vertex_first(pres, w) for w in words if reduced(w)}
    return sorted(keys, key=lambda key: (len(key), key))


def ball_elements(pres, radius, window=None, vertices=None):
    """The Elements of the keys that `iter_ball` yields, in its order, lazily."""
    return (Element(pres, key) for key in iter_ball(pres, radius, window, vertices))


def ball_by_levels(pres, radius, window=None, vertices=None):
    """The radius ball in `iter_ball`'s order, as Elements, from a walk that
    stores every level and carries no product.

    Each parent is extended by the syllables that `_push` appends, found by
    the same backward scan as `iter_ball`'s.
    """
    window = radius if window is None else window
    indices = range(len(pres.vertices)) if vertices is None else sorted({pres.vertex_index(v) for v in vertices})
    gens = [(vi, pres.by_index[vi].nontrivial_keys(window)) for vi in indices]
    levels = [[identity(pres)]]
    for _ in range(radius):
        grown = []
        for e in levels[-1]:
            for vi, vals in gens:
                link = pres.iadj[vi]
                appends = True
                for ui, _ in reversed(e.key):
                    if ui not in link:
                        appends = ui != vi
                        break
                    if ui > vi:
                        appends = False
                        break
                if appends:
                    grown.extend(Element(pres, e.key + ((vi, val),)) for val in vals)
        levels.append(grown)
    return [e for level in levels for e in level]


def ball_size_by_growth_series(pres, radius, window=None, vertices=None):
    """The number of elements of each length 0 ... radius in the ball that
    `iter_ball` walks, from the growth series alone.

    With syllable length a vertex group offering n syllables, the n of
    `nontrivial_keys(window)`, has the growth series 1 + n z.  The series G of
    the graph product satisfies 1/G(z) = sum over the cliques s of the graph,
    the empty one included, of the product over v in s of (1/G_v(z) - 1)
    (Chiswell, Bull. LMS 26 (1994)), and 1/G_v(z) - 1 is the sum over k >= 1
    of (-n z)^k.  The series are cut after z^radius; 1/G starts with 1, so G
    has integer coefficients.
    """
    window = radius if window is None else window
    indices = range(len(pres.vertices)) if vertices is None else sorted({pres.vertex_index(v) for v in vertices})

    def times(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(radius + 1)]

    inverse = [1] + [0] * radius  # 1/G, from the empty clique on
    for size in range(1, len(indices) + 1):
        for clique in itertools.combinations(indices, size):
            if all(v in pres.iadj[u] for u, v in itertools.combinations(clique, 2)):
                term = [1] + [0] * radius
                for vi in clique:
                    n = len(pres.by_index[vi].nontrivial_keys(window))
                    term = times(term, [0] + [(-n) ** k for k in range(1, radius + 1)])
                inverse = [x + y for x, y in zip(inverse, term)]
    series = [1]
    for n in range(1, radius + 1):
        series.append(-sum(inverse[k] * series[n - k] for k in range(1, n + 1)))
    return series


def first_letters_by_enumeration(pres, element):
    names = pres.vertices
    return frozenset(names[w[0][0]] for w in shuffle_class(pres, element.key) if w)


def last_letters_by_enumeration(pres, element):
    names = pres.vertices
    return frozenset(names[w[-1][0]] for w in shuffle_class(pres, element.key) if w)


def word_of_key(pres, key):
    return Word(tuple(pres.decode_syllable(vi, val) for vi, val in key))


def rotations_by_enumeration(pres, element):
    """Every element obtained by rotating some shuffle of a reduced expression."""
    out = set()
    for word in shuffle_class(pres, element.key):
        for j in range(max(1, len(word))):
            rotated = word[j:] + word[:j]
            out.add(reduce(pres, word_of_key(pres, rotated)))
    return out


def all_rotations_reduced(pres, element, is_reduced):
    """Definitional cyclic-reducedness: every rotation of every expression is reduced."""
    for word in shuffle_class(pres, element.key):
        for j in range(len(word)):
            if not is_reduced(pres, word[j:] + word[:j]):
                return False
    return True


def alternating_form_by_restarts(pres, c_ids, h_ids, key):
    """The x-pieces and consonants of a key, merged by a loop that restarts.

    Splits the key into maximal runs on and off c_ids, then repeats until
    nothing changes: drop the leftmost identity consonant and merge the pieces
    around it, or else fold the leftmost interior piece that lies in h_ids
    into the piece before it, and its consonant into the consonant before it.
    """

    def element(syllables):
        return reduce(pres, word_of_key(pres, syllables))

    def in_h(x):
        return all(vi in h_ids for vi, _ in x.key)

    blocks = []
    for syl in key:
        on_c = syl[0] in c_ids
        if blocks and blocks[-1][0] == on_c:
            blocks[-1][1].append(syl)
        else:
            blocks.append((on_c, [syl]))
    xs, cs = [identity(pres)], []
    for on_c, syls in blocks:
        if on_c:
            cs.append(element(syls))
            xs.append(identity(pres))
        else:
            xs[-1] = multiply(xs[-1], element(syls))

    changed = True
    while changed:
        changed = False
        for i, c in enumerate(cs):
            if c.is_identity:
                xs[i] = multiply(xs[i], xs[i + 1])
                del xs[i + 1]
                del cs[i]
                changed = True
                break
        if changed:
            continue
        for j in range(1, len(cs)):
            if in_h(xs[j]):
                xs[j - 1] = multiply(xs[j - 1], xs[j])
                cs[j - 1] = multiply(cs[j - 1], cs[j])
                del xs[j]
                del cs[j]
                changed = True
                break
    return xs, cs


def conjugator_case_by_search(view, g_form, u):
    """The case of a verified conjugator u of g, by trying every prefix and power.

    Keeps the double loop that `amalgam.conjugator_classify` replaced: for
    case b the prefixes p of g shortest first, for case c the suffixes
    p^-1 g shortest first, and inside each piece the exponents 0..m for the
    m consonants of u; the first h = u g^l p (case b) or h = u g^-l s^-1
    (case c) in the H-side wins.  Returns None when nothing matches.
    """
    pres = view.pres

    def in_h(x):
        return x.support() <= view.h_vertices

    prefixes = [identity(pres)]
    for consonant, piece in zip(g_form.consonants, g_form.x_pieces[1:]):
        c = _make(pres, [(view.apex_index, consonant)])
        prefixes.append(multiply(multiply(prefixes[-1], c), piece))
    g = multiply(g_form.x_pieces[0], prefixes[-1])
    u_form = amalgam_form(view, u)
    m = u_form.consonant_length
    if m == 0:
        return ConjugatorClass("a", u, None, None) if in_h(u) else None
    z_last = u_form.x_pieces[-1]
    if in_h(z_last):
        for p in prefixes:
            for l in range(m + 1):
                h = multiply(multiply(u, power(g, l)), p)
                if in_h(h):
                    return ConjugatorClass("b", h, p, l)
    elif in_h(multiply(g_form.x_pieces[-1], invert(z_last))):
        for p in reversed(prefixes):
            s = multiply(invert(p), g)
            for l in range(m + 1):
                h = multiply(multiply(u, power(g, -l)), invert(s))
                if in_h(h):
                    return ConjugatorClass("c", h, s, l)
    return None


def conjugate_by_coset_criterion(view, b_vertices, f, g, radius):
    """Decide f in g^B with an anchor in the B-ball and the prefix coset conditions.

    Refutes on different consonant sequences (condition 1) or A-side
    retractions that are not conjugate (condition 2).  Otherwise it needs an
    anchor b0 in B with b0 xp = yp b0 on the retractions: the ambient
    conjugator when B is the whole A-side, else the first one in the B-ball,
    and "unknown" when that ball has none.  Then b = y0 h x0^-1 runs over the
    H-side ball, and b is accepted when it is supported in B, b0^-1 b
    centralizes xp, and every (y0 ... yi)^-1 b (x0 ... xi) for 0 < i < n lies
    in the H-side.  The accepted b is re-checked to conjugate g to f.
    """
    pres = view.pres
    b_set = frozenset(b_vertices)
    if not b_set <= view.a_vertices:
        raise AmalgamError("B must be a vertex subset of the A-side")
    gf, ff = amalgam_form(view, g), amalgam_form(view, f)
    n = gf.consonant_length
    if n < 1:
        raise AmalgamError("g must have at least one consonant")
    if ff.consonants != gf.consonants:
        return SubgroupConjugacy("no", None, 1)
    xp = retract_key(pres, g.key, view.a_ids)
    yp = retract_key(pres, f.key, view.a_ids)
    ambient = are_conjugate(xp, yp)
    if not ambient.conjugate:
        return SubgroupConjugacy("no", None, 2)
    if b_set == view.a_vertices:
        b0 = ambient.conjugator
    else:
        b0 = next(
            (c for c in ball_elements(pres, radius, vertices=b_set) if multiply(c, xp) == multiply(yp, c)), None
        )
        if b0 is None:
            return SubgroupConjugacy("unknown", None, None)

    x_cum, y_cum = [gf.x_pieces[0]], [ff.x_pieces[0]]
    for i in range(1, n):
        x_cum.append(multiply(x_cum[-1], gf.x_pieces[i]))
        y_cum.append(multiply(y_cum[-1], ff.x_pieces[i]))
    for h in ball_elements(pres, radius, vertices=view.h_vertices):
        b = multiply(multiply(ff.x_pieces[0], h), invert(gf.x_pieces[0]))
        if not b.support() <= b_set:
            continue
        t = multiply(invert(b0), b)
        if not t.support() <= b_set or multiply(t, xp) != multiply(xp, t):
            continue
        if all(
            multiply(multiply(invert(y_cum[i]), b), x_cum[i]).support() <= view.h_vertices for i in range(1, n)
        ):
            assert conjugate(b, g) == f, "the coset criterion accepted a non-conjugator"
            return SubgroupConjugacy("yes", b, None)
    return SubgroupConjugacy("unknown", None, None)


def witness_constraints_by_parts(f, g):
    """The values a conjugacy witness for f and g must keep nonzero, part by part.

    Returns the presentation induced on the joint support and a map from each
    of its vertices to the values that the quotient of that vertex group must
    keep nonzero.  Both inputs are cyclically reduced there, and their
    integer-type syllables give the shape values.  On a rotation failure, each
    commuting factor of the moving parts adds the values of all rotations of
    g's factor and of every product r_i r_j^-1 (i < j) over f's factor
    followed by those rotations in sorted order.  On a clique-part failure,
    each vertex of the clique part whose two values a, b are not conjugate in
    its group adds a, b and a - b.
    """
    pres = f.pres
    sub = induced_presentation(pres, sorted(f.support() | g.support(), key=pres.vertex_index))
    f0 = cyclically_reduce(reduce(sub, f.word())).reduced
    g0 = cyclically_reduce(reduce(sub, g.word())).reduced
    constraints = {v: set() for v in sub.vertices}

    def collect(elements):
        for e in elements:
            for vi, val in e.key:
                if sub.by_index[vi].kind != "table":
                    constraints[sub.vertices[vi]].add(val)

    collect([f0, g0])
    tag = are_conjugate(f, g).refutation
    if tag == "p-part-not-cyclic-permutation":
        factors_f = commuting_factors(ps_decompose(f0).p_part)
        for root, factor_g in commuting_factors(ps_decompose(g0).p_part).items():
            rs = [factors_f[root]] + sorted(cyclic_permutation_conjugators(factor_g))
            collect(rs)
            collect(multiply(rs[i], invert(rs[j])) for i in range(len(rs)) for j in range(i + 1, len(rs)))
    elif tag == "s-part-not-conjugate":
        psf, psg = ps_decompose(f0), ps_decompose(g0)
        values_f, values_g = dict(psf.s_part.key), dict(psg.s_part.key)
        for v in sorted(psf.s_vertices, key=sub.vertex_index):
            vi = sub.vertex_index(v)
            group, a, b = sub.by_index[vi], values_f[vi], values_g[vi]
            if group.kind != "table" and group.conjugator_key(a, b) is None:
                constraints[v].update(x for x in (a, b, a - b) if x != 0)
    return sub, constraints


def intersection_by_ball(p1, p2, radius):
    """A parabolic for p1 intersect p2 by search, or None: the former library search.

    Candidate cores run over the subsets of the common core, largest first,
    and candidate conjugators over the radius ball.  A candidate is accepted
    when its generators lie in both parabolics and every ball element in both
    lies in it.  That ball test is not a certificate: a small radius can
    accept a parabolic smaller than the intersection.
    """
    pres = p1.pres
    ball = list(ball_elements(pres, radius))
    in_both = [u for u in ball if parabolic_membership(p1, u) and parabolic_membership(p2, u)]
    common = sorted(p1.core & p2.core, key=pres.vertex_index)
    subsets = [()]
    for v in common:
        subsets += [s + (v,) for s in subsets]
    subsets.sort(key=lambda s: (-len(s), tuple(pres.vertex_index(v) for v in s)))
    for core in subsets:
        for h in ball:
            candidate = ParabolicSubgroup(h, frozenset(core))
            if not all(
                parabolic_membership(p1, gen) and parabolic_membership(p2, gen)
                for gen in parabolic_generators(candidate)
            ):
                continue
            if all(parabolic_membership(candidate, u) for u in in_both):
                return candidate
    return None


def distinctness_by_products(constraints, elements):
    """The values of every reduced r_i·r_j^-1 (i < j), added per vertex: the
    product loop that `separability._collect_distinctness` replaced."""
    inverses = [invert(e) for e in elements]
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            _collect_shape_constraints(constraints, [multiply(elements[i], inverses[j])])


@lru_cache(maxsize=None)
def all_divisors_by_scan(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def smallest_modulus_by_scan(n, needed, p=None):
    """The modulus a Z/n vertex gets, from the list of all divisors 1..n; None if none fits.

    An unconstrained vertex keeps n when the mode allows it.  Otherwise the
    least divisor (in p-mode the least power of p dividing n) that divides no
    needed value is chosen.
    """
    powers = None if p is None else {p**k for k in range(n.bit_length())}
    if not needed and (powers is None or n in powers):
        return n
    divisors = [d for d in all_divisors_by_scan(n) if powers is None or d in powers]
    return next((m for m in divisors if all(d % m != 0 for d in needed)), None)


def push_syllable(pres, out, vi, val):
    """Multiply one syllable onto a reduced word in least-vertex-first order.

    The single-syllable push that the batched `words._push` replaced, kept as
    it was: it scans backwards over syllables that commute with vi, joins
    with a reachable syllable of vi, and otherwise inserts before the
    leftmost scanned syllable of a greater vertex (or appends).
    """
    group = pres.by_index[vi]
    if val == group.identity_key:
        return
    link = pres.iadj[vi]
    i = len(out) - 1
    at = len(out)
    while i >= 0:
        ui, uval = out[i]
        if ui == vi:
            merged = group.mul(uval, val)
            if merged == group.identity_key:
                del out[i]
            else:
                out[i] = (vi, merged)
            return
        if ui not in link:
            break
        if ui > vi:
            at = i
        i -= 1
    out.insert(at, (vi, val))


def fold_push(pres, syllables, out=()):
    """The key of out followed by the syllables, pushed on one at a time by `push_syllable`."""
    out = list(out)
    for vi, val in syllables:
        push_syllable(pres, out, vi, val)
    return tuple(out)


def cyclic_reduction_by_repush(e):
    """(reduced key, conjugator key) by the step that `cyclically_reduce` replaced.

    Each step takes the least vertex readable at both ends by different
    syllables, deletes both syllables, pushes the back one and then the
    front one back on, and pushes the front one onto the conjugator.
    """
    pres = e.pres
    key = list(e.key)
    conj = []
    while True:
        ends = _end_positions(pres, key)
        if not ends:
            return _make(pres, key).key, tuple(conj)
        i, j = ends[min(ends)]
        front, back = key[i], key[j]
        del key[j], key[i]
        push_syllable(pres, key, *back)
        push_syllable(pres, key, *front)
        push_syllable(pres, conj, *front)


def cyclic_reduction_by_rescan(e):
    """(reduced key, conjugator key) by the loop that the first and last
    positions of `cyclically_reduce` replaced.

    Each step rescans the whole key for the vertices readable at both ends by
    different syllables, pops the front syllable of the least one, pushes it
    back on and appends it to the conjugator.
    """
    pres = e.pres
    key = list(e.key)
    conj = []
    while True:
        ends = _end_positions(pres, key)
        if not ends:
            return _make(pres, key).key, tuple(conj)
        a = key.pop(ends[min(ends)][0])
        conj.append(a)
        push_syllable(pres, key, *a)


def rotation_closure_by_make(e):
    """The map rotation -> conjugator of `cyclic_permutation_conjugators`,
    in its insertion order, by the closure that reduced every rotation in
    full and kept its queue and map on Elements."""
    pres = e.pres
    found = {e: identity(pres)}
    queue = [e]
    for current in queue:
        prefix = found[current]
        for pos in _readable(pres, current.key, range(len(current.key))).values():
            syl = current.key[pos]
            rotated = _make(pres, current.key[:pos] + current.key[pos + 1 :] + (syl,))
            if rotated not in found:
                found[rotated] = multiply(prefix, Element(pres, (syl,)))
                queue.append(rotated)
    return found


def _readable(pres, key, positions):
    """Each vertex whose first syllable met along positions commutes with
    every syllable met before it -> that syllable's position, in scan order."""
    found, seen = {}, set()
    for pos in positions:
        vi = key[pos][0]
        if vi not in seen and all(u in pres.iadj[vi] for u in seen):
            found[vi] = pos
        seen.add(vi)
    return found


def _end_positions(pres, key):
    """Each vertex with different front- and back-readable syllables -> their positions."""
    front = _readable(pres, key, range(len(key)))
    back = _readable(pres, key, reversed(range(len(key))))
    return {vi: (pos, back[vi]) for vi, pos in front.items() if vi in back and pos != back[vi]}


def associative_by_triples(rows):
    """Whether a multiplication table is associative, over all n^3 triples."""
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


def is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def parse_word_by_syllables(pres, text):
    """The word of whitespace-separated NAME[VALUE] tokens, one Syllable per token.

    The loop that `presentation._parse_key` replaced, kept as it was apart
    from the vertex test, which reads the graph's `ids` map."""
    stripped = text.strip()
    if stripped in ("", "1"):
        return Word(())
    syllables = []
    for token in stripped.split():
        match = _TOKEN_RE.match(token)
        if not match:
            raise WordError(f"bad token {token!r} (expected NAME[VALUE])")
        name, value_text = match.groups()
        if name not in pres.graph.ids:
            raise WordError(f"unknown vertex {name!r}")
        group = pres.groups[name]
        key = group.parse_value(value_text)
        syllables.append(Syllable(name, group.decode(key)))
    return Word(tuple(syllables))



def key_of_word_by_syllable(pres, word):
    """The key of a word, encoded at every position: the loop that
    `words.key_of_word` replaced, kept as it was."""
    ids, groups = pres.graph.ids, pres.by_index
    key = []
    for s in word.syllables:
        vi = ids.get(s.vertex)
        if vi is None:
            vi = pres.vertex_index(s.vertex)  # raises on an unknown vertex
        key.append((vi, groups[vi].encode(s.value)))
    return tuple(key)


def invert_by_syllable(a):
    """The inverse of an Element, one `inv` call per position: the loop that
    `words.invert` replaced, kept as it was."""
    groups = a.pres.by_index
    key = tuple((vi, groups[vi].inv(val)) for vi, val in reversed(a.key))
    return _make(a.pres, key)


def brute_force_conjugate_by_multiply(x, y, radius):
    """`conjugacy.brute_force_conjugate` with w·x multiplied out as an Element
    for every ball element w."""
    for w, yw in iter_ball(x.pres, radius, left=y):
        w = Element(x.pres, w)
        if multiply(w, x).key == yw:
            return BruteForceConjugacy("yes", w)
    return BruteForceConjugacy("exhausted", None)


def compare_centralizer_by_multiply(g, radius, predicted, vertices=None):
    """`words._compare_centralizer` with u·g multiplied out as an Element for
    every ball element u: (size, members, violations)."""
    size = 0
    members, violations = [], []
    for key, gu in iter_ball(g.pres, radius, vertices=vertices, left=g):
        size += 1
        u = Element(g.pres, key)
        centralizes = multiply(u, g).key == gu
        if centralizes:
            members.append(u)
        if predicted(key, centralizes) != centralizes:
            violations.append(u)
    return size, tuple(members), tuple(violations)


def centralizer_structure_check_by_pushes(g, radius):
    """`parabolic.centralizer_structure_check` with each prediction pushed
    out: u's core syllables, its retraction, are multiplied with g both ways,
    where the library reads the verdict that its walk recorded for the
    retraction."""
    pres = g.pres
    core = g.support()
    halo = link_of(pres.graph, core)
    allowed_ids = {pres.vertex_index(v) for v in core | halo}
    core_ids = {pres.vertex_index(v) for v in core}

    def factored(u, centralizes):
        if any(vi not in allowed_ids for vi, _ in u):
            return False
        retraction = Element(pres, tuple(s for s in u if s[0] in core_ids))
        return multiply(retraction, g) == multiply(g, retraction)

    return CentralizerStructureReport(core, halo, *compare_centralizer_by_multiply(g, radius, factored))


def centralizer_product_prediction_by_multiply(view, g, radius):
    """`amalgam.centralizer_check` on its product branch (one consonant, the
    tail in the H-side) with each prediction multiplied out: a star element's
    apex and H-side retractions are multiplied with c1 and x1 both ways, where
    the library reads the verdict of its walk."""
    pres = view.pres
    form = consonant_leading_form(view, g)
    assert form.consonant_length == 1 and all(vi in view.h_ids for vi, _ in form.x_pieces[-1].key)
    apex = view.apex_index
    c1 = Element(pres, ((apex, form.consonants[0]),))
    x1 = form.x_pieces[-1]
    star_ids, apex_ids = pres.istar[apex], (apex,)

    def factored(u, centralizes):
        # the apex commutes with its link, so u = uc uh on the star
        if any(vi not in star_ids for vi, _ in u):
            return False
        uc = retract_key(pres, u, apex_ids)
        uh = retract_key(pres, u, view.h_ids)
        return multiply(uc, c1) == multiply(c1, uc) and multiply(uh, x1) == multiply(x1, uh)

    return CentralizerReport("product", None, (), *compare_centralizer_by_multiply(g, radius, factored))


def single_step_rewrites(pres, key):
    """All words reachable by one elementary transformation.

    The moves: drop a trivial syllable, merge two adjacent syllables of the
    same vertex group, or swap adjacent syllables of adjacent vertices.
    """
    groups = pres.by_index
    iadj = pres.iadj
    results = []
    for i, (vi, val) in enumerate(key):
        if val == groups[vi].identity_key:
            results.append(key[:i] + key[i + 1 :])
    for i in range(len(key) - 1):
        (ui, uval), (wi, wval) = key[i], key[i + 1]
        if ui == wi:
            results.append(key[:i] + ((ui, groups[ui].mul(uval, wval)),) + key[i + 2 :])
        elif wi in iadj[ui]:
            results.append(key[:i] + (key[i + 1], key[i]) + key[i + 2 :])
    return results


def brute_force_equal_by_tuples(pres, w1, w2, budget):
    """(equal, explored): `words.brute_force_equal` on tuple states, and the
    number of states it expanded.  Raises BudgetExceededError when that
    number would pass the budget."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    groups = pres.by_index
    k1 = key_of_word(pres, w1)
    k2 = key_of_word(pres, w2)
    start = k1 + tuple((vi, groups[vi].inv(val)) for vi, val in reversed(k2))
    if not start:
        return True, 0
    seen = {start}
    queue = deque([start])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > budget:
            raise BudgetExceededError(f"budget of {budget} states exhausted")
        for nxt in single_step_rewrites(pres, state):
            if not nxt:
                return True, explored
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False, explored


def right_angled_is_identity(pres, syllables):
    """Whether (vertex, value) syllables multiply to 1, by Tits's linear action.

    Every vertex group is `cyclic 2` (a right-angled Coxeter group) or every
    one is `Z` (a right-angled Artin group).  A Coxeter letter s acts on the
    dual of the Tits representation by f_s <- -f_s and f_t <- f_t + 2 f_s for
    every t != s off link(s).  The chamber point f = (1, ..., 1) has trivial
    stabilizer, so w = 1 exactly when w.f = f.  An Artin vertex v maps to
    (v,0)(v,1) in the Coxeter group on V x {0,1}, where (u,0)-(v,0) is an edge
    iff u-v is one, (u,0)-(v,1) iff u != v, and the (v,1) are pairwise
    adjacent; the map is injective (Davis and Januszkiewicz, 2000).  A value k
    costs 2|k| letters there.
    """
    graph = pres.graph
    groups = [pres.groups[v] for v in graph.vertices]
    if all(g.kind == "Z" for g in groups):
        letters = [(v, i) for v in graph.vertices for i in (0, 1)]

        def adjacent(a, b):
            if a[1] != b[1]:
                return a[0] != b[0]
            return a[1] == 1 or a[0] in graph.link(b[0])

        word = [(v, i) for v, k in syllables for _ in range(abs(k)) for i in ((0, 1) if k > 0 else (1, 0))]
    elif all(g.kind == "mod" and g.order == 2 for g in groups):
        letters = list(graph.vertices)

        def adjacent(a, b):
            return a in graph.link(b)

        word = [v for v, k in syllables if k % 2]
    else:
        raise ValueError("not a right-angled Coxeter or Artin group")
    index = {s: i for i, s in enumerate(letters)}
    off_link = [[index[t] for t in letters if t != s and not adjacent(s, t)] for s in letters]
    f = [1] * len(letters)
    for s in word:
        i = index[s]
        fs = f[i]
        f[i] = -fs
        for j in off_link[i]:
            f[j] += 2 * fs
    return all(x == 1 for x in f)
