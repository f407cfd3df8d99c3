"""Independent reference computations the tests check the library against.

Everything here works on raw syllable tuples with explicit enumeration and
never calls the reduction engine's internals.
"""

from collections import deque

from graphprod.presentation import Word
from graphprod.words import reduce


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
