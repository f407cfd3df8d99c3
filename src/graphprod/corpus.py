"""Reference presentations and word generators shared by the test suites."""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from .presentation import GroupPresentation, Syllable, Word, presentation_from_config
from .words import Element, reduce

PATH_RACG = {
    "vertices": [
        {"name": "a", "group": "cyclic 2"},
        {"name": "b", "group": "cyclic 2"},
        {"name": "c", "group": "cyclic 2"},
    ],
    "edges": [["a", "b"], ["b", "c"]],
}

STAR_RACG = {
    "vertices": [
        {"name": "c", "group": "cyclic 2"},
        {"name": "l1", "group": "cyclic 2"},
        {"name": "l2", "group": "cyclic 2"},
    ],
    "edges": [["c", "l1"], ["c", "l2"]],
}

FREE_ZZ = {
    "vertices": [{"name": "x", "group": "Z"}, {"name": "y", "group": "Z"}],
    "edges": [],
}

EDGE_ZZ = {
    "vertices": [{"name": "x", "group": "Z"}, {"name": "y", "group": "Z"}],
    "edges": [["x", "y"]],
}

# complete triangle: C2 as an explicit table, C3 and Z/4 as residues
TRIANGLE_MIXED = {
    "vertices": [
        {
            "name": "u",
            "group": {"table": {"elements": ["e", "t"], "mul": [[0, 1], [1, 0]], "identity": 0}},
        },
        {"name": "v", "group": "cyclic 3"},
        {"name": "w", "group": {"mod": 4}},
    ],
    "edges": [["u", "v"], ["v", "w"], ["u", "w"]],
}

PATH_C3_END = {
    "vertices": [
        {"name": "a", "group": "cyclic 3"},
        {"name": "b", "group": "cyclic 2"},
        {"name": "c", "group": "cyclic 2"},
    ],
    "edges": [["a", "b"], ["b", "c"]],
}

PATH_C3_MID = {
    "vertices": [
        {"name": "a", "group": "cyclic 2"},
        {"name": "b", "group": "cyclic 3"},
        {"name": "c", "group": "cyclic 2"},
    ],
    "edges": [["a", "b"], ["b", "c"]],
}

CORPUS_CONFIGS = {
    "path-racg": PATH_RACG,
    "star-racg": STAR_RACG,
    "free-zz": FREE_ZZ,
    "edge-zz": EDGE_ZZ,
    "triangle-mixed": TRIANGLE_MIXED,
}


def corpus_presentations() -> Dict[str, GroupPresentation]:
    return {name: presentation_from_config(cfg) for name, cfg in CORPUS_CONFIGS.items()}


def syllable_alphabet(pres: GroupPresentation, z_window: int = 2) -> List[Syllable]:
    """All nontrivial syllables, with integer exponents inside the window."""
    result = []
    for v in pres.vertices:
        group = pres.groups[v]
        for key in group.nontrivial_keys(z_window):
            result.append(Syllable(v, group.decode(key)))
    return result


def all_words(pres: GroupPresentation, max_len: int, z_window: int = 2) -> Iterator[Word]:
    alphabet = syllable_alphabet(pres, z_window)
    stack: List[Tuple[Syllable, ...]] = [()]
    while stack:
        word = stack.pop()
        yield Word(word)
        if len(word) < max_len:
            for syl in alphabet:
                stack.append(word + (syl,))


def random_word(pres: GroupPresentation, rng: random.Random, max_len: int, z_window: int = 2) -> Word:
    alphabet = syllable_alphabet(pres, z_window)
    length = rng.randint(0, max_len)
    return Word(tuple(rng.choice(alphabet) for _ in range(length)))


def random_words(
    pres: GroupPresentation, count: int, max_len: int, seed: int, z_window: int = 2
) -> List[Word]:
    rng = random.Random(seed)
    return [random_word(pres, rng, max_len, z_window) for _ in range(count)]


def shuffled_variant(pres: GroupPresentation, word: Word, rng: random.Random, steps: int = 12) -> Word:
    """Apply random legal adjacent swaps; the result represents the same element."""
    syllables = list(word.syllables)
    for _ in range(steps):
        if len(syllables) < 2:
            break
        i = rng.randrange(len(syllables) - 1)
        u, w = syllables[i], syllables[i + 1]
        if pres.vertex_index(w.vertex) in pres.iadj[pres.vertex_index(u.vertex)]:  # iadj has no loops
            syllables[i], syllables[i + 1] = w, u
    return Word(tuple(syllables))


def corpus_elements(pres: GroupPresentation, max_len: int = 4, z_window: int = 2) -> List[Element]:
    """Distinct elements of all words up to the length bound, sorted."""
    seen = {}
    for word in all_words(pres, max_len, z_window):
        e = reduce(pres, word)
        seen[e.key] = e
    return sorted(seen.values(), key=Element.sort_key)
