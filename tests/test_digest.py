"""The normal-form digest over 20 seeds and the witness survey, pinned.

scripts/normal_form_digest.py hashes the outputs of the normal-form, search,
witness, rendering, amalgam and shape functions over seeded random inputs, and
scripts/witness_survey.py tabulates the certificate tags and largest moduli of
the witnesses over the reference presentations.  A change that must keep
those outputs keeps these bytes; a change that means to alter them updates the
pin and says why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

DIGEST_AT_20_SEEDS = (
    "reduce                             800 5ae375e6313a1b659dbb46696065f0d98df2120b223b807cae76511d6dd23e59\n"
    "multiply                           780 e583d152bc337707c8721362916451c0b259a1c30610b8594b0714f9d1f2fda8\n"
    "invert                             800 4af701e9fd27b0b25510bf284b1be3277d1d97c5bfe91274bf583973150f0536\n"
    "canonical_form                     800 61bf15852ffeb2b69a87c3cc0b499eb67d50aee912d43913219659592c7605c8\n"
    "cyclically_reduce.core             800 d1fa4296e1dce769bddd51b51b29cb167f330b30edd9ae0604e6cf6b92f84292\n"
    "cyclically_reduce.conjugator       800 4e595b5efe54ffbae4cf70bf91cf3cd7f6e0df945b49cc5cc5e49cbae70ad681\n"
    "are_conjugate                      600 6841a01d275142a03ba68935dbae55cb204eadcb116b3d4001f62513f0edf3a1\n"
    "iter_ball                         2778 b1f473a6ae7937012de23c0246d951f272229c4ee66a206f7f13d83cea943147\n"
    "iter_ball.subset                  4655 2ed9f7f752afbd61032e016193ed83d1b8f111ca6b03c16ba638884cb0b1d04d\n"
    "brute_force_conjugate               60 037a01de2ec4dcdd76299363599731d427b7e3039603c635745461270d7e7f5e\n"
    "centralizer_structure_check         20 c3191e2c59c5d2d0716548e612a2de2e36a99d0805292cf4f96b5e2b26e1f071\n"
    "centralizer_check                   60 d89be106f0782454ffc3d29edc01efab20881f850205be176e06d34a5c89a248\n"
    "amalgam_conjugate_by                60 12a7bd642bb526c18c6650f21be7f0854b469a898364f3c96e35e3f70cd21b37\n"
    "parabolic_intersection_search       20 8f1dfb486138a59c0385b0e877e6badc2152365d608564c663166f13230e4df5\n"
    "residual_witness                    90 6b3cafabf531846bf4632a5088cf6ad2c51904d6ef45d2046eb02dc607cd85b6\n"
    "conjugacy_witness                   73 f949565f8780a81e8aa88bfdacb4bd8ffd5dca4414f69a73eaf5797a8308aa1f\n"
    "render                             800 df08380d3a1724d5c288191cf8565c9afa01be0f6b58ff5bb0b7cdd29fd8d970\n"
    "amalgam_form                       750 29277e0578f9a4ec0ac65512b57919275332ea5e64e33e192194fc590d55723a\n"
    "amalgam_form_of_word              1740 1ae52ddbd70363ca4e5da79c8c18f98e9a99c733c4a41cd2bf3f42e371a1bcd3\n"
    "sigma                              220 d39313095dd2a230d19e39c5997f71bbeedb9999f870a43a43ec5410e8685d6e\n"
    "shape                              800 7e23f3dbc9f60292c3fb5c5b862fd4274df3f92a8a8deb7ed445c6bab152fa7f\n"
    "ps_decompose                       800 ac87a3f092e983a6a032ceae20516d6b413977f0d537dc9a8ef20736470063db\n"
    "commuting_factors                  800 58c0b5b91a275ae6ae7b4b1e78c6bf6622157430e397d22b7101235eea5edcd8\n"
    "parabolic_closure_of_cyclic        800 00f66a5897dc9ab435a0eb75b8fb9bd62524c3733f7b75ff3157a292636bd2dc\n"
)

WITNESS_SURVEY_AT_40_PAIRS = (
    "path-racg        mode=finite  pairs= 40 max_modulus=  2  support-mismatch=40\n"
    "path-racg        mode=p:2     pairs= 40 max_modulus=  2  length-mismatch=3, support-mismatch=37\n"
    "star-racg        mode=finite  pairs= 40 max_modulus=  2  support-mismatch=40\n"
    "star-racg        mode=p:2     pairs= 40 max_modulus=  2  length-mismatch=2, support-mismatch=38\n"
    "free-zz          mode=finite  pairs= 40 max_modulus=  5  length-mismatch=18, p-part-not-cyclic-permutation=17, support-mismatch=5\n"
    "free-zz          mode=p:2     pairs= 40 max_modulus= 16  length-mismatch=12, p-part-not-cyclic-permutation=26, support-mismatch=2\n"
    "free-zz          mode=p:3     pairs= 40 max_modulus= 27  length-mismatch=13, p-part-not-cyclic-permutation=22, s-part-not-conjugate=1, support-mismatch=4\n"
    "edge-zz          mode=finite  pairs= 40 max_modulus=  7  s-part-not-conjugate=23, support-mismatch=17\n"
    "edge-zz          mode=p:2     pairs= 40 max_modulus= 16  s-part-not-conjugate=16, support-mismatch=24\n"
    "edge-zz          mode=p:3     pairs= 40 max_modulus= 27  s-part-not-conjugate=20, support-mismatch=20\n"
    "triangle-mixed   mode=finite  pairs= 40 max_modulus=  4  s-part-not-conjugate=7, support-mismatch=33\n"
)


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_digest_at_20_seeds_is_pinned():
    assert run_script("normal_form_digest.py", "--seeds", "20") == DIGEST_AT_20_SEEDS


def test_witness_survey_at_40_pairs_is_pinned():
    assert run_script("witness_survey.py", "--pairs", "40") == WITNESS_SURVEY_AT_40_PAIRS
