"""Command-line front end: one subcommand per decision procedure.

Exit codes: 0 decided/pass, 1 meaningful negative (unequal, non-conjugate,
non-member, failed check), 2 unknown/exhausted, 3 usage or input error, or a
certificate that failed its own re-check.
Output is line-oriented, one fact per line; --json prints one object with
sorted keys instead.
"""

from __future__ import annotations

import argparse
import json
import sys

from .presentation import InvariantError, load_presentation, parse_word
from .words import BudgetExceededError, reduce, shape
from .cyclic import cyclically_reduce, ps_decompose
from .conjugacy import are_conjugate
from .amalgam import amalgam_form, centralizer_check, decompose_at
from .parabolic import (
    ParabolicSubgroup,
    full_parabolic,
    normalizer_membership,
    parabolic_closure_of_cyclic,
)
from .separability import conjugacy_witness, parse_mode, residual_witness
from .words import identity


class UsageError(ValueError):
    pass


def _emit(args, lines, payload) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _element(pres, text):
    return reduce(pres, parse_word(pres, text))


def _render_set(values) -> str:
    return " ".join(sorted(values)) if values else "-"


def cmd_normalize(args) -> int:
    pres = load_presentation(args.group)
    e = _element(pres, args.word)
    report = shape(e)
    lines = [
        f"normal: {e.render()}",
        f"length: {report.length}",
        f"support: {_render_set(report.support)}",
        f"FL: {_render_set(report.first_letters)}",
        f"LL: {_render_set(report.last_letters)}",
    ]
    payload = {
        "normal": e.render(),
        "length": report.length,
        "support": sorted(report.support),
        "FL": sorted(report.first_letters),
        "LL": sorted(report.last_letters),
    }
    _emit(args, lines, payload)
    return 0


def cmd_eq(args) -> int:
    pres = load_presentation(args.group)
    equal = _element(pres, args.left) == _element(pres, args.right)
    _emit(args, [f"equal: {'yes' if equal else 'no'}"], {"equal": equal})
    return 0 if equal else 1


def cmd_conj(args) -> int:
    pres = load_presentation(args.group)
    verdict = are_conjugate(_element(pres, args.left), _element(pres, args.right))
    if verdict.conjugate:
        lines = ["conjugate: yes", f"conjugator: {verdict.conjugator.render()}"]
        payload = {"conjugate": True, "conjugator": verdict.conjugator.render()}
    else:
        lines = ["conjugate: no", f"refutation: {verdict.refutation}"]
        payload = {"conjugate": False, "refutation": verdict.refutation}
    _emit(args, lines, payload)
    return 0 if verdict.conjugate else 1


def cmd_cyc(args) -> int:
    pres = load_presentation(args.group)
    reduction = cyclically_reduce(_element(pres, args.word))
    lines = [
        f"reduced: {reduction.reduced.render()}",
        f"conjugator: {reduction.conjugator.render()}",
    ]
    payload = {
        "reduced": reduction.reduced.render(),
        "conjugator": reduction.conjugator.render(),
    }
    _emit(args, lines, payload)
    return 0


def cmd_ps(args) -> int:
    pres = load_presentation(args.group)
    ps = ps_decompose(_element(pres, args.word))
    lines = [
        f"s-part: {ps.s_part.render()}",
        f"p-part: {ps.p_part.render()}",
        f"S: {_render_set(ps.s_vertices)}",
        f"P: {_render_set(ps.p_vertices)}",
    ]
    payload = {
        "s_part": ps.s_part.render(),
        "p_part": ps.p_part.render(),
        "S": sorted(ps.s_vertices),
        "P": sorted(ps.p_vertices),
    }
    _emit(args, lines, payload)
    return 0


def cmd_amalgam(args) -> int:
    pres = load_presentation(args.group)
    view = decompose_at(pres, args.vertex)
    form = amalgam_form(view, _element(pres, args.word))
    group = pres.groups[args.vertex]
    rendered_consonants = [group.render_key(group.encode(c)) for c in form.consonants]
    lines = []
    for i, piece in enumerate(form.x_pieces):
        lines.append(f"x{i}: {piece.render()}")
        if i < len(rendered_consonants):
            lines.append(f"c{i + 1}: {args.vertex}[{rendered_consonants[i]}]")
    lines.append(f"consonant-length: {form.consonant_length}")
    payload = {
        "x_pieces": [p.render() for p in form.x_pieces],
        "consonants": rendered_consonants,
        "consonant_length": form.consonant_length,
    }
    _emit(args, lines, payload)
    return 0


def cmd_centralizer_check(args) -> int:
    pres = load_presentation(args.group)
    view = decompose_at(pres, args.vertex)
    report = centralizer_check(view, _element(pres, args.word), args.radius)
    lines = [
        f"kind: {report.kind}",
        f"ball: {report.ball_size}",
        f"centralizer-size: {len(report.centralizer)}",
        f"unresolved: {len(report.unresolved)}",
        f"violations: {len(report.violations)}",
    ]
    payload = {
        "kind": report.kind,
        "ball": report.ball_size,
        "centralizer_size": len(report.centralizer),
        "unresolved": len(report.unresolved),
        "violations": len(report.violations),
    }
    _emit(args, lines, payload)
    if report.violations:
        return 1
    return 2 if report.unresolved else 0


def cmd_pc(args) -> int:
    pres = load_presentation(args.group)
    closure = parabolic_closure_of_cyclic(_element(pres, args.word))
    lines = [
        f"conjugator: {closure.conjugator.render()}",
        f"core: {_render_set(closure.core)}",
    ]
    payload = {"conjugator": closure.conjugator.render(), "core": sorted(closure.core)}
    _emit(args, lines, payload)
    return 0


def cmd_normalizer(args) -> int:
    pres = load_presentation(args.group)
    if not args.core:
        raise UsageError("--core must not be empty (comma-separated vertex names)")
    core = [v for v in args.core.split(",") if v]
    conjugator = _element(pres, args.conjugator) if args.conjugator else identity(pres)
    subgroup = ParabolicSubgroup(conjugator, full_parabolic(pres, core).core)
    member = normalizer_membership(subgroup, _element(pres, args.word))
    _emit(args, [f"member: {'yes' if member else 'no'}"], {"member": member})
    return 0 if member else 1


def cmd_witness(args) -> int:
    pres = load_presentation(args.group)
    mode = parse_mode(args.mode)
    if args.right is None:
        witness = residual_witness(_element(pres, args.left), mode)
    else:
        f = _element(pres, args.left)
        g = _element(pres, args.right)
        if are_conjugate(f, g).conjugate:
            print("inputs are conjugate; no witness exists", file=sys.stderr)
            return 1
        witness = conjugacy_witness(f, g, mode)
    if not witness.verify():
        raise InvariantError("the separation witness fails its re-check")
    print(witness.to_json())
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(seed=args.seed)


# Each subcommand declares the options its handler reads, by these names.
OPTIONS = {
    "group": (("-g", "--group"), dict(required=True, help="presentation file (JSON)")),
    "json": (("--json",), dict(action="store_true")),
    "vertex": (("--vertex",), dict(required=True, help="apex vertex for amalgam commands")),
    "radius": (("--radius",), dict(type=int, default=4, help="bounded-search radius")),
    "mode": (("--mode",), dict(default="finite", help="finite or p:<prime>")),
    "seed": (("--seed",), dict(type=int, default=0)),
    "core": (("--core",), dict(required=True, help="comma-separated core vertices")),
    "conjugator": (("--conjugator",), dict(help="conjugating word for parabolic commands")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gp", description="decision procedures for graph products of groups"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, options, **words):
        p = sub.add_parser(name)
        for option in options:
            flags, settings = OPTIONS[option]
            p.add_argument(*flags, **settings)
        for arg_name, required in words.items():
            if required:
                p.add_argument(arg_name)
            else:
                p.add_argument(arg_name, nargs="?", default=None)
        p.set_defaults(handler=handler)
        return p

    common = ("group", "json")
    add("normalize", cmd_normalize, common, word=True)
    add("eq", cmd_eq, common, left=True, right=True)
    add("conj", cmd_conj, common, left=True, right=True)
    add("cyc", cmd_cyc, common, word=True)
    add("ps", cmd_ps, common, word=True)
    add("amalgam", cmd_amalgam, common + ("vertex",), word=True)
    add("centralizer-check", cmd_centralizer_check, common + ("vertex", "radius"), word=True)
    add("pc", cmd_pc, common, word=True)
    add("normalizer", cmd_normalizer, common + ("core", "conjugator"), word=True)
    add("witness", cmd_witness, ("group", "mode"), left=True, right=False)
    add("selftest", cmd_selftest, ("seed",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (ValueError, OSError, InvariantError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
