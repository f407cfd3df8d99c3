"""Command-line front end: one subcommand per decision procedure.

Exit codes: 0 decided/pass, 1 meaningful negative (unequal, non-conjugate,
non-member, failed check), 2 an "unknown" answer from a bounded search, 3
usage or input error, or a certificate that failed its own re-check.
Each subcommand builds one payload.  --json prints it as one object with
sorted keys; otherwise every field prints as a `label: value` line, in order:
the label is the key with `_` read as `-`, a bool prints as yes/no and a list
as its items, or `-` when empty.  Three subcommands write their own lines:
amalgam, to interleave its pieces and consonants; witness, which prints its
certificate JSON; and selftest, which prints one line per suite.

Only `presentation` and `words`, which every subcommand uses, load with this
module; each handler imports the other modules it calls in its own body, so a
cold `gp eq` compiles none of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .presentation import InvariantError, load_presentation
from .words import element_of, identity, shape


def _text(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return " ".join(value) if value else "-"
    return str(value)


def _emit(args, payload, lines=None) -> None:
    """Print the payload as sorted JSON, or as one `label: value` line per field."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return
    if lines is None:
        lines = [f"{key.replace('_', '-')}: {_text(value)}" for key, value in payload.items()]
    for line in lines:
        print(line)


def cmd_normalize(pres, args) -> int:
    e = element_of(pres, args.word)
    report = shape(e)
    _emit(args, {
        "normal": e.render(),
        "length": report.length,
        "support": sorted(report.support),
        "FL": sorted(report.first_letters),
        "LL": sorted(report.last_letters),
    })
    return 0


def cmd_eq(pres, args) -> int:
    equal = element_of(pres, args.left) == element_of(pres, args.right)
    _emit(args, {"equal": equal})
    return 0 if equal else 1


def cmd_conj(pres, args) -> int:
    from .conjugacy import are_conjugate
    verdict = are_conjugate(element_of(pres, args.left), element_of(pres, args.right))
    if verdict.conjugate:
        _emit(args, {"conjugate": True, "conjugator": verdict.conjugator.render()})
    else:
        _emit(args, {"conjugate": False, "refutation": verdict.refutation})
    return 0 if verdict.conjugate else 1


def cmd_cyc(pres, args) -> int:
    from .cyclic import cyclically_reduce
    reduction = cyclically_reduce(element_of(pres, args.word))
    _emit(args, {"reduced": reduction.reduced.render(), "conjugator": reduction.conjugator.render()})
    return 0


def cmd_ps(pres, args) -> int:
    from .cyclic import ps_decompose
    ps = ps_decompose(element_of(pres, args.word))
    _emit(args, {
        "s_part": ps.s_part.render(),
        "p_part": ps.p_part.render(),
        "S": sorted(ps.s_vertices),
        "P": sorted(ps.p_vertices),
    })
    return 0


def cmd_amalgam(pres, args) -> int:
    from .amalgam import amalgam_form, decompose_at
    form = amalgam_form(decompose_at(pres, args.vertex), element_of(pres, args.word))
    pieces = [p.render() for p in form.x_pieces]
    consonants = [str(pres.groups[args.vertex].decode(c)) for c in form.consonants]
    lines = [f"x0: {pieces[0]}"]
    for i, (c, piece) in enumerate(zip(consonants, pieces[1:]), 1):
        lines += [f"c{i}: {args.vertex}[{c}]", f"x{i}: {piece}"]
    lines.append(f"consonant-length: {form.consonant_length}")
    payload = {"x_pieces": pieces, "consonants": consonants, "consonant_length": form.consonant_length}
    _emit(args, payload, lines)
    return 0


def cmd_centralizer_check(pres, args) -> int:
    from .amalgam import centralizer_check, decompose_at
    view = decompose_at(pres, args.vertex)
    report = centralizer_check(view, element_of(pres, args.word), args.radius)
    _emit(args, {
        "kind": report.kind,
        "ball": report.ball_size,
        "centralizer_size": len(report.centralizer),
        "unresolved": len(report.unresolved),
        "violations": len(report.violations),
    })
    if report.violations:
        return 1
    return 2 if report.unresolved else 0


def cmd_pc(pres, args) -> int:
    from .parabolic import parabolic_closure_of_cyclic
    closure = parabolic_closure_of_cyclic(element_of(pres, args.word))
    _emit(args, {"conjugator": closure.conjugator.render(), "core": sorted(closure.core)})
    return 0


def cmd_normalizer(pres, args) -> int:
    from .parabolic import ParabolicSubgroup, normalizer_membership
    core = frozenset(v for v in args.core.split(",") if v)
    if not core:
        raise ValueError("--core must not be empty (comma-separated vertex names)")
    conjugator = element_of(pres, args.conjugator) if args.conjugator else identity(pres)
    member = normalizer_membership(ParabolicSubgroup(conjugator, core), element_of(pres, args.word))
    _emit(args, {"member": member})
    return 0 if member else 1


def cmd_witness(pres, args) -> int:
    from .conjugacy import are_conjugate
    from .separability import conjugacy_witness, parse_mode, residual_witness
    mode = parse_mode(args.mode)
    if args.right is None:
        witness = residual_witness(element_of(pres, args.left), mode)
    else:
        f = element_of(pres, args.left)
        g = element_of(pres, args.right)
        if are_conjugate(f, g).conjugate:
            print("inputs are conjugate; no witness exists", file=sys.stderr)
            return 1
        witness = conjugacy_witness(f, g, mode)
    if not witness.verify():
        raise InvariantError("the separation witness fails its re-check")
    print(witness.to_json())
    return 0


def cmd_selftest(pres, args) -> int:
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
        pres = load_presentation(args.group) if "group" in args else None
        return args.handler(pres, args)
    except (ValueError, OSError, InvariantError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
