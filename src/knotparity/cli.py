"""Command-line front end.

Subcommands: parity, invariant, compare, verify, dump-matrix.  All output is
deterministic for fixed inputs (the monomial order is fixed), randomized
behavior is seeded via --seed only, and census files are processed line by
line in input order.

Exit codes: 0 success, 1 usage or input error (a closed stdout included),
2 verification counterexample or a Distinct verdict under
--expect-equivalent.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from .diagram import MAX_GENUS, DiagramError, parse_file
from .invariant import (
    DISTINCT,
    compare,
    n_presentation,
    nprime_invariant,
    s_invariant,
)
from .matrix import build_M, build_Npp
from .parity import hierarchy_types, parity_map
from .moves import MAX_CROSSINGS, verify_invariance


def _dumps(obj, indent="\n"):
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool and None; anything else raises TypeError.

    The standard library's C encoder serves only ``indent=None``, so the
    indented layout is joined here and only the strings go through the C
    escaper; ``indent`` is the newline and indentation of obj's own line.
    String leaves, the common case, are escaped in place without a call.
    """
    if isinstance(obj, str):
        return _escape(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _escape(k) + ": " + (_escape(v) if type(v) is str else _dumps(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_escape(v) if type(v) is str else _dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _load(path, lenient):
    try:
        diagrams, errors = parse_file(path, lenient=lenient)
    except (OSError, DiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    for lineno, msg in errors:
        print(f"warning: line {lineno} skipped: {msg}", file=sys.stderr)
    return diagrams


def cmd_parity(args):
    payload = []
    for d in _load(args.file, args.lenient):
        par, types = parity_map(d), hierarchy_types(d)
        counts = d.chords.counts
        if args.json:
            payload.append(
                {
                    "name": d.name,
                    "interlacement": {str(c): counts[c] for c in sorted(counts)},
                    "parity": {str(c): par[c] for c in sorted(par)},
                    "types": {str(c): types[c] for c in sorted(types)},
                }
            )
        else:
            print(d.name)
            for c in sorted(counts):
                print(f"  crossing {c}: interlacement {counts[c]}, {par[c]}, type {types[c]}")
    if args.json:
        print(_dumps(payload))
    return 0


def _matrix_for(d, kind):
    if kind == "s":
        return build_M(d, parity_map(d))
    if kind == "nprime":
        return build_Npp(d, hierarchy_types(d))
    return n_presentation(d)


def _print_matrix(m):
    rows = m.render_rows()
    if not rows:
        print("(0x0 matrix)")
    for line in rows:
        print(line)


def cmd_invariant(args):
    if args.json and args.dump_matrix:
        print("error: invariant --json prints no matrix; use dump-matrix --json", file=sys.stderr)
        return 1
    inv = s_invariant if args.type == "s" else nprime_invariant
    payload = []
    for d in _load(args.file, args.lenient):
        value = inv(d)
        if args.json:
            par, types = parity_map(d), hierarchy_types(d)
            payload.append(
                {
                    "name": d.name,
                    "ring": value.tag,
                    "canonical": value.render(),
                    "unit_record": dataclasses.asdict(value.record),
                    "parity": {str(c): par[c] for c in sorted(par)},
                    "types": {str(c): types[c] for c in sorted(types)},
                }
            )
        else:
            print(f"{d.name}: {value.render()}")
            if args.dump_matrix:
                _print_matrix(_matrix_for(d, args.type))
    if args.json:
        print(_dumps(payload))
    return 0


def cmd_dump_matrix(args):
    for d in _load(args.file, args.lenient):
        m = _matrix_for(d, args.type)
        if args.json:
            # each key is printed once per nonzero cell of its row or column
            rows = {k: str(k) for k in m.row_keys}
            cols = {k: str(k) for k in m.col_keys}
            print(
                _dumps(
                    {
                        "name": d.name,
                        "ring": m.tag,
                        "shape": list(m.shape),
                        "entries": [
                            {"row": rows[r], "col": cols[c], "value": v}
                            for r, c, v in m.triples()
                        ],
                    }
                )
            )
        else:
            print(f"{d.name} ({m.tag}, {m.shape[0]}x{m.shape[1]})")
            _print_matrix(m)
    return 0


def cmd_compare(args):
    diagrams = _load(args.file, args.lenient)
    picked = []
    for name in (args.name1, args.name2):
        found = [d for d in diagrams if d.name == name]
        if not found:
            print(f"error: no diagram named {name!r}", file=sys.stderr)
            return 1
        if len(found) > 1:
            print(f"error: diagram name {name!r} is ambiguous", file=sys.stderr)
            return 1
        picked.append(found[0])
    d1, d2 = picked
    if args.type == "s" and d1.genus != d2.genus:
        print(f"error: s values of genus {d1.genus} and {d2.genus} lie in different rings", file=sys.stderr)
        return 1
    inv = s_invariant if args.type == "s" else nprime_invariant
    res = compare(inv(d1), inv(d2))
    if args.json:
        out = {"verdict": res.verdict}
        if res.unit is not None:
            out["unit"] = dataclasses.asdict(res.unit)
            out["expressed"] = res.expressed
        print(_dumps(out))
    else:
        if res.unit is not None:
            u = res.unit
            print(
                f"{res.verdict}: unit sign={'+' if u.sign > 0 else '-'} "
                f"t^{u.t_shift} p^{u.p_shift} q^{u.q_power} ({res.expressed})"
            )
        else:
            print(res.verdict)
    if res.verdict == DISTINCT and args.expect_equivalent:
        return 2
    return 0


def cmd_verify(args):
    """Run the sweeps and print each report; the report file is opened
    first, so a path that cannot be written fails before any sweep runs."""
    kinds = ["s", "nprime"] if args.invariant == "both" else [args.invariant]
    with contextlib.ExitStack() as stack:
        try:
            fh = stack.enter_context(open(args.report, "w")) if args.report else None
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        reports = []
        for kind in kinds:
            rep = verify_invariance(
                seed=args.seed,
                trials=args.trials,
                max_crossings=args.max_crossings,
                genus=args.genus,
                invariant=kind,
            )
            reports.append(rep)
            print(rep.render())
        if fh is not None:
            try:
                with fh:  # a failed write or flush shows here, not at the stack's exit
                    fh.write(_dumps([r.to_json() for r in reports]))
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    return 0 if all(r.ok for r in reports) else 2


def _int_between(low, high=None):
    """argparse type: an integer >= low (and <= high if given), else a usage error."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


@functools.cache
def build_parser():
    """The argument parser, built once per process; each parse fills a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="knotparity",
        description="Parity-based polynomial invariants of knots in thickened "
        "surfaces and of virtual knots.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--lenient",
            action="store_true",
            help="skip malformed census lines instead of failing",
        )

    p = sub.add_parser("parity", help="interlacement, parity, and type per crossing")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("invariant", help="canonical invariant values")
    p.add_argument("--type", choices=("s", "nprime"), required=True)
    p.add_argument("--dump-matrix", action="store_true", help="print the matrix too")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("dump-matrix", help="print a diagram's matrix")
    p.add_argument("--type", choices=("s", "nprime", "presentation"), default="s")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_dump_matrix)

    p = sub.add_parser("compare", help="equivalence of two census entries up to units")
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    p.add_argument("--type", choices=("s", "nprime"), default="s")
    p.add_argument(
        "--expect-equivalent",
        action="store_true",
        help="exit 2 when the verdict is Distinct",
    )
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="randomized invariance and axiom checks")
    p.add_argument("--trials", type=_int_between(1), default=100)
    p.add_argument("--max-crossings", type=_int_between(1, MAX_CROSSINGS), default=8)
    p.add_argument("--genus", type=_int_between(0, MAX_GENUS), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--invariant", choices=("s", "nprime", "both"), default="both")
    p.add_argument("--report", help="write a JSON report to this path")
    p.set_defaults(func=cmd_verify)
    return ap


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull
        # so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
