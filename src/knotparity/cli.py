"""Command-line front end.

Subcommands: parity, invariant, compare, verify, dump-matrix.  All output is
deterministic for fixed inputs (the monomial order is fixed), randomized
behavior is seeded via --seed only, and census files are processed line by
line in input order.

Exit codes: 0 success, 1 usage or input error, 2 verification counterexample
or a Distinct verdict under --expect-equivalent.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import DiagramError, parse_file
from .invariant import (
    DISTINCT,
    compare,
    n_presentation,
    nprime_invariant,
    s_invariant,
)
from .matrix import build_M, build_Npp
from .parity import chord_data, gaussian_parity, hierarchy_types, parity_map
from .moves import verify_invariance


def _load(path, lenient):
    try:
        diagrams, errors = parse_file(path, lenient=lenient)
    except (OSError, DiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    for lineno, msg in errors:
        print(f"warning: line {lineno} skipped: {msg}", file=sys.stderr)
    return diagrams


def _unit_dict(rec):
    return {
        "sign": rec.sign,
        "t_shift": rec.t_shift,
        "p_shift": rec.p_shift,
        "q_power": rec.q_power,
    }


def cmd_parity(args):
    payload = []
    for d in _load(args.file, args.lenient):
        cd = chord_data(d)
        par = gaussian_parity(cd)
        types = hierarchy_types(d)
        if args.json:
            payload.append(
                {
                    "name": d.name,
                    "interlacement": {str(c): cd.counts[c] for c in sorted(cd.counts)},
                    "parity": {str(c): par[c] for c in sorted(par)},
                    "types": {str(c): types[c] for c in sorted(types)},
                }
            )
        else:
            print(d.name)
            for c in sorted(cd.counts):
                print(f"  crossing {c}: interlacement {cd.counts[c]}, {par[c]}, type {types[c]}")
    if args.json:
        print(json.dumps(payload, indent=2))
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
    inv = s_invariant if args.type == "s" else nprime_invariant
    payload = []
    for d in _load(args.file, args.lenient):
        value = inv(d)
        par = parity_map(d)
        types = hierarchy_types(d)
        if args.json:
            payload.append(
                {
                    "name": d.name,
                    "ring": value.tag,
                    "canonical": value.render(),
                    "unit_record": _unit_dict(value.record),
                    "parity": {str(c): par[c] for c in sorted(par)},
                    "types": {str(c): types[c] for c in sorted(types)},
                }
            )
        else:
            print(f"{d.name}: {value.render()}")
            if args.dump_matrix:
                _print_matrix(_matrix_for(d, args.type))
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_dump_matrix(args):
    for d in _load(args.file, args.lenient):
        m = _matrix_for(d, args.type)
        if args.json:
            print(
                json.dumps(
                    {
                        "name": d.name,
                        "ring": m.tag,
                        "shape": list(m.shape),
                        "entries": [
                            {"row": str(r), "col": str(c), "value": v}
                            for r, c, v in m.triples()
                        ],
                    },
                    indent=2,
                )
            )
        else:
            print(f"{d.name} ({m.tag}, {m.shape[0]}x{m.shape[1]})")
            _print_matrix(m)
    return 0


def cmd_compare(args):
    diagrams = _load(args.file, args.lenient)
    byname = {d.name: d for d in diagrams}
    try:
        d1, d2 = byname[args.name1], byname[args.name2]
    except KeyError as exc:
        print(f"error: no diagram named {exc}", file=sys.stderr)
        return 1
    if args.type == "s":
        v1, v2 = s_invariant(d1), s_invariant(d2)
    else:
        v1, v2 = nprime_invariant(d1), nprime_invariant(d2)
    res = compare(v1, v2)
    if args.json:
        out = {"verdict": res.verdict}
        if res.unit is not None:
            out["unit"] = _unit_dict(res.unit)
            out["expressed"] = res.expressed
        print(json.dumps(out, indent=2))
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
    reports = []
    kinds = ["s", "nprime"] if args.invariant == "both" else [args.invariant]
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
    if args.report:
        with open(args.report, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2)
    return 0 if all(r.ok for r in reports) else 2


def _int_at_least(low):
    """argparse type: an integer >= low, else a usage error."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser():
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
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--max-crossings", type=_int_at_least(1), default=8)
    p.add_argument("--genus", type=_int_at_least(0), default=2)
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
    raise SystemExit(run())


if __name__ == "__main__":
    main()
