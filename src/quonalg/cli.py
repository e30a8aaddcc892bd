"""Command-line front end.

Subcommands
    expect     vacuum expectation value of a bra/ket pair of operator words
    gram       emit one Gram block in the canonical basis order
    det        closed-form determinant of the regular block, optional oracle check
    inverse    closed-form inverse of the q-weighted group sum, optional check
    posdef     exact positive-definiteness certificates at rational q
    enumerate  table of colored permutations with their cinv statistic

Words are written exactly as they appear in the bracket, e.g.
``--bra "(2,4)(5,1)(2,4)"`` stands for the annihilators a_{2,4} a_{5,1}
a_{2,4} read left to right, so the last pair is the innermost operator and
acts on the ket first.  Rational inputs are integers or ``p/q``; decimal
floats are rejected.  ``--format`` selects text (default), json, or csv,
all carrying the same mathematical content in canonical string forms.

Exit status: 0 on success (and on a verified match), 1 when a requested
verification finds a mismatch, 2 on usage or parse errors and on an
``--output`` path that cannot be written.  The block-size guard (default
10000 basis elements) can be lifted with QUON_MAX_BLOCK.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from math import factorial

from .exact_arith import parse_rational
from .colored_perm import as_multiset, cinv, enumerate_group, parse_word
from .gram import build_gram, gram_csv_text, gram_json_data
from .formulas import det_factorization, inverse_closed_form, regular_block_det, verify_inverse
from .posdef import approx_eigenvalues, certify, scan
from .quon_engine import vacuum_expectation

DEFAULT_MAX_BLOCK = 10000


class UsageError(Exception):
    pass


def _max_block():
    raw = os.environ.get("QUON_MAX_BLOCK", "")
    if raw.strip():
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"QUON_MAX_BLOCK must be an integer, got {raw!r}") from exc
    return DEFAULT_MAX_BLOCK


def _guard_size(size, what):
    limit = _max_block()
    if size > limit:
        raise UsageError(
            f"{what} has {size} basis elements, above the limit {limit}; "
            "set QUON_MAX_BLOCK to override"
        )


def _emit(text, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _csv_text(rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def _fraction_str(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def _parse_multiset(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad multiset {text!r}: {exc}") from exc
    if not values:
        raise UsageError("multiset must be nonempty, e.g. --multiset 1,2")
    try:
        return as_multiset(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_rational_arg(text):
    try:
        return parse_rational(text)
    except ZeroDivisionError as exc:
        raise UsageError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_word_arg(text, m, what):
    try:
        word = parse_word(text)
    except ValueError as exc:
        raise UsageError(f"bad {what} word: {exc}") from exc
    for mode, color in word:
        if mode < 1:
            raise UsageError(f"{what} mode {mode} must be positive")
        if not 1 <= color <= m:
            raise UsageError(f"{what} color {color} outside 1..{m}")
    return word


def cmd_expect(args):
    word_bra = _parse_word_arg(args.bra, args.m, "bra")
    word_ket = _parse_word_arg(args.ket, args.m, "ket")
    value = str(vacuum_expectation(word_bra, word_ket, args.m))
    if args.format == "json":
        payload = {"m": args.m, "bra": args.bra, "ket": args.ket, "value": value}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(_csv_text([["value"], [value]]), args.output)
    else:
        _emit(value + "\n", args.output)
    return 0


def cmd_gram(args):
    multiset = _parse_multiset(args.multiset)
    n = len(multiset)
    counted = factorial(n)
    for repeat in {v: multiset.count(v) for v in multiset}.values():
        counted //= factorial(repeat)
    _guard_size(args.m**n * counted, f"gram block of {multiset}")
    block = build_gram(args.m, multiset, path=args.path)
    if args.format == "json":
        _emit(json.dumps(gram_json_data(block), indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(gram_csv_text(block), args.output)
    else:
        lines = [f"# m={block.m} multiset={','.join(map(str, block.multiset))} size={block.size}"]
        lines.append("basis: " + ", ".join(str(b) for b in block.basis))
        for row in block.entries:
            lines.append(", ".join(str(c) for c in row))
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _require_positive_n(args):
    if args.n < 1:
        raise UsageError(f"{args.command} needs --n >= 1")


def cmd_det(args):
    _require_positive_n(args)
    _guard_size(args.m**args.n * factorial(args.n), "regular block")
    fact = det_factorization(args.m, args.n)
    expanded = fact.expand()
    payload = {
        "m": args.m,
        "n": args.n,
        "size": args.m**args.n * factorial(args.n),
        "factored": {
            "color_base": str(fact.color_base),
            "color_exponent": fact.color_exponent,
            "perm_factors": [[str(base), exp] for base, exp in fact.perm_factors],
        },
        "factored_str": fact.factored_str(),
        "expanded": str(expanded),
    }
    code = 0
    if args.verify:
        oracle = regular_block_det(args.m, args.n)
        payload["oracle"] = str(oracle)
        payload["match"] = oracle == expanded
        code = 0 if payload["match"] else 1
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        rows = [["key", "value"]]
        rows.append(["factored", payload["factored_str"]])
        rows.append(["expanded", payload["expanded"]])
        if args.verify:
            rows.append(["oracle", payload["oracle"]])
            rows.append(["match", str(payload["match"]).lower()])
        _emit(_csv_text(rows), args.output)
    else:
        lines = [
            f"m={args.m} n={args.n} size={payload['size']}",
            f"factored: {payload['factored_str']}",
            f"expanded: {payload['expanded']}",
        ]
        if args.verify:
            lines.append(f"oracle:   {payload['oracle']}")
            lines.append("verdict:  " + ("MATCH" if payload["match"] else "MISMATCH"))
        _emit("\n".join(lines) + "\n", args.output)
    return code


def cmd_inverse(args):
    _require_positive_n(args)
    _guard_size(args.m**args.n * factorial(args.n), "regular block")
    inv = inverse_closed_form(args.m, args.n)
    ordered = sorted(inv.terms.items(), key=lambda item: str(item[0]))
    terms = [{"element": str(pi), "coeff": str(c)} for pi, c in ordered]
    payload = {"m": args.m, "n": args.n, "term_count": len(terms), "terms": terms}
    code = 0
    if args.verify:
        payload["match"] = verify_inverse(args.m, args.n)
        code = 0 if payload["match"] else 1
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        rows = [["element", "coeff"]]
        rows.extend([t["element"], t["coeff"]] for t in terms)
        if args.verify:
            rows.append(["match", str(payload["match"]).lower()])
        _emit(_csv_text(rows), args.output)
    else:
        lines = [f"m={args.m} n={args.n} terms={len(terms)}"]
        lines.extend(f"{t['element']}  *  {t['coeff']}" for t in terms)
        if args.verify:
            lines.append(
                "verdict: " + ("MATCH (two-sided)" if payload["match"] else "MISMATCH")
            )
        _emit("\n".join(lines) + "\n", args.output)
    return code


def cmd_posdef(args):
    _guard_size(args.m**args.n * factorial(args.n), "regular block")
    if (args.q is None) == (args.scan is None):
        raise UsageError("posdef needs exactly one of --q or --scan lo:hi:steps")
    if args.q is not None:
        reports = [certify(args.m, args.n, _parse_rational_arg(args.q))]
    else:
        pieces = args.scan.split(":")
        if len(pieces) != 3:
            raise UsageError("--scan expects lo:hi:steps")
        lo, hi = _parse_rational_arg(pieces[0]), _parse_rational_arg(pieces[1])
        try:
            steps = int(pieces[2])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if steps < 1:
            raise UsageError("--scan steps must be >= 1")
        reports = scan(args.m, args.n, lo, hi, steps)
    if args.eigs:
        block = build_gram(args.m, tuple(range(1, args.n + 1)))
    rows = []
    for rep in reports:
        row = {
            "q0": _fraction_str(rep.q0),
            "verdict": rep.verdict,
            "smallest_minor": _fraction_str(rep.smallest_minor),
        }
        if args.eigs:
            row["approx_min_eigenvalue"] = min(approx_eigenvalues(block, rep.q0))
        rows.append(row)
    if args.format == "json":
        _emit(json.dumps({"m": args.m, "n": args.n, "reports": rows}, indent=2) + "\n", args.output)
    elif args.format == "csv":
        header = ["q0", "verdict", "smallest_minor"]
        if args.eigs:
            header.append("approx_min_eigenvalue")
        table = [header] + [[str(row[k]) for k in header] for row in rows]
        _emit(_csv_text(table), args.output)
    else:
        lines = [
            f"q0={row['q0']} verdict={row['verdict']} smallest_minor={row['smallest_minor']}"
            + (f" approx_min_eigenvalue={row['approx_min_eigenvalue']:.6g}" if args.eigs else "")
            for row in rows
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_enumerate(args):
    _guard_size(args.m**args.n * factorial(args.n), "group")
    table = [(str(g), cinv(g)) for g in enumerate_group(args.m, args.n)]
    if args.format == "json":
        payload = {
            "m": args.m,
            "n": args.n,
            "elements": [{"element": w, "cinv": c} for w, c in table],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        rows = [["element", "cinv"]] + [[w, str(c)] for w, c in table]
        _emit(_csv_text(rows), args.output)
    else:
        width = max(len(w) for w, _ in table)
        lines = [f"{w:<{width}}  cinv={c}" for w, c in table]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quonalg",
        description="exact computations in the color-deformed quon algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="vacuum expectation of a bra/ket pair")
    p.add_argument("--m", type=int, required=True, help="number of colors")
    p.add_argument("--bra", default="", help="annihilator word as written, e.g. (2,4)(5,1)(2,4)")
    p.add_argument("--ket", default="", help="creator word as written, e.g. (5,2)(2,3)(2,1)")
    _add_common(p)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("gram", help="emit one Gram block")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--multiset", required=True, help="comma-separated values, e.g. 1,2")
    p.add_argument("--path", choices=("operator", "combinatorial"), default="operator")
    _add_common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("det", help="closed-form regular-block determinant")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="also run the fraction-free oracle")
    _add_common(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("inverse", help="closed-form inverse of the q-weighted group sum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="check the inverse two-sidedly")
    _add_common(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("posdef", help="exact positive-definiteness certificates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", default=None, help="one rational point, e.g. 1/2")
    p.add_argument("--scan", default=None, help="rational grid lo:hi:steps, e.g. -1/2:1:7")
    p.add_argument("--eigs", action="store_true", help="add approximate eigenvalue diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_posdef)

    p = sub.add_parser("enumerate", help="colored permutations with their cinv")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if getattr(args, "m", 1) < 1:
            raise UsageError("--m must be >= 1")
        if getattr(args, "n", 0) < 0:
            raise UsageError("--n must be >= 0")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
