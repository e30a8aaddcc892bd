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
acts on the ket first.  Rational inputs are integers or ``p/q``; decimals,
exponents and underscores are rejected.  A value that starts with a minus sign must be joined
to its option by ``=``, as in ``--q=-1/2`` or ``--scan=-1/2:1:7``:
argparse reads ``--q -1/2`` as an option with no value.  ``--format``
selects text (default), json, or csv, all carrying the same mathematical
content in canonical string forms.

Exit status: 0 on success (and on a verified match), 1 when a requested
verification finds a mismatch, 2 on usage or parse errors and on an
``--output`` path that cannot be written.  The block-size guard (default
10000 basis elements) can be lifted with QUON_MAX_BLOCK; ``gram --path
combinatorial`` also walks the whole group of m**n * n! elements, so the
same limit applies to the group's size there; ``posdef --scan`` builds
every report before it prints one, so the limit caps its number of points
too.  ``det --verify`` eliminates the two n!/2-by-n!/2 centrosymmetric
halves of the factor Q_n of the regular block, so it is refused above
n = 4 whatever the block size.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .exact_arith import parse_rational
from .colored_perm import as_multiset, check_tokens, cinv, enumerate_group, parse_word
from .gram import build_gram, gram_json_data
from .formulas import det_factorization, inverse_closed_form, regular_block_det, verify_inverse
from .posdef import certify, scan
from .quon_engine import vacuum_expectation

DEFAULT_MAX_BLOCK = 10000
# The det oracle eliminates the two n!/2-by-n!/2 centrosymmetric halves of
# Q_n: those of Q_4 (12-by-12) take about a millisecond each, and each
# 60-by-60 half of Q_5 took about 2 minutes (108 and 118 s, Python 3.11 on a
# shared 2-core x86-64 machine).
MAX_VERIFY_N = 4


class UsageError(Exception):
    pass


def _limit():
    """The size limit: QUON_MAX_BLOCK where it is set, else DEFAULT_MAX_BLOCK."""
    raw = os.environ.get("QUON_MAX_BLOCK", "")
    if not raw.strip():
        return DEFAULT_MAX_BLOCK
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"QUON_MAX_BLOCK must be an integer, got {raw!r}") from exc


def _guard_size(m, multiset, what):
    """Basis size m**n * n!/prod(multiplicity!) of the block of ``multiset``, guarded.

    The size is built one position at a time (m**k times the arrangements of
    the first k values, an integer at every k), and the guard trips at the
    first partial product above the limit, so a huge size is never formed.
    """
    limit = _limit()
    size, seen, exact = 1, {}, True
    for k, value in enumerate(multiset, 1):
        if size > limit:
            exact = False
            break
        seen[value] = seen.get(value, 0) + 1
        size = size * m * k // seen[value]
    if size > limit:
        raise UsageError(
            f"{what} has {'' if exact else 'at least '}{size} basis elements, "
            f"above the limit {limit}; set QUON_MAX_BLOCK to override"
        )
    return size


def _regular_size(args, what="regular block", positive_n=False):
    """Basis size m**n * n! of the regular block (or the group), guarded."""
    if positive_n and args.n < 1:
        raise UsageError(f"{args.command} needs --n >= 1")
    return _guard_size(args.m, range(1, args.n + 1), what)


def _parsed(parse, text, prefix=""):
    """``parse(text)``, with a parse failure turned into a UsageError."""
    try:
        return parse(text)
    except ZeroDivisionError as exc:
        raise UsageError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def _parse_multiset(text):
    values = [_parsed(int, v, f"bad multiset {text!r}: ") for v in text.split(",") if v.strip()]
    if not values:
        raise UsageError("multiset must be nonempty, e.g. --multiset 1,2")
    return _parsed(as_multiset, values)


def _parse_word_arg(text, m, what):
    def parse(text):
        word = parse_word(text)
        check_tokens([v for v, _ in word], [c for _, c in word], m)
        return word

    return _parsed(parse, text, f"bad {what} word: ")


def _render(fmt, payload, rows, lines):
    """The one place a result becomes text.  Each ``cmd_*`` returns
    ``(code, payload, rows, lines)``: a JSON object, a CSV table, text lines."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    return "\n".join(lines) + "\n"


def cmd_expect(args):
    word_bra = _parse_word_arg(args.bra, args.m, "bra")
    word_ket = _parse_word_arg(args.ket, args.m, "ket")
    value = str(vacuum_expectation(word_bra, word_ket, args.m))
    payload = {"m": args.m, "bra": args.bra, "ket": args.ket, "value": value}
    return 0, payload, [["value"], [value]], [value]


def cmd_gram(args):
    multiset = _parse_multiset(args.multiset)
    _guard_size(args.m, multiset, f"gram block of {multiset}")
    if args.path == "combinatorial":
        _guard_size(args.m, range(1, len(multiset) + 1), "group walked by the combinatorial path")
    data = gram_json_data(build_gram(args.m, multiset, path=args.path))
    basis, entries = data["basis"], data["entries"]
    lines = [f"# m={data['m']} multiset={','.join(map(str, data['multiset']))} size={len(basis)}"]
    lines.append("basis: " + ", ".join(basis))
    lines.extend(", ".join(row) for row in entries)
    return 0, data, [basis, *entries], lines


def cmd_det(args):
    size = _regular_size(args, positive_n=True)
    if args.verify and args.n > MAX_VERIFY_N:
        raise UsageError(
            f"det --verify eliminates the halves of the {args.n}!-by-{args.n}! factor Q_n "
            f"of the regular block, too slow above n = {MAX_VERIFY_N}; drop --verify"
        )
    fact = det_factorization(args.m, args.n)
    expanded = fact.expand()
    text = str(expanded)  # rendered once: at (4, 4) it is about 480 MB
    payload = {
        "m": args.m,
        "n": args.n,
        "size": size,
        "factored": {
            "color_base": str(fact.color_base),
            "color_exponent": fact.color_exponent,
            "perm_factors": [[str(base), exp] for base, exp in fact.perm_factors],
        },
        "factored_str": fact.factored_str(),
        "expanded": text,
    }
    rows = [["key", "value"], ["factored", payload["factored_str"]], ["expanded", text]]
    lines = [f"m={args.m} n={args.n} size={size}"]
    lines += [f"factored: {payload['factored_str']}", f"expanded: {text}"]
    code = 0
    if args.verify:
        oracle = regular_block_det(args.m, args.n)
        payload["oracle"] = str(oracle)
        match = payload["match"] = oracle == expanded
        code = 0 if match else 1
        rows += [["oracle", payload["oracle"]], ["match", str(match).lower()]]
        lines.append(f"oracle:   {payload['oracle']}")
        lines.append("verdict:  " + ("MATCH" if match else "MISMATCH"))
    return code, payload, rows, lines


def cmd_inverse(args):
    _regular_size(args, positive_n=True)
    inv = inverse_closed_form(args.m, args.n)
    ordered = sorted(inv.terms.items(), key=lambda item: str(item[0]))
    table = [[str(pi), str(c)] for pi, c in ordered]
    terms = [{"element": w, "coeff": c} for w, c in table]
    payload = {"m": args.m, "n": args.n, "term_count": len(terms), "terms": terms}
    rows = [["element", "coeff"], *table]
    lines = [f"m={args.m} n={args.n} terms={len(terms)}"]
    lines.extend(f"{w}  *  {c}" for w, c in table)
    code = 0
    if args.verify:
        match = payload["match"] = verify_inverse(args.m, args.n)
        code = 0 if match else 1
        rows.append(["match", str(match).lower()])
        lines.append("verdict: " + ("MATCH (two-sided)" if match else "MISMATCH"))
    return code, payload, rows, lines


def cmd_posdef(args):
    _regular_size(args)
    if (args.q is None) == (args.scan is None):
        raise UsageError("posdef needs exactly one of --q or --scan lo:hi:steps")
    if args.q is not None:
        reports = [certify(args.m, args.n, _parsed(parse_rational, args.q))]
    else:
        pieces = args.scan.split(":")
        if len(pieces) != 3:
            raise UsageError("--scan expects lo:hi:steps")
        lo, hi = _parsed(parse_rational, pieces[0]), _parsed(parse_rational, pieces[1])
        steps = _parsed(int, pieces[2])
        if steps < 1:
            raise UsageError("--scan steps must be >= 1")
        limit = _limit()
        if steps > limit:  # every report is built before any is printed
            raise UsageError(
                f"--scan has {steps} points, above the limit {limit}; "
                "set QUON_MAX_BLOCK to override"
            )
        reports = scan(args.m, args.n, lo, hi, steps)
    header = ["q0", "verdict", "smallest_minor"]
    table = [[str(rep.q0), rep.verdict, str(rep.smallest_minor)] for rep in reports]
    reports_out = [dict(zip(header, row)) for row in table]
    lines = [" ".join(f"{key}={value}" for key, value in zip(header, row)) for row in table]
    return 0, {"m": args.m, "n": args.n, "reports": reports_out}, [header, *table], lines


def cmd_enumerate(args):
    _regular_size(args, "group")
    table = [(str(g), cinv(g)) for g in enumerate_group(args.m, args.n)]
    payload = {
        "m": args.m,
        "n": args.n,
        "elements": [{"element": w, "cinv": c} for w, c in table],
    }
    rows = [["element", "cinv"]] + [[w, str(c)] for w, c in table]
    width = max(len(w) for w, _ in table)
    return 0, payload, rows, [f"{w:<{width}}  cinv={c}" for w, c in table]


def _add_subcommand(sub, name, func, summary, *options, n=True, m_help=None):
    """Register ``func`` with --m [--n] ``options`` --format --output, in that order."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--m", type=int, required=True, help=m_help)
    if n:
        p.add_argument("--n", type=int, required=True)
    for flag, kwargs in options:
        p.add_argument(flag, **kwargs)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    p.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quonalg",
        description="exact computations in the color-deformed quon algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(
        sub, "expect", cmd_expect, "vacuum expectation of a bra/ket pair",
        ("--bra", dict(default="", help="annihilator word as written, e.g. (2,4)(5,1)(2,4)")),
        ("--ket", dict(default="", help="creator word as written, e.g. (5,2)(2,3)(2,1)")),
        n=False, m_help="number of colors",
    )
    _add_subcommand(
        sub, "gram", cmd_gram, "emit one Gram block",
        ("--multiset", dict(required=True, help="comma-separated values, e.g. 1,2")),
        ("--path", dict(choices=("operator", "combinatorial"), default="operator")),
        n=False,
    )
    _add_subcommand(
        sub, "det", cmd_det, "closed-form regular-block determinant",
        ("--verify", dict(action="store_true", help="also run the fraction-free oracle")),
    )
    _add_subcommand(
        sub, "inverse", cmd_inverse, "closed-form inverse of the q-weighted group sum",
        ("--verify", dict(action="store_true", help="check the inverse two-sidedly")),
    )
    _add_subcommand(
        sub, "posdef", cmd_posdef, "exact positive-definiteness certificates",
        ("--q", dict(default=None, help="one rational point, e.g. 1/2 or --q=-1/2")),
        ("--scan", dict(
            default=None,
            help="rational grid lo:hi:steps, e.g. --scan=-1/2:1:7 (a negative value "
            "needs the = form)",
        )),
    )
    _add_subcommand(sub, "enumerate", cmd_enumerate, "colored permutations with their cinv")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # exact results may need more digits than str(int) allows by default
    max_digits = getattr(sys, "get_int_max_str_digits", None)
    saved_digits = max_digits() if max_digits else None
    if max_digits:
        sys.set_int_max_str_digits(0)
    try:
        if args.m < 1:
            raise UsageError("--m must be >= 1")
        if getattr(args, "n", 0) < 0:
            raise UsageError("--n must be >= 0")
        code, payload, rows, lines = args.func(args)
        text = _render(args.format, payload, rows, lines)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
        else:
            sys.stdout.write(text)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    finally:
        if max_digits:
            sys.set_int_max_str_digits(saved_digits)


if __name__ == "__main__":
    sys.exit(main())
