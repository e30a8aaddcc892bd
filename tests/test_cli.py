import contextlib
import csv
import io
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quonalg.cli import main
from quonalg.posdef import certify

from lemmas import parse_polynomial, parse_rational_function


GOLDEN = Path(__file__).resolve().parent / "golden_cli"


def run_cli(argv, env=None):
    import os

    saved = {}
    if env:
        for key, value in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if env:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


def test_expect_worked_example():
    code, out, _ = run_cli(
        ["expect", "--m", "4", "--bra", "(2,4)(5,1)(2,4)", "--ket", "(5,2)(2,3)(2,1)"]
    )
    assert code == 0
    assert out == "q^4 + q^5\n"


def test_expect_empty_and_zero():
    code, out, _ = run_cli(["expect", "--m", "2", "--bra", "", "--ket", ""])
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(["expect", "--m", "2", "--bra", "(1,1)", "--ket", "(2,1)"])
    assert code == 0 and out == "0\n"


def test_expect_parse_and_range_errors():
    code, _, err = run_cli(["expect", "--m", "2", "--bra", "(1,3)", "--ket", "(1,1)"])
    assert code == 2 and "color" in err
    code, _, err = run_cli(["expect", "--m", "2", "--bra", "(1", "--ket", ""])
    assert code == 2
    code, _, _ = run_cli(["expect", "--m", "0", "--bra", "", "--ket", ""])
    assert code == 2


def test_expect_formats_agree():
    base = ["expect", "--m", "3", "--bra", "(1,2)(2,1)", "--ket", "(2,3)(1,1)"]
    _, text, _ = run_cli(base)
    _, js, _ = run_cli(base + ["--format", "json"])
    _, cs, _ = run_cli(base + ["--format", "csv"])
    value = text.strip()
    assert json.loads(js)["value"] == value
    rows = list(csv.reader(io.StringIO(cs)))
    assert rows == [["value"], [value]]
    assert parse_polynomial(value) is not None


def test_gram_csv_small():
    code, out, _ = run_cli(["gram", "--m", "1", "--multiset", "1,2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["(1,1)(2,1)", "(2,1)(1,1)"], ["1", "q"], ["q", "1"]]


def test_gram_repeated_modes_diagonal():
    code, out, _ = run_cli(["gram", "--m", "2", "--multiset", "2,2", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 5
    assert rows[1][0] == "1 + q"


def test_gram_json_csv_identical_content():
    for fmt_args in (["--m", "2", "--multiset", "1,2"], ["--m", "3", "--multiset", "1,2"]):
        _, js, _ = run_cli(["gram", *fmt_args, "--format", "json"])
        _, cs, _ = run_cli(["gram", *fmt_args, "--format", "csv"])
        data = json.loads(js)
        rows = list(csv.reader(io.StringIO(cs)))
        assert rows[0] == data["basis"]
        assert rows[1:] == data["entries"]


def test_gram_paths_agree():
    _, a, _ = run_cli(["gram", "--m", "2", "--multiset", "2,2", "--format", "csv"])
    _, b, _ = run_cli(
        ["gram", "--m", "2", "--multiset", "2,2", "--format", "csv", "--path", "combinatorial"]
    )
    assert a == b


def test_gram_output_file(tmp_path):
    target = tmp_path / "block.csv"
    code, out, _ = run_cli(
        ["gram", "--m", "3", "--multiset", "1,2", "--format", "csv", "--output", str(target)]
    )
    assert code == 0 and out == ""
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert len(rows) == 19
    assert rows[1][0] == "1"


def test_det_verify_match():
    for m, n in [(3, 2), (3, 3)]:
        code, out, _ = run_cli(["det", "--m", str(m), "--n", str(n), "--verify"])
        assert code == 0
        assert out.endswith("verdict:  MATCH\n")
        assert "factored:" in out and "expanded:" in out and "oracle:" in out


def test_det_verify_refused_above_n_4():
    # (1,5) passes the block-size guard at size 120, but its oracle would
    # eliminate the two 60-by-60 halves of Q_5; the refusal comes before
    # any work.
    code, out, err = run_cli(["det", "--m", "1", "--n", "5", "--verify"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Q_n" in err and "n = 4" in err
    code, out, _ = run_cli(["det", "--m", "1", "--n", "5"])
    assert code == 0 and out.startswith("m=1 n=5 size=120\n")


def test_det_json_round_trip():
    code, out, _ = run_cli(["det", "--m", "2", "--n", "2", "--verify", "--format", "json"])
    data = json.loads(out)
    assert code == 0 and data["match"] is True
    expanded = parse_polynomial(data["expanded"])
    from quonalg.formulas import det_closed_form

    assert expanded == det_closed_form(2, 2)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_det_renders_the_expanded_determinant_once(monkeypatch, fmt):
    # at (4, 4) one rendering is about 480 MB of text
    from quonalg.exact_arith import Polynomial
    from quonalg.formulas import det_closed_form

    render, expanded, seen = Polynomial.__str__, det_closed_form(3, 2), []

    def counting(self):
        if self == expanded:
            seen.append(1)
        return render(self)

    monkeypatch.setattr(Polynomial, "__str__", counting)
    code, out, _ = run_cli(["det", "--m", "3", "--n", "2", "--format", fmt])
    assert code == 0 and render(expanded) in out and len(seen) == 1


def test_det_csv_has_match_row():
    code, out, _ = run_cli(["det", "--m", "2", "--n", "1", "--format", "csv", "--verify"])
    rows = list(csv.reader(io.StringIO(out)))
    assert ["match", "true"] in rows


def test_inverse_verify():
    code, out, _ = run_cli(["inverse", "--m", "2", "--n", "2", "--verify"])
    assert code == 0
    assert "MATCH (two-sided)" in out


def test_failed_verification_exits_1(monkeypatch):
    from quonalg import cli
    from quonalg.exact_arith import Polynomial

    monkeypatch.setattr(cli, "verify_inverse", lambda m, n: False)
    code, out, err = run_cli(["inverse", "--m", "2", "--n", "2", "--verify"])
    assert (code, err) == (1, "") and out.endswith("\nverdict: MISMATCH\n")
    code, out, _ = run_cli(["inverse", "--m", "2", "--n", "2", "--verify", "--format", "json"])
    assert code == 1 and json.loads(out)["match"] is False
    monkeypatch.setattr(cli, "regular_block_det", lambda m, n: Polynomial.one())
    code, out, err = run_cli(["det", "--m", "2", "--n", "2", "--verify"])
    assert (code, err) == (1, "") and out.endswith("\nverdict:  MISMATCH\n")
    code, out, _ = run_cli(["det", "--m", "2", "--n", "2", "--verify", "--format", "csv"])
    assert code == 1 and out.endswith("match,false\n")


@pytest.mark.parametrize(
    "argv,name",
    [
        (["inverse", "--m", "2", "--n", "2", "--verify"], "inverse_m2_n2_verify"),
        (["inverse", "--m", "1", "--n", "3", "--verify"], "inverse_m1_n3_verify"),
        (["inverse", "--m", "2", "--n", "3", "--verify"], "inverse_m2_n3_verify"),
        # four distinct denominators: coefficients reduce by different factors
        (["inverse", "--m", "1", "--n", "4", "--verify"], "inverse_m1_n4_verify"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_inverse_output_is_pinned(argv, name, fmt):
    code, out, _ = run_cli(argv + ["--format", fmt])
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


def test_det_output_is_pinned():
    code, out, _ = run_cli(["det", "--m", "3", "--n", "2", "--verify"])
    assert code == 0
    assert out == (GOLDEN / "det_m3_n2_verify.text").read_text(encoding="utf-8")


def test_unsplit_det_output_is_pinned():
    # Q_4 is 24 x 24 and does not split: one packed elimination, end to end.
    code, out, _ = run_cli(["det", "--m", "1", "--n", "4", "--verify"])
    assert code == 0
    assert out == (GOLDEN / "det_m1_n4_verify.text").read_text(encoding="utf-8")


PINNED = {
    "expect_worked_example": [
        "expect", "--m", "4", "--bra", "(2,4)(5,1)(2,4)", "--ket", "(5,2)(2,3)(2,1)"
    ],
    "gram_m3_12": ["gram", "--m", "3", "--multiset", "1,2"],
    "gram_m2_22_combinatorial": [
        "gram", "--m", "2", "--multiset", "2,2", "--path", "combinatorial"
    ],
    "posdef_m3_n2_scan": ["posdef", "--m", "3", "--n", "2", "--scan=-1/2:1:7"],
    "posdef_m2_n2_q1_2": ["posdef", "--m", "2", "--n", "2", "--q", "1/2"],
    "enumerate_m3_n2": ["enumerate", "--m", "3", "--n", "2"],
    "det_m2_n2": ["det", "--m", "2", "--n", "2"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_output_is_pinned(name, fmt):
    code, out, err = run_cli(PINNED[name] + ["--format", fmt])
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["gram", "--m", "2", "--multiset", "1,x"], None,
         "bad multiset '1,x': invalid literal for int() with base 10: 'x'"),
        (["posdef", "--m", "1", "--n", "2", "--scan=0:1/0:3"], None,
         "zero denominator in '1/0'"),
        (["enumerate", "--m", "1", "--n", "3"], {"QUON_MAX_BLOCK": "4"},
         "group has 6 basis elements, above the limit 4; set QUON_MAX_BLOCK to override"),
        (["gram", "--m", "2", "--multiset", "1,1", "--path", "combinatorial"],
         {"QUON_MAX_BLOCK": "5"},
         "group walked by the combinatorial path has 8 basis elements, above the limit 5; "
         "set QUON_MAX_BLOCK to override"),
        (["posdef", "--m", "1", "--n", "2", "--scan=0:1:4"], {"QUON_MAX_BLOCK": "3"},
         "--scan has 4 points, above the limit 3; set QUON_MAX_BLOCK to override"),
    ],
)
def test_usage_error_text_is_pinned(argv, env, message):
    code, out, err = run_cli(argv, env=env)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["expect", "gram", "det", "inverse", "posdef", "enumerate"])
def test_help_is_pinned(command):
    code, out, _ = run_cli([command, "--help"], env={"COLUMNS": "80"})
    assert code == 0
    assert out == (GOLDEN / f"help_{command}.text").read_text(encoding="utf-8")


def test_posdef_help_shows_the_equals_form_for_negative_values():
    code, out, _ = run_cli(["posdef", "--help"], env={"COLUMNS": "200"})
    assert code == 0
    assert "--q=-1/2" in out and "--scan=-1/2:1:7" in out
    # The forms shown run; with a space argparse takes -1/2 for an option.
    for option in (["--q=-1/2"], ["--scan=-1/2:1:7"]):
        assert run_cli(["posdef", "--m", "2", "--n", "2", *option])[0] == 0
    for option in (["--q", "-1/2"], ["--scan", "-1/2:1:7"]):
        code, out, err = run_cli(["posdef", "--m", "2", "--n", "2", *option])
        assert (code, out) == (2, "") and "expected one argument" in err


def test_posdef_has_no_eigenvalue_option():
    code, out, err = run_cli(["posdef", "--m", "2", "--n", "2", "--q", "1/2", "--eigs"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --eigs" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "--m", "2", "--n", "1600"],
        ["enumerate", "--m", "1", "--n", "2000"],
        ["enumerate", "--m", "1", "--n", "4000000"],
        ["gram", "--m", "7" * 3000, "--multiset", "1,2"],
    ],
)
def test_huge_size_is_refused_without_forming_it(argv):
    # m**n * n! here has thousands of digits or more; the guard stops at the
    # first partial product above the limit
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "QUON_MAX_BLOCK" in err


def test_posdef_prints_minors_past_the_default_digit_limit():
    # the smallest minor at q = 1/10**300 has a 53,804-bit denominator
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = digit_limit()
    code, out, err = run_cli(["posdef", "--m", "3", "--n", "2", "--q", f"1/{10**300}"])
    assert digit_limit() == before  # main restores the interpreter's limit
    assert code == 0 and err == ""
    printed = out.split("smallest_minor=")[1].strip()
    if before:
        sys.set_int_max_str_digits(0)
    try:
        assert Fraction(printed) == certify(3, 2, Fraction(1, 10**300)).smallest_minor
    finally:
        if before:
            sys.set_int_max_str_digits(before)


def test_inverse_json_terms_reparse():
    code, out, _ = run_cli(["inverse", "--m", "1", "--n", "2", "--format", "json", "--verify"])
    data = json.loads(out)
    assert code == 0 and data["match"] is True
    assert data["term_count"] == 2
    for term in data["terms"]:
        parse_rational_function(term["coeff"])


def test_posdef_single_point():
    code, out, _ = run_cli(["posdef", "--m", "3", "--n", "2", "--q", "1/2"])
    assert code == 0
    assert "positive_definite" in out


def test_posdef_scan_csv():
    code, out, _ = run_cli(
        ["posdef", "--m", "3", "--n", "2", "--scan=-1/2:1:7", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q0", "verdict", "smallest_minor"]
    assert rows[1][:2] == ["-1/2", "singular"]
    assert rows[-1][1] == "singular"
    assert all(row[1] == "positive_definite" for row in rows[2:-1])


def test_posdef_json_csv_identical_content():
    args = ["posdef", "--m", "1", "--n", "2", "--scan=-1:1:5"]
    _, js, _ = run_cli(args + ["--format", "json"])
    _, cs, _ = run_cli(args + ["--format", "csv"])
    data = json.loads(js)["reports"]
    rows = list(csv.reader(io.StringIO(cs)))
    assert rows[0] == ["q0", "verdict", "smallest_minor"]
    assert [[r["q0"], r["verdict"], r["smallest_minor"]] for r in data] == rows[1:]


def test_posdef_rejects_floats_and_needs_one_mode():
    code, _, err = run_cli(["posdef", "--m", "1", "--n", "2", "--q", "0.5"])
    assert code == 2 and "decimal" in err
    code, _, _ = run_cli(["posdef", "--m", "1", "--n", "2"])
    assert code == 2
    code, _, _ = run_cli(["posdef", "--m", "1", "--n", "2", "--q", "0", "--scan=0:1:2"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "--m", "1", "--n", "0"],
        ["inverse", "--m", "1", "--n", "0"],
        ["posdef", "--m", "1", "--n", "2", "--scan=0:1:0"],
        ["posdef", "--m", "1", "--n", "2", "--q", "1/0"],
        ["posdef", "--m", "1", "--n", "2", "--q", "1e-1"],
        ["posdef", "--m", "1", "--n", "2", "--q", "1_000"],
        ["det", "--m", "1", "--n", "2", "--output", "/nonexistent/dir/x"],
    ],
)
def test_bad_input_is_a_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_enumerate_table():
    code, out, _ = run_cli(["enumerate", "--m", "3", "--n", "2", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 19
    assert rows[0] == ["element", "cinv"]
    assert rows[1] == ["(1,3)(2,3)", "0"]
    exps = [int(r[1]) for r in rows[1:]]
    assert exps == [0, 1, 1, 1, 2, 2, 1, 2, 2, 1, 2, 2, 2, 3, 3, 2, 3, 3]


def test_block_size_guard():
    code, _, err = run_cli(["det", "--m", "3", "--n", "5"])
    assert code == 2 and "QUON_MAX_BLOCK" in err
    # 8! = 40320 elements is above the default limit, cheap to enumerate
    code, _, err = run_cli(["enumerate", "--m", "1", "--n", "8"])
    assert code == 2 and "QUON_MAX_BLOCK" in err
    code, out, _ = run_cli(["enumerate", "--m", "1", "--n", "8", "--format", "csv"],
                           env={"QUON_MAX_BLOCK": "50000"})
    assert code == 0 and len(out.splitlines()) == 40321
    code, _, err = run_cli(["enumerate", "--m", "1", "--n", "3"],
                           env={"QUON_MAX_BLOCK": "zebra"})
    assert code == 2


def test_scan_points_are_guarded():
    # every report is built before any is printed, so a scan past the limit
    # is refused at once instead of running with no output
    start = time.perf_counter()
    code, out, err = run_cli(["posdef", "--m", "2", "--n", "2", "--scan=0:1:99999999999999999999999"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and "above the limit 10000" in err
    code, out, err = run_cli(["posdef", "--m", "1", "--n", "2", "--scan=0:1:4"],
                             env={"QUON_MAX_BLOCK": "4"})
    assert (code, err) == (0, "") and len(out.splitlines()) == 4


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_combinatorial_gram_guards_the_group_it_walks():
    # a 1x1 block whose group has 11! = 39,916,800 elements; the child's
    # memory is capped so that a walk past the guard fails at once instead
    # of holding the whole group
    ones = ",".join(["1"] * 11)
    base = [sys.executable, "-m", "quonalg.cli", "gram", "--m", "1", "--multiset", ones]
    runs = {
        path: subprocess.run(base + ["--path", path], capture_output=True, text=True,
                             timeout=60, preexec_fn=_cap_address_space)
        for path in ("combinatorial", "operator")
    }
    refused = runs["combinatorial"]
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("error: ") and len(refused.stderr.splitlines()) == 1
    assert "QUON_MAX_BLOCK" in refused.stderr
    answered = runs["operator"]
    assert answered.returncode == 0 and answered.stderr == ""
    assert answered.stdout.startswith(f"# m=1 multiset={ones} size=1\n")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quonalg.cli", "expect", "--m", "2", "--bra", "", "--ket", ""],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
