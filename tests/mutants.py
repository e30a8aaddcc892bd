"""A catalogue of mutants: each breaks one proved line of the package, and
the tests named beside it must fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py

An entry is (file, exact old text, new text, killer test ids).  The script
first runs every killer on an unmutated copy, so that a test which fails
anyway kills nothing.  Then, for each entry, it copies ``src/`` and
``tests/`` to a new temporary directory, replaces the old text, which must
occur there exactly once, by the new text, and runs the entry's killers
there in a subprocess.  The mutant is killed when pytest reports a failed
test.  The script exits 1 if an old text does not occur exactly once, if a
killer fails unmutated or cannot be run, or if a mutant survives.  Only the
standard library is used here; the killers need pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINALG = "src/quonalg/linalg.py"
ARITH = "src/quonalg/exact_arith.py"
ALGEBRA = "src/quonalg/group_algebra.py"
ENGINE = "src/quonalg/quon_engine.py"
FORMULAS = "src/quonalg/formulas.py"
COLORED = "src/quonalg/colored_perm.py"
T = "tests/test_linalg.py::"
GA = "tests/test_group_algebra.py::"
F = "tests/test_formulas.py::"
ORBITS = "tests/test_gram.py::test_orbit_blocks_match_a_walk_per_column"
NOT_ELEMENTS = GA + "test_words_that_are_not_group_elements_are_refused"

MUTANTS = [
    (
        LINALG,
        "    return stride((isqrt(n**n - 1) + 1) * h**n)",
        "    return stride((isqrt(n**n - 1) + 1) * h**n) - 1",
        (T + "test_stride_fits_an_extremal_minor", T + "test_half_stride_fits_an_extremal_minor"),
    ),
    (
        LINALG,
        "    return stride(h**2)",
        "    return stride(h**2) - 1",
        (T + "test_split_stride_is_tight",),
    ),
    (
        LINALG,
        "minors.append(num if c == 1 else _int_divexact(num, c ** (s * b + t)))",
        "minors.append(num)",
        (T + "test_split_of_tensor_products_and_near_misses",),
    ),
    (
        LINALG,
        "        if c:\n            da, sa",
        "        if True:\n            da, sa",
        (T + "test_split_of_tensor_products_and_near_misses",),
    ),
    (
        LINALG,
        "head, start = (row_k[i], i) if symmetric else (row_i[k], k + 1)",
        "head, start = (row_i[k], i) if symmetric else (row_i[k], k + 1)",
        (T + "test_symmetric_elimination_matches_fractions",),
    ),
    (
        LINALG,
        "                    rows[i][k:i] = [rows[j][i] for j in range(k, i)]",
        "                    pass",
        (T + "test_symmetric_elimination_matches_fractions",),
    ),
    (
        LINALG,
        "    symmetric = _is_symmetric(rows)\n",
        "    symmetric = True\n",
        (T + "test_one_asymmetric_entry_takes_the_full_loop",),
    ),
    (
        LINALG,
        "tuple(rows[i]) != tuple(reversed(rows[n - 1 - i]))",
        "tuple(rows[i][i:]) != tuple(reversed(rows[n - 1 - i]))[i:]",
        (T + "test_near_centrosymmetric_matrices_are_not_halved",),
    ),
    (
        LINALG,
        "pairs[key] = (a + b, a - b)",
        "pairs[key] = (a + b, b - a)",
        (T + "test_centrosymmetric_determinants_split_into_halves",),
    ),
    (
        LINALG,
        "if any(rows[k][k:]) else ()",
        "if any(row[k] for row in rows[k:]) else ()",
        (T + "test_rank_stop_past_a_zero_pivot",),
    ),
    (
        LINALG,
        "        if len(coeffs) - 1 > g:\n            return None",
        "        if False:\n            return None",
        (T + "test_graded_leaf_minors_match_fractions",),
    ),
    (
        LINALG,
        "        if f > k * top:\n            return None",
        "        if False:\n            return None",
        (T + "test_graded_leaf_minors_match_fractions",),
    ),
    (
        ARITH,
        "(g - (k - j) * c) * out[k - j]",
        "(g - c) * out[k - j]",
        ("tests/test_exact_arith.py::test_power_product_matches_a_schoolbook_product",),
    ),
    (
        ALGEBRA,
        "    return stride(min(sup_x * l1_y, sup_y * l1_x))",
        "    return stride(min(sup_x * l1_y, sup_y * l1_x)) - 1",
        ("tests/test_group_algebra.py::test_product_stride_is_tight",),
    ),
    (
        ALGEBRA,
        "    return stride(sum(max(map(abs, c.coeffs)) for c in x.terms.values()))",
        "    return stride(sum(max(map(abs, c.coeffs)) for c in x.terms.values())) - 1",
        ("tests/test_group_algebra.py::test_rep_matrix_stride_is_tight",),
    ),
    (
        ENGINE,
        "    return stride * (length * (length + 1) // 2 + 1)",
        "    return stride * (length * (length + 1) // 2)",
        ("tests/test_quon_engine.py::test_operator_column_slot_holds_the_largest_degree",),
    ),
    (
        ALGEBRA,
        "        and _times_factors(vector, _chain(table, blocks, factors, False), width)"
        " == target\n",
        "",
        ("tests/test_formulas.py::test_verify_inverse_reads_both_products",),
    ),
    (
        ALGEBRA,
        "tuple((insertion_cycle(m, n, j, k), j - k) for k in range(1, j + 1))",
        "tuple((insertion_cycle(m, n, j, k), j - k + (k == 1)) for k in range(1, j + 1))",
        (GA + "test_sum_factors_multiply_to_cinv_sum",),
    ),
    (
        ALGEBRA,
        "    if _times_factors(unit, on_left, width) != packed_sum:",
        "    if False:",
        (GA + "test_check_a_decides_a_consistent_wrong_product",),
    ),
    (
        ALGEBRA,
        "    return stride(max(sup * prod(map(len, factors)), target_sup))",
        "    return stride(max(sup * prod(map(len, factors)), target_sup)) - 1",
        (GA + "test_chain_stride_is_tight",),
    ),
    (
        FORMULAS,
        "        while k < e:",
        "        while k < min(e, 1):",
        ("tests/test_formulas.py::test_divide_out_matches_plain_trial_division",),
    ),
    (
        FORMULAS,
        "weights = [(1 + (m - 2) * q) ** (n - k)",
        "weights = [(1 + (m - 1) * q) ** (n - k)",
        ("tests/test_formulas.py::test_color_part_is_the_product_of_the_position_inverses",),
    ),
    (
        FORMULAS,
        "    color_exponent = n * m ** (n - 1) * factorial(n)",
        "    color_exponent = m**n * factorial(n)",
        ("tests/test_formulas.py::test_det_closed_form_matches_bruteforce",),
    ),
    (
        LINALG,
        "return _kron_minors(da, db, c), sa * sb // corner_scale",
        "return _kron_minors(da, db, c), sa * sb",
        (T + "test_split_of_tensor_products_and_near_misses",),
    ),
    (
        FORMULAS,
        "        for d in range(1, t + 1):",
        "        for d in range(1, t):",
        (F + "test_denominator_factors_multiply_to_the_scalars",),
    ),
    (
        FORMULAS,
        " * (-q) ** k for k in range(n + 1)]",
        " * q ** k for k in range(n + 1)]",
        (F + "test_color_part_is_the_product_of_the_position_inverses",),
    ),
    (
        FORMULAS,
        " ** (n - k) * (-q) ** k",
        " ** (n - k - 1) * (-q) ** k",
        (F + "test_color_part_is_the_product_of_the_position_inverses",),
    ),
    (
        FORMULAS,
        "    numerator = reduce(ga_mul, _inverse_factors(m, n))",
        "    numerator = reduce(ga_mul, _inverse_factors(m, n)[::-1])",
        (F + "test_verify_inverse_two_sided",),
    ),
    (
        FORMULAS,
        "terms[power] = Polynomial.monomial((top + 2) * i)",
        "terms[power] = Polynomial.monomial((top + 1) * i)",
        (F + "test_inverse_factor_shapes",),
    ),
    (
        COLORED,
        "cols[t] = backward(cols[k])",
        "cols[t] = itemgetter(*forward)(cols[k])",
        (ORBITS,),
    ),
    (
        COLORED,
        "classes.setdefault(multiset.count(a), [])",
        "classes.setdefault(1, [])",
        (ORBITS,),
    ),
    (
        COLORED,
        "c % m + 1 if v == a else c for v, c in t.tokens",
        "c % m + 1 if i == t.values.index(a) else c for i, c in enumerate(t.colors)",
        (ORBITS,),
    ),
    (
        ALGEBRA,
        "                check_element(pi)\n",
        "",
        (NOT_ELEMENTS,),
    ),
    (
        COLORED,
        "    if sorted(pi.values) != list(range(1, pi.n + 1)):",
        "    if len(set(pi.values)) != pi.n:",
        (NOT_ELEMENTS,),
    ),
]


def copy_tree(dest):
    """``src/`` and ``tests/`` under ``dest``, without bytecode caches."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)


def run_tests(tree, tests):
    """pytest's exit code and output for ``tests`` on the copy at ``tree``."""
    path = os.environ.get("PYTHONPATH")
    src = str(tree / "src")
    env = dict(
        os.environ,
        PYTHONPATH=src + os.pathsep + path if path else src,
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main():
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "unmutated"
        copy_tree(tree)
        killers = sorted({test for *_, tests in MUTANTS for test in tests})
        code, out = run_tests(tree, killers)
        if code != 0:
            print(out)
            print(f"the killers do not all pass unmutated (pytest exit {code})")
            return 1
        for number, (path, old, new, tests) in enumerate(MUTANTS, 1):
            tree = Path(tmp) / f"mutant{number}"
            copy_tree(tree)
            text = (tree / path).read_text()
            if text.count(old) != 1:
                problems.append(f"mutant {number}: old text occurs {text.count(old)} times")
                continue
            (tree / path).write_text(text.replace(old, new))
            code, out = run_tests(tree, tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"mutant {number} in {path}: {old.strip()!r} -> {new.strip()!r}: {verdict}")
            if code != 1:
                problems.append(f"mutant {number}: {verdict}")
                if code != 0:
                    print(out)
            shutil.rmtree(tree)
    for problem in problems:
        print(problem)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
