#!/usr/bin/env python3
"""Tour of the closed-form determinant and inverse of the q-weighted group sum.

The determinant of the regular block factors into a color part and cycle
parts; the inverse assembles from sparse per-position and per-cycle factors.
Both closed forms are checked against independent computations:
fraction-free (Bareiss) elimination for the determinant, and for the
inverse a two-sided product with the group sum, taken as its sparse factors
(insertion-cycle sums and one color factor per position) after checking
that they multiply to it.
"""

import time

from quonalg import (
    det_closed_form,
    det_factorization,
    inverse_closed_form,
    regular_block_det,
    verify_inverse,
)


def main():
    print("Determinant of the regular block, closed form vs elimination oracle:")
    for m, n in [(1, 2), (2, 1), (2, 2), (3, 2), (1, 4)]:
        fact = det_factorization(m, n)
        start = time.perf_counter()
        oracle = regular_block_det(m, n)
        elapsed = time.perf_counter() - start
        match = oracle == fact.expand()
        print(f"  (m={m}, n={n})  {fact.factored_str()}")
        print(f"      oracle match: {match}   (degree {fact.expand().degree}, {elapsed:.2f}s)")

    print("\nWhy the color exponent is n * m^(n-1) * n!:")
    print("  at (m=2, n=1) the block is the 2x2 circulant [[1,q],[q,1]],")
    print(f"  determinant {regular_block_det(2, 1)}; the flat exponent m^n n! = 2")
    print(f"  would give {((det_closed_form(2,1)))**2} instead - refuted by the oracle.")

    print("\nClosed-form inverse, verified two-sidedly through the sparse factors:")
    for m, n in [(1, 2), (2, 2), (3, 2), (2, 3), (1, 5), (2, 4)]:
        start = time.perf_counter()
        ok = verify_inverse(m, n)
        elapsed = time.perf_counter() - start
        terms = len(inverse_closed_form(m, n))
        print(f"  (m={m}, n={n})  verified={ok}  ({terms} terms, {elapsed:.2f}s)")

    print("\nThe two-position, one-color inverse, explicitly:")
    inv = inverse_closed_form(1, 2)
    for pi, coeff in sorted(inv.terms.items(), key=lambda t: str(t[0])):
        print(f"    {pi}  *  {coeff}")


if __name__ == "__main__":
    main()
