#!/usr/bin/env python3
"""Tour of exact positive-definiteness certificates.

The regular blocks are positive definite for q strictly inside
(-1, 1) when m = 1 and (1/(1-m), 1) when m > 1, and become singular exactly
at the endpoints.  Certificates are exact: leading principal minors over the
rationals (Sylvester), no floating point anywhere.
"""

from fractions import Fraction

from quonalg import (
    certify,
    det_closed_form,
    interval_of_definiteness,
    scan,
)


def main():
    print("Exact certificates for m=3, n=2 (18x18) on its interval:")
    lo, hi = interval_of_definiteness(3)
    for report in scan(3, 2, lo, hi, 7):
        print(f"  q = {str(report.q0):>4}   {report.verdict:<17}  smallest minor = {report.smallest_minor}")

    print("\nOutside the interval the block loses definiteness (m=2, n=1):")
    for report in scan(2, 1, -2, 2, 9):
        print(f"  q = {str(report.q0):>4}   {report.verdict}")

    print("\nOne certificate in full (m=1, n=2 at q=1/2):")
    report = certify(1, 2, Fraction(1, 2))
    print(f"  minors: {report.minors}  ->  {report.verdict}")

    q0 = Fraction(-54321, 2**17 - 1)
    print(f"\nm=2, n=4 (384x384) at the 17-bit point q = {q0}:")
    report = certify(2, 4, q0)
    det = det_closed_form(2, 4).evaluate(q0)
    print(f"  {report.verdict}; determinant has {det.numerator.bit_length()}-bit numerator")
    print(f"  last minor equals det_closed_form(2, 4) at q: {report.minors[-1] == det}")
    if report.verdict != "positive_definite" or report.minors[-1] != det:
        raise SystemExit("certificate disagrees with the closed-form determinant")


if __name__ == "__main__":
    main()
