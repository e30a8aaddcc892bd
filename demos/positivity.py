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


if __name__ == "__main__":
    main()
