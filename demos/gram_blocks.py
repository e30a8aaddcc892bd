#!/usr/bin/env python3
"""Tour of Gram blocks: construction paths, exports, and the representation view.

The inner-product matrix of all creator words over a fixed multiset of modes
is computed three independent ways and compared exactly:

  1. operator path      - normal-ordering reduction, one trie walk per block,
  2. combinatorial path - q**cinv counting over colored permutations,
  3. representation     - right-action matrix of the q-weighted group sum.
"""

from quonalg import (
    build_gram,
    cinv_sum,
    gram_csv_text,
    rep_matrix,
    verify_representation,
)


def main():
    print("Two modes, one color: the smallest nontrivial block")
    block = build_gram(1, (1, 2))
    for row in block.entries:
        print("   ", "  ".join(f"{str(c):6}" for c in row))

    print("\nThree colors on modes {1,2}: an 18x18 block of q powers")
    block = build_gram(3, (1, 2), path="operator")
    print("  basis starts:", ", ".join(str(b) for b in block.basis[:4]), "...")
    print("  first row:   ", "  ".join(str(c) for c in block.entries[0]))
    print("  symmetric:   ", all(
        block.entries[i][j] == block.entries[j][i]
        for i in range(18) for j in range(18)
    ))

    print("\nRepeated modes {2,2}: the diagonal counts the stabilizer")
    block = build_gram(2, (2, 2))
    print(gram_csv_text(block).rstrip())

    print("\nThree-way agreement on m=2, modes {2,2,5}:")
    operator_block = build_gram(2, (2, 2, 5), path="operator")
    counting_block = build_gram(2, (2, 2, 5), path="combinatorial")
    representation = rep_matrix(cinv_sum(2, 3), (2, 2, 5))
    print("  operator == counting:      ", operator_block.entries == counting_block.entries)
    print("  operator == representation:", operator_block.entries == representation.entries)
    print("  verify_representation(2, (2,2,5)):", verify_representation(2, (2, 2, 5)))


if __name__ == "__main__":
    main()
