#!/usr/bin/env python3
"""Tour of operator words and vacuum expectation values.

Creation/annihilation operators carry a mode (any positive integer) and a
color in 1..m, with color m neutral.  Words are written exactly as they
appear in the bracket: the last pair of a bra word is the innermost
annihilator and acts on the ket first.
"""

from quonalg import (
    ColoredArrangement,
    apply_annihilator,
    cosym_expectation,
    creator_state,
    vacuum_expectation,
)


def show(bra, ket, m):
    value = vacuum_expectation(bra, ket, m)
    print(f"  m={m}  bra={bra}  ket={ket}")
    print(f"    <0| ... |0> = {value}")
    return value


def main():
    print("The three-particle example with four colors:")
    value = show(((2, 4), (5, 1), (2, 4)), ((5, 2), (2, 3), (2, 1)), 4)
    assert str(value) == "q^4 + q^5"

    print("\nThe same value one annihilator at a time, innermost first:")
    state = creator_state(4, ((5, 2), (2, 3), (2, 1)))
    for mode, color in reversed(((2, 4), (5, 1), (2, 4))):
        state = apply_annihilator(mode, color, state)
        terms = ", ".join(f"({c}) {list(w)}" for w, c in state.terms.items())
        print(f"    a({mode},{color}) -> {terms}")
    assert state.coeff(()) == value

    print("\nMismatched mode multisets always vanish:")
    show(((1, 1),), ((2, 1),), 2)
    show(((1, 1), (3, 2)), ((1, 2), (2, 1)), 2)

    print("\nA repeated mode picks up a q-counting factor:")
    show(((1, 1), (1, 1)), ((1, 1), (1, 1)), 1)

    print("\nThe same value by pure colored-permutation counting:")
    bra_arrangement = ColoredArrangement(4, (2, 5, 2), (4, 1, 4))
    ket_arrangement = ColoredArrangement(4, (5, 2, 2), (2, 3, 1))
    print(f"    counting sum = {cosym_expectation(bra_arrangement, ket_arrangement)}")
    print("  (two colored permutations carry the ket word to the bra word,")
    print("   with colored-inversion statistics 4 and 5)")


if __name__ == "__main__":
    main()
