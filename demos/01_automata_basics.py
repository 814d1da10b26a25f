"""Finite-word automata: construction, Boolean algebra, canonical minimization.

States of a verified system are words over a small alphabet; this demo walks
through the basic toolkit on the token-ring alphabet {N, T}.
"""

from rmckit import (
    Alphabet,
    accepts,
    complement,
    determinize,
    enumerate_words,
    equivalent,
    intersect,
    minimize,
    serialize_aut,
    union,
)
from rmckit.fixtures import build_fa, ring_alphabet

NT = ring_alphabet()

# N*TN*: exactly one token somewhere
one_token = build_fa(NT, 2, [0], [1], [(0, "N", 0), (0, "T", 1), (1, "N", 1)])
print("one_token accepts NTN :", accepts(one_token, NT.word("NTN")))
print("one_token accepts NTT :", accepts(one_token, NT.word("NTT")))

# TN*: the first process holds the token
first_holds = build_fa(NT, 2, [0], [1], [(0, "T", 1), (1, "N", 1)])
both = intersect(one_token, first_holds)
print("\nwords of length 3 in the intersection:")
for w in enumerate_words(both, 3):
    print("  ", NT.word_name(w))

# determinization and canonical minimization
d = determinize(one_token)
print("\ndeterminized:", d.n_states, "states, complete =", d.is_complete)

# two different automata for the same language minimize to the same value,
# the trim minimal DFA (determinize(minimize(a)) is the complete one)
variant = union(one_token, one_token)
assert minimize(one_token) == minimize(variant)
print("minimize is canonical: byte-identical serializations")
print()
print(serialize_aut(minimize(one_token)))

# Boolean laws hold exactly
assert equivalent(complement(complement(one_token)), one_token)
print("complement is an involution on languages")
