"""Global system properties: augment, then look for accepting loops.

The property "always exactly one token" is negated to a Buchi automaton over
property-subset labels, the system is augmented so that accepting executions
of the product are exactly the violations, and emptiness is decided by loop
detection: on these finite-word slices, a nested fixpoint over sets of words
finds the reachable accepting words that lie on a cycle.  The duplicating
mutant yields a concrete lasso that replays through every layer of the
construction.
"""

from rmckit import (
    build_augmented_finite,
    check_emptiness_loop,
    cop_of,
    negated_gsp,
    replay_gsp_witness,
    slice_system,
    state_property,
)
from rmckit.fixtures import (
    cop_one_token,
    gsp_always_one_token_negated,
    ring_alphabet,
    token_ring,
    token_ring_dup_mutant,
)

NT = ring_alphabet()
one_token = state_property("one_token", cop_one_token())
neg = negated_gsp(gsp_always_one_token_negated(), 1)

print("cop(NTN) =", cop_of(NT.word("NTN"), [one_token]).members())
print("cop(NTT) =", cop_of(NT.word("NTT"), [one_token]).members())

print("\nwell-behaved ring:")
for n in (2, 3, 4):
    aug = build_augmented_finite(slice_system(token_ring(), n), neg, [one_token])
    verdict = check_emptiness_loop(aug.msys, budget=40)
    print(f"  slice {n}: {verdict.status}  {verdict.diagnostics}")

print("\ntoken-duplicating mutant:")
aug = build_augmented_finite(slice_system(token_ring_dup_mutant(), 3), neg, [one_token])
verdict = check_emptiness_loop(aug.msys, budget=40)
print("  slice 3:", verdict.status)
witness = verdict.witness
print("  lasso (loop starts at", witness.loop_start, "):")
for i, w in enumerate(witness.words):
    print(f"    {i}: {NT.word_name(aug.sigma_word(w))}")
ok, why = replay_gsp_witness(aug, witness)
print("  full construction replay:", ok, f"({why})")
