"""Local-oriented properties: one Buchi condition per process, all at once.

"Every process that is idle eventually gets the token" constrains each
position's column of the execution separately.  The construction guesses
which properties each position satisfies and runs there, per property, its
automaton or its complement, whichever the guess selects: one run label per
property, whose half (automaton or complement) is the guess.  It accumulates
the runs' accepting visits and lets all positions reset simultaneously once
everyone has delivered - a generalized Buchi condition realized with one
extra label.
"""

from rmckit import (
    Verdict,
    build_augmented_losp,
    check_losp,
    combine_verdicts,
    extend_with_flags,
    local_execution_property,
    losp_property,
    replay_losp_witness,
    slice_system,
)
from rmckit.fixtures import (
    lep_liveness,
    lep_liveness_negated,
    losp_all_live_negated,
    ring_alphabet,
    token_ring,
    token_ring_idle_mutant,
)

NT = ring_alphabet()
liveness = local_execution_property("liveness", lep_liveness(), lep_liveness_negated())
all_live = losp_property(losp_all_live_negated(), 1)

print("token ring, every position lives:")
for n in (2, 3):
    aug = build_augmented_losp(slice_system(token_ring(), n), all_live, [liveness])
    print(f"  slice {n}: {check_losp(aug, budget=32).status}")

print("\nidle mutant (the holder may keep the token forever):")
aug = build_augmented_losp(slice_system(token_ring_idle_mutant(), 2), all_live, [liveness])
verdict = check_losp(aug, budget=32)
print("  slice 2:", verdict.status)
w = verdict.witness
print("  lasso (loop starts at", w.loop_start, "):")
for i, word in enumerate(w.words):
    print(f"    {i}: {NT.word_name(aug.sigma_word(word))}")
ok, why = replay_losp_witness(aug, w)
print("  replay (labels stable, runs genuine, resets disciplined):", ok)

# free Boolean flags support the multiple-alternation rewriting recipe:
# rewrite a property over the extended alphabet, then combine the literals
extended = extend_with_flags(token_ring(), ["a"])
print("\nflag-extended alphabet:",
      [extended.alphabet.name(s) for s in extended.alphabet.symbols()])

# Boolean combination over named checks: the idle mutant keeps mutual
# exclusion (it never duplicates the token) but breaks liveness
from rmckit import build_augmented_finite, check_emptiness_loop, negated_gsp, state_property
from rmckit.fixtures import cop_one_token, gsp_always_one_token_negated

one_token = state_property("one_token", cop_one_token())
neg = negated_gsp(gsp_always_one_token_negated(), 1)
gsp_aug = build_augmented_finite(
    slice_system(token_ring_idle_mutant(), 2), neg, [one_token]
)
verdicts = {
    "safety": check_emptiness_loop(gsp_aug.msys, budget=32),
    "liveness": verdict,  # the losp verdict computed above
}
print("safety =", verdicts["safety"].status, " liveness =", verdicts["liveness"].status)
print("safety & liveness =", combine_verdicts("safety & liveness", verdicts).status)
print("safety | liveness =", combine_verdicts("safety | liveness", verdicts).status)
