"""Global-system-property pipeline: augmentation and loop-detection emptiness."""

import random
from dataclasses import fields, replace

import pytest

from rmckit import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    Alphabet,
    CopSet,
    IncompleteCopAutomaton,
    ModeMismatch,
    NotWeakDeterministic,
    build_augmented_finite,
    build_augmented_omega,
    check_emptiness_loop,
    cop_alphabet,
    cop_of,
    enumerate_words,
    minimize,
    negate_gsp,
    negated_gsp,
    reachable,
    replay_gsp_witness,
    sim_fixpoint,
    slice_system,
    state_property,
    validate,
)
from rmckit.fixtures import (
    build_fa,
    cop_one_token,
    gsp_always_one_token_negated,
    ring_alphabet,
    token_ring,
    token_ring_dup_mutant,
    token_ring_idle_mutant,
)
from rmckit.omega import OmegaAutomaton, omega_universal
from rmckit.system import BuchiRegularSystem, RegularSystem, replay_lasso
from rmckit.transducer import FINITE, OMEGA, Transducer, identity

from oracles import (
    closure_loop_formula,
    gsp_violation_oracle,
    omega_lasso_oracle,
    random_dfa_complete,
    random_layered_weak_dba,
    random_sliced_system,
    random_weak_dba,
    reordered,
)

NT = ring_alphabet()


def one_token_prop():
    return state_property("one_token", cop_one_token())


def always_one_neg():
    return negated_gsp(gsp_always_one_token_negated(), 1)


def test_cop_of():
    cops = [one_token_prop()]
    assert cop_of(NT.word("NTN"), cops).members() == (0,)
    assert cop_of(NT.word("NTT"), cops).members() == ()
    assert cop_of(NT.word("NNN"), []).mask == 0


def test_negate_gsp_weak_flip():
    # gsp = always one token, as a weak DBA over the mask alphabet
    masks = cop_alphabet(1)
    gsp = build_fa(
        masks, 2, [0], [0],
        [(0, "m1", 0), (0, "m0", 1), (1, "m0", 1), (1, "m1", 1)],
        omega=True,
    )
    neg = negate_gsp(gsp, 1)
    # the flip accepts exactly the traces leaving m1 at some point
    from rmckit.omega import UltimatelyPeriodicWord, accepts_up_word

    assert accepts_up_word(neg.automaton, UltimatelyPeriodicWord((0,), (1,)))
    assert not accepts_up_word(neg.automaton, UltimatelyPeriodicWord((), (1,)))
    nondet = build_fa(masks, 2, [0, 1], [0], [(0, "m0", 0)], omega=True)
    with pytest.raises(NotWeakDeterministic):
        negate_gsp(nondet, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_token_ring_gsp_holds_per_slice(n):
    sl = slice_system(token_ring(), n)
    aug = build_augmented_finite(sl, always_one_neg(), [one_token_prop()])
    verdict = check_emptiness_loop(aug.msys, budget=40)
    assert verdict.status == HOLDS


def test_degenerate_property_tracks_all_executions():
    # A_neg accepting everything: augmented accepting executions are exactly
    # the executions of M, so the check is nonempty iff M has any execution
    masks = cop_alphabet(1)
    all_traces = build_fa(
        masks, 1, [0], [0], [(0, "m0", 0), (0, "m1", 0)], omega=True
    )
    sl = slice_system(token_ring(), 3)
    aug = build_augmented_finite(sl, negated_gsp(all_traces, 1), [one_token_prop()])
    verdict = check_emptiness_loop(aug.msys, budget=40)
    assert verdict.status == VIOLATED  # the ring always has infinite executions
    ok, why = replay_gsp_witness(aug, verdict.witness)
    assert ok, why


def test_empty_initial_gives_empty_augmented_initial():
    empty_init = build_fa(NT, 1, [0], [], [])
    m = RegularSystem(empty_init, token_ring().relation)
    aug = build_augmented_finite(m, always_one_neg(), [one_token_prop()])
    from rmckit.automata import is_empty

    assert is_empty(aug.msys.system.initial)
    assert check_emptiness_loop(aug.msys, budget=8).status == HOLDS


def test_dup_mutant_violated_with_replayable_lasso():
    sl = slice_system(token_ring_dup_mutant(), 3)
    aug = build_augmented_finite(sl, always_one_neg(), [one_token_prop()])
    verdict = check_emptiness_loop(aug.msys, budget=40)
    assert verdict.status == VIOLATED
    ok, why = replay_gsp_witness(aug, verdict.witness)
    assert ok, why
    # the projected lasso must reach a two-token word
    projected = [aug.sigma_word(w) for w in verdict.witness.words]
    assert any(sum(1 for s in w if s == NT.index("T")) >= 2 for w in projected)


def test_budget_exhaustion_reports_unknown():
    aug = build_augmented_finite(token_ring(), always_one_neg(), [one_token_prop()])
    verdict = check_emptiness_loop(aug.msys, budget=3)
    assert verdict.status == UNKNOWN


def test_unsliced_dup_mutant_violated_before_convergence():
    # a lasso found while the fixpoints are still short of convergence is
    # reported, not held back until they converge
    aug = build_augmented_finite(token_ring_dup_mutant(), always_one_neg(), [one_token_prop()])
    verdict = check_emptiness_loop(aug.msys, budget=3)
    assert verdict.status == VIOLATED
    assert verdict.diagnostics["converged"] is False
    ok, why = replay_gsp_witness(aug, verdict.witness)
    assert ok, why


def test_incomplete_cop_rejected():
    partial = build_fa(NT, 1, [0], [0], [(0, "N", 0)])  # missing T moves
    with pytest.raises(IncompleteCopAutomaton):
        build_augmented_finite(
            slice_system(token_ring(), 2),
            always_one_neg(),
            [type(one_token_prop())("p", partial)],
        )


def test_augmented_words_keep_label_shape():
    # requirement: every reachable word is bot-labelled except the last letter
    sl = slice_system(token_ring(), 3)
    aug = build_augmented_finite(sl, always_one_neg(), [one_token_prop()])
    reach = reachable(aug.msys.system, budget=32)
    for w in enumerate_words(reach.automaton, 3):
        labels = aug.labels(w)
        assert all(q is None and m is None for q, m in labels[:-1])
        assert labels[-1][0] is not None and labels[-1][1] is not None


def test_loop_check_agrees_with_explicit_oracle_federated():
    rng = random.Random(1234)
    agreements = 0
    for _ in range(12):
        n = rng.randint(2, 3)
        system = random_sliced_system(rng, n)
        k = rng.randint(1, 2)
        cops = [
            state_property(f"c{i}", random_dfa_complete(rng, system.alphabet))
            for i in range(k)
        ]
        neg = negated_gsp(random_weak_dba(rng, cop_alphabet(k), max_states=3), k)
        aug = build_augmented_finite(system, neg, cops)
        verdict = check_emptiness_loop(aug.msys, budget=40)
        expected = gsp_violation_oracle(system, n, neg.automaton, cops)
        assert verdict.status == (VIOLATED if expected else HOLDS)
        assert closure_loop_formula(aug.msys, budget=40) == expected
        if verdict.status == VIOLATED:
            ok, why = replay_gsp_witness(aug, verdict.witness)
            assert ok, why
        agreements += 1
    assert agreements == 12


def as_omega(a):
    return OmegaAutomaton(*(getattr(a, f.name) for f in fields(a)))


@pytest.mark.parametrize("make", [token_ring, token_ring_idle_mutant])
def test_finite_relation_is_minimal(make):
    # a relation node keeps no labelled-position flag, so no two nodes of
    # the explored relation are equivalent
    for n in range(2, 10):
        aug = build_augmented_finite(slice_system(make(), n), always_one_neg(), [one_token_prop()])
        rel = aug.msys.system.relation.inner
        assert rel.n_states == minimize(rel).n_states, n


def _finite_aug(cop):
    return build_augmented_finite(slice_system(token_ring(), 2), always_one_neg(), [cop])


def _omega_aug(cop):
    return build_augmented_omega(omega_identity_system(), always_one_neg(), [cop])


def _omega_cop():
    return state_property("all", omega_universal(NT))


@pytest.mark.parametrize(
    "call, mode",
    [
        (lambda: _finite_aug(_omega_cop()), FINITE),
        (lambda: _omega_aug(one_token_prop()), OMEGA),
        (lambda: sim_fixpoint(_finite_aug(one_token_prop()).msys, [_omega_cop()]), FINITE),
        (lambda: sim_fixpoint(_omega_aug(_omega_cop()).msys, [one_token_prop()]), OMEGA),
    ],
    ids=["finite_build", "omega_build", "finite_sim", "omega_sim"],
)
def test_cops_of_the_other_word_kind_are_refused(call, mode):
    with pytest.raises(ModeMismatch, match=f"^state property '.*' must read {mode} words$"):
        call()


def test_augmentation_numbering_ignores_transition_set_order():
    # equal systems give equal augmented relations, in both modes
    neg = always_one_neg()
    starts_t = build_fa(
        NT, 3, [0], [1],
        [(0, "T", 1), (0, "N", 2), (1, "T", 1), (1, "N", 1), (2, "T", 2), (2, "N", 2)],
        omega=True,
    )
    omega_cop = state_property("starts_t", starts_t)
    omega_init = build_fa(NT, 1, [0], [0], [(0, "N", 0), (0, "T", 0)], omega=True)
    rng = random.Random(7)
    orders = set()
    for make in (token_ring, token_ring_idle_mutant, token_ring_dup_mutant):
        for n in range(2, 6):
            sl = slice_system(make(), n)
            omega = RegularSystem(omega_init, Transducer(as_omega(sl.relation.inner)))
            cases = ((sl, build_augmented_finite, one_token_prop()),
                     (omega, build_augmented_omega, omega_cop))
            for system, build, cop in cases:
                expected = build(system, neg, [cop]).msys.system.relation
                for _ in range(6):
                    inner = reordered(system.relation.inner, rng)
                    orders.add(tuple(tuple(row) for row in inner.adjacency.values()))
                    got = build(replace(system, relation=Transducer(inner)), neg, [cop])
                    assert got.msys.system.relation == expected, (make.__name__, n, system.mode)
    assert len(orders) > 12  # the reordering does reach the rows


# ---------------------------------------------------------------------------
# omega mode


def omega_identity_system():
    init = build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True)
    return validate(RegularSystem(init, identity(NT, OMEGA)))


def test_omega_unfalsifiable_property_holds():
    cop_all = state_property("all", omega_universal(NT))
    aug = build_augmented_omega(omega_identity_system(), always_one_neg(), [cop_all])
    verdict = check_emptiness_loop(aug.msys, budget=12)
    assert verdict.status == HOLDS


def grow_t_system():
    # N^omega, and a step turns a nonempty set of N into T: N^w, TN^w, TTN^w, ...
    # is an infinite execution that never repeats a configuration
    init = build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True)
    rel = Transducer(
        build_fa(
            Alphabet.product(NT, NT), 2, [0], [1],
            [
                (0, "N/N", 0), (0, "T/T", 0), (0, "N/T", 1),
                (1, "N/N", 1), (1, "T/T", 1), (1, "N/T", 1),
            ],
            omega=True,
        )
    )
    return validate(RegularSystem(init, rel))


def test_omega_empty_loop_formula_is_not_holds():
    # every execution is accepting, yet none repeats a configuration, so no
    # lasso exists; the nested fixpoint F_i holds the words with at least i
    # letters N and does not converge, so the answer stays unknown
    msys = BuchiRegularSystem(grow_t_system(), omega_universal(NT))
    verdict = check_emptiness_loop(msys, budget=12)
    assert verdict.status == UNKNOWN
    assert verdict.diagnostics["reason"] == (
        "accepting cycle set nonempty but no lasso found in bound; omega executions "
        "need not repeat a configuration, and the nested fixpoint did not converge"
    )
    assert not verdict.diagnostics["converged"]
    assert verdict.diagnostics["nested_rounds"] == 12


def test_omega_stuck_execution_holds_without_repetition():
    # N^w steps to T^w, which has no successor: the only execution is finite,
    # no configuration repeats, and the converged nested fixpoint proves it
    init = build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True)
    rel = Transducer(
        build_fa(
            Alphabet.product(NT, NT), 2, [0], [1],
            [(0, "T/T", 0), (0, "N/T", 1), (1, "N/T", 1), (1, "T/T", 1)],
            omega=True,
        )
    )
    system = validate(RegularSystem(init, rel))
    verdict = check_emptiness_loop(BuchiRegularSystem(system, omega_universal(NT)), budget=12)
    assert verdict.status == HOLDS
    assert verdict.diagnostics == {"reach_steps": 2, "nested_rounds": 3, "converged": True}


def random_omega_system(seed: int) -> BuchiRegularSystem:
    """Omega system over {A, B} whose initial set, relation and acceptance
    all come from one weak DBA generator, picked by a coin."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        def gen(alphabet):
            return random_weak_dba(rng, alphabet, 3)
    else:
        def gen(alphabet):
            return random_layered_weak_dba(rng, alphabet, max_blocks=3, max_block=2)
    base = Alphabet.base(("A", "B"))
    init = gen(base)
    rel = Transducer(gen(Alphabet.product(base, base)))
    system = validate(RegularSystem(init, rel))
    return BuchiRegularSystem(system, gen(base))


def test_omega_loop_check_agrees_with_bounded_lasso_oracle():
    # holds never meets a lasso of small ultimately periodic words, and every
    # violation replays
    seen = set()
    for seed in range(40):
        msys = random_omega_system(seed)
        verdict = check_emptiness_loop(msys, budget=6)
        seen.add(verdict.status)
        if verdict.status == HOLDS:
            assert not omega_lasso_oracle(msys), seed
        elif verdict.status == VIOLATED:
            assert replay_lasso(msys, verdict.witness) == (True, "ok"), seed
    assert {HOLDS, VIOLATED} <= seen


def test_omega_nondeterministic_cop_rejected():
    from rmckit.gsp import StateProperty

    nd = build_fa(NT, 2, [0, 1], [1], [(0, "T", 1)], omega=True)
    with pytest.raises(IncompleteCopAutomaton):
        build_augmented_omega(omega_identity_system(), always_one_neg(), [StateProperty("nd", nd)])


def test_omega_violation_found_by_loop_check():
    # cop = "first letter is T"; initial word N^w violates always-cop
    cop_t = state_property(
        "starts_t",
        build_fa(
            NT, 3, [0], [1],
            [
                (0, "T", 1), (0, "N", 2), (1, "T", 1),
                (1, "N", 1), (2, "T", 2), (2, "N", 2),
            ],
            omega=True,
        ),
    )
    aug = build_augmented_omega(omega_identity_system(), always_one_neg(), [cop_t])
    verdict = check_emptiness_loop(aug.msys, budget=12)
    assert verdict.status == VIOLATED
    ok, why = replay_gsp_witness(aug, verdict.witness)
    assert ok, why


def test_copset_helpers():
    c = CopSet(0b101, 3)
    assert c.members() == (0, 2)


def test_cop_count_cap():
    from rmckit import AlphabetCapExceeded

    with pytest.raises(AlphabetCapExceeded):
        cop_alphabet(9)
