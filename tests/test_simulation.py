"""Symbolic simulation fixpoint vs the explicit oracle, and sim-based emptiness."""

import random

import pytest

from rmckit import (
    Alphabet,
    FiniteAutomaton,
    HOLDS,
    InputError,
    Transducer,
    UNKNOWN,
    VIOLATED,
    accepts_pair,
    brute_force_simulation,
    build_augmented_finite,
    check_emptiness_loop,
    check_emptiness_sim,
    enumerate_words,
    negated_gsp,
    reachable,
    relation_includes,
    replay_gsp_witness,
    sim_fixpoint,
    sim_init,
    sim_step,
    slice_system,
    state_property,
    validate_candidate,
)
from rmckit.fixtures import (
    cop_one_token,
    gsp_always_one_token_negated,
    ring_alphabet,
    token_ring,
    token_ring_dup_mutant,
)
from rmckit.gsp import cop_alphabet, cop_of
from rmckit.omega import OmegaAutomaton, UltimatelyPeriodicWord, accepts_up_word, omega_universal
from rmckit.system import BuchiRegularSystem, RegularSystem
from rmckit.transducer import FINITE, OMEGA, identity, pair_word

from oracles import random_dfa_complete, random_sliced_system, random_weak_dba

NT = ring_alphabet()


def ring_aug(n: int, system=None):
    cop = state_property("one_token", cop_one_token())
    neg = negated_gsp(gsp_always_one_token_negated(), 1)
    sl = slice_system(system or token_ring(), n)
    return build_augmented_finite(sl, neg, [cop]), cop


def toy_system(pairs, symbols=("x", "y")):
    base = Alphabet.base(symbols)
    pair = Alphabet.product(base, base)
    trans = frozenset((0, pair.index(p), 0) for p in pairs)
    t = Transducer(FiniteAutomaton(pair, 1, frozenset({0}), frozenset({0}), trans))
    init = FiniteAutomaton(
        base, 1, frozenset({0}), frozenset({0}),
        frozenset((0, s, 0) for s in range(base.size)),
    )
    return BuchiRegularSystem(RegularSystem(base, init, t, FINITE), init), base


def test_sim_init_membership():
    aug, cop = ring_aug(3)
    s0 = sim_init(aug.msys, [cop])
    # lift plain words into labelled augmented words via the initial automaton
    words = enumerate_words(aug.msys.system.initial, 3)
    by_sigma = {aug.sigma_word(w): w for w in words}
    w_tnn = by_sigma[NT.word("TNN")]
    assert accepts_pair(s0.relation, w_tnn, w_tnn)


def test_sim_init_cop_compatibility_and_length():
    msys, base = toy_system(["x/x"])
    cop = state_property("is_x", FiniteAutomaton(
        base, 2, frozenset({0}), frozenset({1}),
        frozenset({(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)}),
    ))
    s0 = sim_init(msys, [cop])
    wx, wy = base.word("x"), base.word("y")
    assert accepts_pair(s0.relation, wx, wx)
    assert not accepts_pair(s0.relation, wx, wy)  # cop sets differ
    # pairs of different length are unrepresentable over the pair alphabet
    with pytest.raises(InputError):
        accepts_pair(s0.relation, wx, base.word("xx"))


def test_sim_step_vacuous_when_relation_empty():
    msys, base = toy_system([])
    s0 = sim_init(msys, [])
    s1 = sim_step(s0, msys.system.relation)
    assert s1.relation == s0.relation


def test_sim_step_removes_unmatched_pair():
    msys, base = toy_system(["x/x"])  # x steps, y is stuck
    s0 = sim_init(msys, [])
    wx, wy = base.word("x"), base.word("y")
    assert accepts_pair(s0.relation, wx, wy)
    s1 = sim_step(s0, msys.system.relation)
    assert not accepts_pair(s1.relation, wx, wy)  # y cannot match x's move
    assert accepts_pair(s1.relation, wy, wx)  # vacuous for stuck y
    assert accepts_pair(s1.relation, wx, wx)
    s2 = sim_step(s1, msys.system.relation)
    assert s2.relation == s1.relation  # fixpoint reached


def test_sim_fixpoint_omega_mode():
    # omega words over {x, y}: x^omega steps to itself, every other word is stuck
    base = Alphabet.base(("x", "y"))
    pair = Alphabet.product(base, base)
    loop = frozenset({(0, pair.index("x/x"), 0)})
    t = Transducer(OmegaAutomaton(pair, 1, frozenset({0}), frozenset({0}), loop))
    universe = omega_universal(base)
    msys = BuchiRegularSystem(RegularSystem(base, universe, t, OMEGA), universe)
    s = sim_fixpoint(msys, [], budget=8)
    assert s.exact and s.iteration_index == 2
    x, y = base.index("x"), base.index("y")
    xs, ys = UltimatelyPeriodicWord((), (x,)), UltimatelyPeriodicWord((), (y,))
    x_then_ys = UltimatelyPeriodicWord((x,), (y,))

    def related(w1, w2):
        return accepts_up_word(s.relation.inner, pair_word(base, w1, w2))

    assert related(ys, xs)  # a stuck word is simulated by anything
    assert not related(xs, ys)
    assert not related(xs, x_then_ys)


def chain_system():
    return toy_system(["s0/s1", "s1/s2", "s2/s3"], symbols=("s0", "s1", "s2", "s3"))


def test_sim_fixpoint_budget():
    msys, _ = chain_system()
    assert not sim_fixpoint(msys, [], budget=1).exact
    full = sim_fixpoint(msys, [], budget=8)
    assert full.exact and full.iteration_index == 4


def test_sim_fixpoint_chain_matches_brute_force():
    # asymmetric: s0 simulates s1 (both move on), s1 does not simulate s0
    msys, base = chain_system()
    sim = sim_fixpoint(msys, [], budget=8)
    names = ("s0", "s1", "s2", "s3")
    got = {
        (i, j)
        for i in range(4)
        for j in range(4)
        if accepts_pair(sim.relation, base.word(names[i]), base.word(names[j]))
    }
    assert got == brute_force_simulation(4, [(0, 1), (1, 2), (2, 3)], ["s"] * 4)


def test_sim_fixpoint_identity_relation():
    msys, base = toy_system(["x/x", "y/y"])
    # make the relation the full identity
    msys = BuchiRegularSystem(
        RegularSystem(base, msys.system.initial, identity(base), FINITE),
        msys.acceptance,
    )
    s = sim_fixpoint(msys, [], budget=8)
    assert s.exact and s.iteration_index == 1
    assert s.relation == sim_init(msys, []).relation


def test_sim_fixpoint_exact_on_sliced_ring():
    aug, cop = ring_aug(2)
    s = sim_fixpoint(aug.msys, [cop], budget=30)
    assert s.exact


def test_validate_candidate():
    msys, _ = chain_system()
    exact = sim_fixpoint(msys, [], budget=8)
    assert validate_candidate(exact.relation, msys, []).validated
    base = msys.system.alphabet
    assert validate_candidate(identity(base), msys, []).validated
    s0 = sim_init(msys, [])
    assert not validate_candidate(s0.relation, msys, []).validated


def assert_equals_brute_force_on_reachable_words(aug, cops, sim, n):
    msys = aug.msys
    words = enumerate_words(reachable(msys.system, budget=32).automaton, n)
    idx = {w: i for i, w in enumerate(words)}
    edges = [
        (idx[a], idx[b])
        for a in words
        for b in words
        if accepts_pair(msys.system.relation, a, b)
    ]
    labels = [cop_of(aug.sigma_word(w), cops).mask for w in words]
    expected = brute_force_simulation(len(words), edges, labels)
    got = {
        (i, j)
        for i in range(len(words))
        for j in range(len(words))
        if accepts_pair(sim.relation, words[i], words[j])
    }
    assert got == expected


def test_sim_restricted_to_enumerated_states_equals_brute_force():
    for n in (2, 3):
        aug, cop = ring_aug(n)
        sim = sim_fixpoint(aug.msys, [cop], budget=30)
        assert sim.exact
        assert_equals_brute_force_on_reachable_words(aug, [cop], sim, n)


def test_sim_fixpoint_unconverged_reach_keeps_relation_unrestricted():
    # unsliced, the token is at a position <= k after k steps, so reach never
    # converges and is not T-closed; the relation must cover every pair
    cop = state_property("one_token", cop_one_token())
    neg = negated_gsp(gsp_always_one_token_negated(), 1)
    msys = build_augmented_finite(token_ring(), neg, [cop]).msys
    budget = 4
    assert not reachable(msys.system, budget).converged
    by_hand = sim_init(msys, [cop])
    while True:
        nxt = sim_step(by_hand, msys.system.relation)
        if nxt.relation == by_hand.relation:
            break
        by_hand = nxt
    sim = sim_fixpoint(msys, [cop], budget)
    assert sim.exact
    assert sim.relation == by_hand.relation


def test_sim_on_reachable_words_matches_brute_force_and_loop_on_random_systems():
    # GSP augmentations drawn as in the benchmark's random instances
    violated = 0
    for seed in range(30):
        rng = random.Random(seed)
        n = 2 + seed % 2
        system = random_sliced_system(rng, n)
        k = rng.randint(1, 2)
        cops = [
            state_property(f"c{i}", random_dfa_complete(rng, system.alphabet))
            for i in range(k)
        ]
        neg = negated_gsp(random_weak_dba(rng, cop_alphabet(k), max_states=3), k)
        aug = build_augmented_finite(system, neg, cops)
        msys = aug.msys
        sim = sim_fixpoint(msys, cops, budget=30)
        assert sim.exact, seed
        assert_equals_brute_force_on_reachable_words(aug, cops, sim, n)
        v_sim = check_emptiness_sim(msys, sim, budget=30)
        assert v_sim.status == check_emptiness_loop(msys, budget=30).status, seed
        if v_sim.status == VIOLATED:
            violated += 1
            ok, why = replay_gsp_witness(aug, v_sim.witness)
            assert ok, (seed, why)
    assert violated == 2


def test_sim_iterates_shrink_monotonically():
    aug, cop = ring_aug(2)
    s = sim_init(aug.msys, [cop])
    for _ in range(3):
        nxt = sim_step(s, aug.msys.system.relation)
        assert relation_includes(s.relation, nxt.relation)
        s = nxt


def test_fixpoint_on_reachable_words_passes_candidate_validation():
    # the fixpoint is a simulation on R x R only, yet it is judged on all
    # pairs; a candidate never proves holds, as it need not be the greatest
    for system, status in ((token_ring(), UNKNOWN), (token_ring_dup_mutant(), VIOLATED)):
        aug, cop = ring_aug(2, system)
        sim = sim_fixpoint(aug.msys, [cop], budget=30)
        candidate = validate_candidate(sim.relation, aug.msys, [cop])
        assert candidate.validated
        v_sim = check_emptiness_sim(aug.msys, sim, budget=32)
        v_candidate = check_emptiness_sim(aug.msys, candidate, budget=32)
        assert v_candidate.status == status
        if status == VIOLATED:
            assert v_sim.status == VIOLATED
            assert v_candidate.witness == v_sim.witness
        else:
            assert v_sim.status == HOLDS
            assert v_candidate.diagnostics["reason"] == "formula empty but result not conclusive"


def test_check_emptiness_sim_agrees_with_loop():
    for system, n in ((token_ring(), 2), (token_ring(), 3), (token_ring_dup_mutant(), 2)):
        aug, cop = ring_aug(n, system)
        sim = sim_fixpoint(aug.msys, [cop], budget=30)
        v_sim = check_emptiness_sim(aug.msys, sim, budget=32)
        v_loop = check_emptiness_loop(aug.msys, budget=32)
        assert v_sim.status == v_loop.status
        if v_sim.status == VIOLATED:
            ok, why = replay_gsp_witness(aug, v_sim.witness)
            assert ok, why


def test_check_emptiness_sim_ignores_unreachable_accepting_words():
    # a+ is accepting but unreachable from b+, though a steps to b and c simulates a
    base = Alphabet.base(("a", "b", "c"))
    pair = Alphabet.product(base, base)
    moves = frozenset((0, pair.index(p), 0) for p in ("a/b", "b/c", "c/c"))
    t = Transducer(FiniteAutomaton(pair, 1, frozenset({0}), frozenset({0}), moves))

    def plus(name):
        s = base.index(name)
        return FiniteAutomaton(
            base, 2, frozenset({0}), frozenset({1}), frozenset({(0, s, 1), (1, s, 1)})
        )

    msys = BuchiRegularSystem(RegularSystem(base, plus("b"), t, FINITE), plus("a"))
    sim = sim_fixpoint(msys, [], budget=8)
    assert check_emptiness_sim(msys, sim, budget=8).status == HOLDS
    assert check_emptiness_loop(msys, budget=8).status == HOLDS


def test_check_emptiness_sim_omega_empty_formula_is_unknown():
    # N^omega steps to T^omega, which has no successor: the loop engine proves
    # holds, but an omega execution need not repeat a configuration even up
    # to simulation, so an empty simulation formula proves nothing
    base = Alphabet.base(("N", "T"))
    pair = Alphabet.product(base, base)
    moves = frozenset(
        (src, pair.index(p), dst)
        for src, p, dst in ((0, "T/T", 0), (0, "N/T", 1), (1, "N/T", 1), (1, "T/T", 1))
    )
    t = Transducer(OmegaAutomaton(pair, 2, frozenset({0}), frozenset({1}), moves))
    n_omega = OmegaAutomaton(
        base, 1, frozenset({0}), frozenset({0}), frozenset({(0, base.index("N"), 0)})
    )
    msys = BuchiRegularSystem(RegularSystem(base, n_omega, t, OMEGA), omega_universal(base))
    sim = sim_fixpoint(msys, [], budget=8)
    assert sim.exact
    verdict = check_emptiness_sim(msys, sim, budget=8)
    assert verdict.status == UNKNOWN
    assert verdict.diagnostics["reason"] == (
        "formula empty, but omega executions need not repeat a configuration up to simulation"
    )
    assert verdict.diagnostics["converged"]
    assert check_emptiness_loop(msys, budget=8).status == HOLDS


def test_check_emptiness_sim_underapproximation_unknown():
    # validated strict under-approximation + empty formula: only Unknown
    aug, cop = ring_aug(2)
    ident = validate_candidate(identity(aug.msys.system.alphabet), aug.msys, [cop])
    assert ident.validated
    verdict = check_emptiness_sim(aug.msys, ident, budget=32)
    assert verdict.status == UNKNOWN


def test_check_emptiness_sim_rejects_inexact_iterate():
    msys, _ = chain_system()
    partial = sim_fixpoint(msys, [], budget=1)
    with pytest.raises(InputError):
        check_emptiness_sim(msys, partial, budget=8)


def test_brute_force_simulation_basics():
    # deterministic 3-state chain: simulation contains language-equal pairs
    rel = brute_force_simulation(3, [(0, 1), (1, 2)], ["a", "a", "a"])
    assert (2, 0) in rel and (2, 1) in rel  # stuck state simulated by all
    assert (0, 1) not in rel  # 1 dies one step earlier than 0
    assert all((q, q) in rel for q in range(3))
    empty = brute_force_simulation(2, [], ["a", "b"])
    assert empty == {(0, 0), (1, 1)}
    with pytest.raises(InputError):
        brute_force_simulation(1000, [], ["a"] * 1000)
