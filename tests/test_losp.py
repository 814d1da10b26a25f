"""Local-oriented properties: reset construction, lep complements, flags."""

import random
from dataclasses import replace
from unittest import mock

import pytest

from rmckit import (
    Alphabet,
    FiniteAutomaton,
    HOLDS,
    InconsistentComplement,
    InputError,
    LassoWitness,
    MissingComplement,
    ModeMismatch,
    NotWeakDeterministic,
    Transducer,
    UNKNOWN,
    VIOLATED,
    Verdict,
    accepts_up_word,
    build_augmented_losp,
    check_losp,
    combine_verdicts,
    complement_lep,
    extend_with_flags,
    lep_alphabet,
    local_execution_property,
    losp_property,
    replay_losp_witness,
    sample_lassos,
    slice_system,
)
from rmckit import automata
from rmckit.automata import equivalent, minimize
from rmckit.fixtures import (
    build_fa,
    cop_one_token,
    lep_liveness,
    lep_liveness_negated,
    losp_all_live_negated,
    ring_alphabet,
    ring_initial,
    token_ring,
    token_ring_dup_mutant,
    token_ring_idle_mutant,
)
from rmckit.omega import UltimatelyPeriodicWord
from rmckit.system import RegularSystem, reachable
from rmckit.transducer import identity

from oracles import (
    closure_loop_formula,
    combination_value,
    losp_violation_oracle,
    project_components,
    random_complete_nba,
    random_combination,
    random_dfa_complete,
    random_unsliced_system,
    render_combination,
    reordered,
)

NT = ring_alphabet()


def liveness_lep():
    return local_execution_property("liveness", lep_liveness(), lep_liveness_negated())


def all_live():
    return losp_property(losp_all_live_negated(), 1)


def test_each_lep_adds_one_label_component():
    # Sigma x (Q_lep + Q_neg) x lepF x rho: the lep's two states and its
    # complement's three share one component, and no guessed mask is stored
    aug = build_augmented_losp(slice_system(token_ring(), 2), all_live(), [liveness_lep()])
    assert [len(c) for c in aug.alphabet.components] == [2, 5, 2, 2]
    assert aug.alphabet.size == 40
    assert aug.alphabet.components[1] == ("l0_0", "l0_1", "n0_0", "n0_1", "n0_2")


def test_augmented_initial_numbering_ignores_transition_set_order():
    # equal initial sets give equal augmented initial sets
    rng = random.Random(11)
    for make in (token_ring, token_ring_idle_mutant, token_ring_dup_mutant):
        for n in range(2, 5):
            sl = slice_system(make(), n)
            expected = build_augmented_losp(sl, all_live(), [liveness_lep()]).msys.system
            for _ in range(4):
                equal = replace(sl, initial=reordered(sl.initial, rng))
                got = build_augmented_losp(equal, all_live(), [liveness_lep()]).msys.system
                assert got.initial == expected.initial, (make.__name__, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_token_ring_liveness_holds(n):
    sl = slice_system(token_ring(), n)
    aug = build_augmented_losp(sl, all_live(), [liveness_lep()])
    assert check_losp(aug, budget=32).status == HOLDS


def test_check_losp_indexes_each_relation_state_once_per_track():
    # every join of a check reads the relation's own track index, so no
    # state's moves are regrouped by letter twice
    aug = build_augmented_losp(slice_system(token_ring(), 2), all_live(), [liveness_lep()])
    relation = aug.msys.system.relation
    builds: dict[tuple[int, int], int] = {}
    by_letter = Transducer._by_letter

    def counted(t, track, q):
        if t.inner is relation.inner and q not in t._tracks[track]:
            builds[track, q] = builds.get((track, q), 0) + 1
        return by_letter(t, track, q)

    with mock.patch.object(Transducer, "_by_letter", counted):
        assert check_losp(aug, budget=32).status == HOLDS
    assert {track for track, _ in builds} == {0, 1}
    assert max(builds.values()) == 1, builds


@pytest.mark.parametrize("n", [2, 3])
def test_idle_mutant_violates_liveness_with_replayable_lasso(n):
    from rmckit import UltimatelyPeriodicWord, accepts_up_word

    sl = slice_system(token_ring_idle_mutant(), n)
    aug = build_augmented_losp(sl, all_live(), [liveness_lep()])
    verdict = check_losp(aug, budget=32)
    assert verdict.status == VIOLATED
    ok, why = replay_losp_witness(aug, verdict.witness)
    assert ok, why
    # the loop fixes the token: some position's column violates the local
    # property, i.e. its projection is accepted by the negated automaton
    words = [aug.sigma_word(w) for w in verdict.witness.words]
    start = verdict.witness.loop_start

    def column(j):
        return UltimatelyPeriodicWord(
            tuple(w[j] for w in words[:start]), tuple(w[j] for w in words[start:])
        )

    starving = [j for j in range(n) if accepts_up_word(lep_liveness_negated(), column(j))]
    assert starving
    t_id = NT.index("T")
    loop = words[start:]
    assert all(all(w[j] != t_id for w in loop) for j in starving)


def test_sliced_check_losp_never_refines_a_partition():
    # every set and relation of a sliced check accepts a finite language, so
    # `minimize` partitions each by registration and never by refinement
    aug = build_augmented_losp(
        slice_system(token_ring_idle_mutant(), 3), all_live(), [liveness_lep()]
    )
    with mock.patch.object(automata, "_register", wraps=automata._register) as registered, \
            mock.patch.object(automata, "_refine", wraps=automata._refine) as refined:
        assert check_losp(aug, budget=32).status == VIOLATED
    assert registered.call_count > 0
    assert refined.call_count == 0


def test_losp_verdicts_match_explicit_generalized_buchi_oracle():
    lep = liveness_lep()
    lo = all_live()
    for system, n in (
        (token_ring(), 2),
        (token_ring(), 3),
        (token_ring_idle_mutant(), 2),
        (token_ring_idle_mutant(), 3),
    ):
        sl = slice_system(system, n)
        aug = build_augmented_losp(sl, lo, [lep])
        got = check_losp(aug, budget=32).status
        expected = losp_violation_oracle(sl, n, lo.negation_automaton, [lep])
        assert got == (VIOLATED if expected else HOLDS)
        assert closure_loop_formula(aug.msys, budget=32) == expected


def liveness_negated_two_initial():
    """`lep_liveness_negated` behind a non-accepting state that loops on every
    letter, both initial: the same language, so the complement check passes,
    but only runs from the second initial state accept."""
    return build_fa(
        NT, 4, [0, 1], [2],
        [
            (0, "N", 0), (0, "T", 0),
            (1, "N", 1), (1, "T", 1), (1, "N", 2),
            (2, "N", 2), (2, "T", 3),
            (3, "N", 3), (3, "T", 3),
        ],
        omega=True,
    )


@pytest.mark.parametrize("n", [2, 3])
def test_complement_run_starts_in_every_initial_state(n):
    lep = local_execution_property("liveness", lep_liveness(), liveness_negated_two_initial())
    sl = slice_system(token_ring_idle_mutant(), n)
    aug = build_augmented_losp(sl, all_live(), [lep])
    verdict = check_losp(aug, budget=32)
    assert losp_violation_oracle(sl, n, all_live().negation_automaton, [lep])
    assert verdict.status == VIOLATED
    assert replay_losp_witness(aug, verdict.witness) == (True, "ok")


def test_losp_verdicts_match_oracle_on_random_nondeterministic_leps():
    # each lep pair is two unrelated complete NBAs with one or two initial
    # states, built without the complement check: the oracle and the
    # construction both read only the run the guessed bit selects
    from rmckit.losp import LocalExecutionProperty

    statuses = []
    for seed in range(300):
        rng = random.Random(seed)
        k = rng.randint(1, 2)
        system = random_unsliced_system(rng, 2, 3)
        n = rng.randint(2, 3)
        sl = slice_system(system, n)
        leps = [
            LocalExecutionProperty(
                f"p{i}",
                random_complete_nba(rng, system.alphabet),
                random_complete_nba(rng, system.alphabet),
            )
            for i in range(k)
        ]
        neg = random_dfa_complete(rng, lep_alphabet(k))
        aug = build_augmented_losp(sl, losp_property(neg, k), leps)
        verdict = check_losp(aug, budget=64)
        expected = losp_violation_oracle(sl, n, neg, leps)
        assert verdict.status == (VIOLATED if expected else HOLDS), seed
        if expected:
            assert replay_losp_witness(aug, verdict.witness) == (True, "ok"), seed
        statuses.append(verdict.status)
    assert min(statuses.count(HOLDS), statuses.count(VIOLATED)) >= 0.3 * len(statuses)


def test_empty_lep_list_degenerates_to_system_emptiness():
    unit = lep_alphabet(0)
    neg_all = FiniteAutomaton(unit, 1, frozenset({0}), frozenset({0}), frozenset({(0, 0, 0)}))
    neg_none = FiniteAutomaton(unit, 1, frozenset({0}), frozenset(), frozenset({(0, 0, 0)}))
    sl = slice_system(token_ring(), 2)
    assert check_losp(build_augmented_losp(sl, losp_property(neg_all, 0), []), 16).status == VIOLATED
    assert check_losp(build_augmented_losp(sl, losp_property(neg_none, 0), []), 16).status == HOLDS
    pair = Alphabet.product(NT, NT)
    dead_rel = Transducer(FiniteAutomaton(pair, 1, frozenset({0}), frozenset(), frozenset()))
    dead = slice_system(RegularSystem(ring_initial(), dead_rel), 2)
    assert check_losp(build_augmented_losp(dead, losp_property(neg_all, 0), []), 16).status == HOLDS


def test_complement_lep_weak_flip():
    # eventually T is weak deterministic; its complement is always N
    ev_t = build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)],
        omega=True,
    )
    c = complement_lep(ev_t)
    assert accepts_up_word(c, UltimatelyPeriodicWord((), NT.word("N")))
    for w in sample_lassos(NT, 50, seed=3):
        assert accepts_up_word(c, w) != accepts_up_word(ev_t, w)
        assert accepts_up_word(complement_lep(c), w) == accepts_up_word(ev_t, w)


def test_complement_lep_rejects_non_weak_deterministic():
    with pytest.raises(NotWeakDeterministic):
        complement_lep(lep_liveness())  # deterministic but not weak
    # and the factory demands an explicit complement in that case
    with pytest.raises(MissingComplement):
        local_execution_property("liveness", lep_liveness())


def test_inconsistent_supplied_complement_detected():
    with pytest.raises(InconsistentComplement):
        local_execution_property("bad", lep_liveness(), lep_liveness())


def test_finite_word_lep_automata_are_a_mode_mismatch():
    finite = cop_one_token()
    for automaton, complement in (
        (finite, None),
        (finite, lep_liveness_negated()),
        (lep_liveness(), finite),
    ):
        with pytest.raises(ModeMismatch):
            local_execution_property("liveness", automaton, complement)


def test_extend_with_flags_alphabet():
    ct = Alphabet.base(("C", "T"))
    init = FiniteAutomaton(
        ct, 1, frozenset({0}), frozenset({0}), frozenset({(0, 0, 0), (0, 1, 0)})
    )
    m = RegularSystem(init, identity(ct))
    ext = extend_with_flags(m, ["a"])
    names = [ext.alphabet.name(s) for s in ext.alphabet.symbols()]
    assert names == ["C/a0", "C/a1", "T/a0", "T/a1"]
    assert extend_with_flags(m, []) is m


def test_extended_reach_projects_onto_original():
    ext = slice_system(extend_with_flags(token_ring(), ["a"]), 3)
    orig = slice_system(token_ring(), 3)
    r_ext = reachable(ext, budget=32)
    r_orig = reachable(orig, budget=32)
    assert r_ext.converged and r_orig.converged
    projected = minimize(project_components(r_ext.automaton, [1]))
    assert equivalent(projected, minimize(r_orig.automaton))


def test_augmented_alphabet_cap_enforced():
    from rmckit import AlphabetCapExceeded
    from rmckit.losp import LocalExecutionProperty
    from rmckit.omega import omega_universal

    # eight trivial properties, each run component over a one-state
    # automaton and its one-state complement, with the 2^8 progress masks
    # give 2 x 2^8 x 2^8 x 2 = 262144 letters, past the symbol cap
    trivial = LocalExecutionProperty(
        "t", omega_universal(NT), complement_lep(omega_universal(NT))
    )
    unit = lep_alphabet(8)
    neg = FiniteAutomaton(unit, 1, frozenset({0}), frozenset(), frozenset())
    with pytest.raises(AlphabetCapExceeded) as err:
        build_augmented_losp(
            slice_system(token_ring(), 2), losp_property(neg, 8), [trivial] * 8
        )
    assert "cap" in str(err.value)


def test_combine_verdicts_three_valued():
    h = Verdict.holds()
    v = Verdict(VIOLATED, None, {})
    u = Verdict.unknown("budget")
    assert combine_verdicts("a & b", {"a": h, "b": h}).status == HOLDS
    assert combine_verdicts("a & b", {"a": h, "b": u}).status == UNKNOWN
    assert combine_verdicts("a & b", {"a": h, "b": v}).status == VIOLATED
    assert combine_verdicts("a | b", {"a": v, "b": h}).status == HOLDS
    assert combine_verdicts("(a & b) | c", {"a": h, "b": u, "c": h}).status == HOLDS
    with pytest.raises(InputError):
        combine_verdicts("a & missing", {"a": h})
    with pytest.raises(InputError):
        combine_verdicts("!a", {"a": h})
    # the witness comes from a literal that decides the violation
    wz, wa, wb = (_witness(i) for i in range(3))
    got = combine_verdicts("b", {"z": Verdict.violated(wz), "b": Verdict.violated(wb)})
    assert (got.status, got.witness, got.diagnostics) == (VIOLATED, wb, {"literal": "b"})
    got = combine_verdicts(
        "(a | c) & b", {"a": Verdict.violated(wa), "c": h, "b": Verdict.violated(wb)}
    )
    assert (got.status, got.witness, got.diagnostics) == (VIOLATED, wb, {"literal": "b"})


def _witness(i: int) -> LassoWitness:
    return LassoWitness(((i,),), 0)


def test_combine_verdicts_or_of_violated_operands():
    v1, v2 = Verdict.violated(_witness(1)), Verdict.violated(_witness(2))
    got = combine_verdicts("a | b", {"a": v1, "b": v2})
    assert (got.status, got.witness, got.diagnostics) == (VIOLATED, v1.witness, {"literal": "a"})
    u = Verdict.unknown("budget")
    assert combine_verdicts("a | b", {"a": v1, "b": u}).status == UNKNOWN
    assert combine_verdicts("b | a", {"a": v1, "b": u}).status == UNKNOWN


def test_combine_verdicts_matches_tree_oracle():
    rng = random.Random(28)
    literals = ("a", "2a", "if", "x_1")
    seen = set()
    for draw in range(600):
        tree = random_combination(rng, literals, rng.randint(0, 4))
        expr = render_combination(tree, rng, extra_parens=draw % 2 == 1)
        verdicts = {}
        for i, name in enumerate(literals):
            kind = rng.choice((HOLDS, VIOLATED, UNKNOWN))
            verdicts[name] = {
                HOLDS: Verdict.holds(),
                VIOLATED: Verdict.violated(_witness(i)),
                UNKNOWN: Verdict.unknown("budget"),
            }[kind]
        status, literal = combination_value(tree, {n: v.status for n, v in verdicts.items()})
        if status == VIOLATED:
            expected = Verdict(VIOLATED, verdicts[literal].witness, {"literal": literal})
        elif status == HOLDS:
            expected = Verdict.holds()
        else:
            expected = Verdict.unknown("combination not decided by component verdicts")
        assert combine_verdicts(expr, verdicts) == expected, expr
        seen.add(status)
    assert seen == {HOLDS, VIOLATED, UNKNOWN}


@pytest.mark.parametrize(
    "expr", ["", "a b", "a &", "(a", "a)", "a && b", "a ^ b", "~a", "a.b", "f(a)", "a | missing"]
)
def test_malformed_combination_is_an_input_error(expr):
    h = Verdict.holds()
    with pytest.raises(InputError):
        combine_verdicts(expr, {"a": h, "b": h, "f": h})


def test_negation_in_a_combination_is_refused():
    with pytest.raises(InputError, match="negation is not supported"):
        combine_verdicts("a & !b", {"a": Verdict.holds(), "b": Verdict.holds()})


def test_lep_count_cap():
    from rmckit import AlphabetCapExceeded

    assert lep_alphabet(8).size == 256
    with pytest.raises(AlphabetCapExceeded):
        lep_alphabet(9)
