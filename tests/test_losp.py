"""Local-oriented properties: reset construction, lep complements, flags."""

import pytest

from rmckit import (
    Alphabet,
    FiniteAutomaton,
    HOLDS,
    InconsistentComplement,
    InputError,
    MissingComplement,
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
from rmckit.automata import equivalent, minimize, project_components
from rmckit.fixtures import (
    build_fa,
    lep_liveness,
    lep_liveness_negated,
    losp_all_live_negated,
    ring_alphabet,
    ring_initial,
    token_ring,
    token_ring_idle_mutant,
)
from rmckit.omega import UltimatelyPeriodicWord
from rmckit.system import RegularSystem, reachable
from rmckit.transducer import FINITE, identity

from oracles import closure_loop_formula, losp_violation_oracle

NT = ring_alphabet()


def liveness_lep():
    return local_execution_property("liveness", lep_liveness(), lep_liveness_negated())


def all_live():
    return losp_property(losp_all_live_negated(), 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_token_ring_liveness_holds(n):
    sl = slice_system(token_ring(), n)
    aug = build_augmented_losp(sl, all_live(), [liveness_lep()])
    assert check_losp(aug, budget=32).status == HOLDS


@pytest.mark.parametrize("n", [2, 3])
def test_idle_mutant_violates_liveness_with_replayable_lasso(n):
    from rmckit import LassoWitness, accepts_up_word, local_projection

    sl = slice_system(token_ring_idle_mutant(), n)
    aug = build_augmented_losp(sl, all_live(), [liveness_lep()])
    verdict = check_losp(aug, budget=32)
    assert verdict.status == VIOLATED
    ok, why = replay_losp_witness(aug, verdict.witness)
    assert ok, why
    # the loop fixes the token: some position's column violates the local
    # property, i.e. its projection is accepted by the negated automaton
    projected = LassoWitness(
        tuple(aug.sigma_word(w) for w in verdict.witness.words),
        verdict.witness.loop_start,
    )
    starving = [
        j
        for j in range(n)
        if accepts_up_word(lep_liveness_negated(), local_projection(projected, j).word)
    ]
    assert starving
    t_id = NT.index("T")
    loop = projected.words[projected.loop_start:]
    assert all(all(w[j] != t_id for w in loop) for j in starving)


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


def test_empty_lep_list_degenerates_to_system_emptiness():
    unit = lep_alphabet(0)
    neg_all = FiniteAutomaton(unit, 1, frozenset({0}), frozenset({0}), frozenset({(0, 0, 0)}))
    neg_none = FiniteAutomaton(unit, 1, frozenset({0}), frozenset(), frozenset({(0, 0, 0)}))
    sl = slice_system(token_ring(), 2)
    assert check_losp(build_augmented_losp(sl, losp_property(neg_all, 0), []), 16).status == VIOLATED
    assert check_losp(build_augmented_losp(sl, losp_property(neg_none, 0), []), 16).status == HOLDS
    pair = Alphabet.product(NT, NT)
    dead_rel = Transducer(FiniteAutomaton(pair, 1, frozenset({0}), frozenset(), frozenset()))
    dead = slice_system(RegularSystem(NT, ring_initial(), dead_rel, FINITE), 2)
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


def test_extend_with_flags_alphabet():
    ct = Alphabet.base(("C", "T"))
    init = FiniteAutomaton(
        ct, 1, frozenset({0}), frozenset({0}), frozenset({(0, 0, 0), (0, 1, 0)})
    )
    m = RegularSystem(ct, init, identity(ct), FINITE)
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

    # eight trivial properties blow 2^LEP x 2^LEP past the symbol cap
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
    from rmckit import LassoWitness

    wz, wa, wb = (LassoWitness(((i,),), 0) for i in range(3))
    got = combine_verdicts("b", {"z": Verdict.violated(wz), "b": Verdict.violated(wb)})
    assert (got.status, got.witness, got.diagnostics) == (VIOLATED, wb, {"literal": "b"})
    got = combine_verdicts(
        "(a | c) & b", {"a": Verdict.violated(wa), "c": h, "b": Verdict.violated(wb)}
    )
    assert (got.status, got.witness, got.diagnostics) == (VIOLATED, wb, {"literal": "b"})
