"""Regular systems: validation, slicing, reachability, parametric driver."""

import pytest

from rmckit import (
    Alphabet,
    HOLDS,
    UNKNOWN,
    VIOLATED,
    ModeMismatch,
    NotDeterministic,
    NotWeak,
    RegularSystem,
    Verdict,
    check_reachability_property,
    each_slice,
    enumerate_words,
    includes,
    locality_evidence,
    minimize,
    reachable,
    replay_lasso,
    replay_path,
    slice_system,
    universal,
    validate,
    verify_parametric,
)
from rmckit.fixtures import (
    bad_two_tokens,
    build_fa,
    lep_liveness,
    ring_alphabet,
    ring_initial,
    ring_relation,
    token_ring,
)
from rmckit.system import BuchiRegularSystem, LassoWitness
from rmckit.transducer import FINITE, OMEGA, identity

from oracles import naive_accepts, word_graph

NT = ring_alphabet()


def test_validate_token_ring():
    m = validate(token_ring())
    assert m.mode == FINITE


def test_validate_rejects_wrong_alphabet_relation():
    other = Alphabet.base(("X", "Y"))
    rel = identity(other)
    with pytest.raises(ModeMismatch):
        validate(RegularSystem(ring_initial(), rel))


def test_validate_rejects_nondeterministic_initial():
    nd = build_fa(NT, 2, [0, 1], [1], [(0, "T", 1)])
    with pytest.raises(NotDeterministic):
        validate(RegularSystem(nd, ring_relation()))


def test_validate_omega_needs_weak_initial():
    inf_t = build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 1), (1, "N", 0), (1, "T", 1)],
        omega=True,
    )
    with pytest.raises(NotWeak):
        validate(RegularSystem(inf_t, identity(NT, OMEGA)))


def test_slice_initial_and_relation():
    sl = slice_system(token_ring(), 3)
    assert enumerate_words(sl.initial, 3) == [NT.word("TNN")]
    sl1 = slice_system(token_ring(), 1)
    from rmckit.automata import is_empty

    assert is_empty(sl1.relation.inner)  # both branches need length >= 2


def test_slice_idempotent():
    sl = slice_system(token_ring(), 4)
    again = slice_system(sl, 4)
    assert sl.initial == again.initial
    assert sl.relation.inner == again.relation.inner


def test_slice_rejects_omega_and_bad_length():
    with pytest.raises(ModeMismatch):
        omega_sys = RegularSystem(
            build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True),
            identity(NT, OMEGA),
        )
        slice_system(omega_sys, 2)
    with pytest.raises(Exception):
        slice_system(token_ring(), 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reachable_matches_explicit_bfs(n):
    sl = slice_system(token_ring(), n)
    result = reachable(sl, budget=32)
    assert result.converged
    words = set(enumerate_words(result.automaton, n))
    # independent oracle: explicit BFS over all words of length n
    _, initial, edges = word_graph(sl, n)
    seen = set(initial)
    frontier = list(initial)
    while frontier:
        w = frontier.pop()
        for v in edges[w]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert words == seen
    assert len(words) == n  # one word per token position


def test_reachable_empty_initial():
    empty = build_fa(NT, 1, [0], [], [])
    m = RegularSystem(empty, ring_relation())
    result = reachable(m, budget=4)
    assert result.converged
    from rmckit.automata import is_empty

    assert is_empty(result.automaton)


@pytest.mark.parametrize("n", range(2, 9))
def test_mutual_exclusion_holds_per_slice(n):
    sl = slice_system(token_ring(), n)
    verdict = check_reachability_property(sl, bad_two_tokens(), budget=32)
    assert verdict.status == HOLDS


def test_reachability_violated_at_step_zero():
    # mutated system whose initial set is TN*TN*
    bad_init = build_fa(
        NT, 3, [0], [2],
        [(0, "T", 1), (1, "N", 1), (1, "T", 2), (2, "N", 2)],
    )
    m = RegularSystem(bad_init, ring_relation())
    verdict = check_reachability_property(m, bad_two_tokens(), budget=8)
    assert verdict.status == VIOLATED
    assert verdict.diagnostics["steps"] == 0
    w = verdict.witness
    assert w.loop_start is None and len(w.words) == 1
    assert naive_accepts(bad_init, w.words[0])
    assert naive_accepts(bad_two_tokens(), w.words[0])


def test_reachability_witness_replays_through_relation():
    # force a multi-step violation: start from TN..., bad = token at last position
    bad_last = build_fa(NT, 2, [0], [1], [(0, "N", 0), (0, "T", 1)])  # N*T
    sl = slice_system(token_ring(), 4)
    verdict = check_reachability_property(sl, bad_last, budget=16)
    assert verdict.status == VIOLATED
    words = verdict.witness.words
    assert naive_accepts(sl.initial, words[0])
    from rmckit.transducer import accepts_pair

    for a, b in zip(words, words[1:]):
        assert accepts_pair(sl.relation, a, b)
    assert naive_accepts(bad_last, words[-1])


def _ring_path_case():
    """Token ring, slice 4, bad = token at the last position: T N N N steps to
    N N N T in three moves."""
    bad_last = build_fa(NT, 2, [0], [1], [(0, "N", 0), (0, "T", 1)])  # N*T
    sl = slice_system(token_ring(), 4)
    verdict = check_reachability_property(sl, bad_last, budget=16)
    assert verdict.status == VIOLATED and len(verdict.witness.words) == 4
    return sl, bad_last, verdict.witness


def test_reachability_witness_passes_path_replay():
    sl, bad_last, witness = _ring_path_case()
    assert replay_path(sl, bad_last, witness) == (True, "ok")


@pytest.mark.parametrize(
    "tamper, reason",
    [
        (lambda w: LassoWitness(w.words[1:2] + w.words[1:], None), "first word is not initial"),
        (lambda w: LassoWitness(w.words[:1] + w.words[2:], None),
         "step 0 is not in the transition relation"),
        (lambda w: LassoWitness(w.words[:-1], None), "last word is not bad"),
        (lambda w: LassoWitness(w.words, 0), "a path witness has no loop"),
        (lambda w: LassoWitness((), None), "empty witness"),
    ],
    ids=["non_initial", "non_successor", "not_bad", "loop", "empty"],
)
def test_path_replay_rejects_tampered_witness(tamper, reason):
    sl, bad_last, witness = _ring_path_case()
    assert replay_path(sl, bad_last, tamper(witness)) == (False, reason)


def test_lasso_replay_still_rejects_a_path_witness():
    sl, bad_last, witness = _ring_path_case()
    msys = BuchiRegularSystem(sl, bad_last)
    assert replay_lasso(msys, witness) == (False, "missing or out-of-range loop start")


def test_reachability_bad_set_must_match_the_system_mode():
    with pytest.raises(ModeMismatch):  # a Buchi automaton on a finite system
        check_reachability_property(token_ring(), lep_liveness(), budget=4)
    with pytest.raises(ModeMismatch):  # a transducer is no set of words
        check_reachability_property(token_ring(), ring_relation(), budget=4)


def test_reachability_bad_set_mode_is_worded_like_the_loader():
    omega_sys = validate(RegularSystem(
        build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True), identity(NT, OMEGA)
    ))
    with pytest.raises(ModeMismatch, match="^bad set must be an omega-word automaton$"):
        check_reachability_property(omega_sys, bad_two_tokens(), budget=4)
    with pytest.raises(ModeMismatch, match="^bad set must be a finite-word automaton$"):
        check_reachability_property(token_ring(), lep_liveness(), budget=4)


def test_reachability_unknown_on_budget():
    verdict = check_reachability_property(token_ring(), bad_two_tokens(), budget=3)
    assert verdict.status == UNKNOWN


def test_locality_evidence():
    assert locality_evidence(token_ring()).locally_finite
    omega_sys = RegularSystem(
        build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True),
        identity(NT, OMEGA),
    )
    assert not locality_evidence(omega_sys).locally_finite


def test_sliced_reach_included_in_converging_unsliced_reach():
    # with a universal initial set the unsliced fixpoint converges in one step
    m = RegularSystem(minimize(universal(NT)), ring_relation())
    full = reachable(m, budget=4)
    assert full.converged
    sl_reach = reachable(slice_system(m, 3), budget=8)
    assert includes(sl_reach.automaton, full.automaton)


def test_verify_parametric_runs_the_check_once_on_the_cut_system():
    m = token_ring()
    calls = []

    def check(sys_, lengths):
        calls.append((sys_, lengths))
        return check_reachability_property(sys_, bad_two_tokens(), budget=32, lengths=lengths)

    results, overall = verify_parametric(m, check, lo=2, hi=5)
    assert len(calls) == 1
    cut, lengths = calls[0]
    assert lengths == range(2, 6)
    # the initial set is cut to the lengths of the range; the relation stays whole
    assert cut.relation is m.relation
    assert enumerate_words(cut.initial, 7) == [
        w for w in enumerate_words(m.initial, 7) if 2 <= len(w) <= 5
    ]
    assert list(results) == [2, 3, 4, 5]
    assert overall.status == HOLDS
    assert all(v.status == HOLDS for v in results.values())


def test_verify_parametric_conjoins_per_length_verdicts_in_slice_order():
    verdicts = {3: Verdict.holds(), 4: Verdict.unknown("x"), 5: Verdict.holds()}
    results, overall = verify_parametric(token_ring(), lambda m, lengths: verdicts, lo=3, hi=5)
    assert results is verdicts
    assert overall.status == UNKNOWN and overall.diagnostics["slices"] == [4]


def test_verify_parametric_unsliced_runs_the_check_once():
    m = token_ring()
    calls = []

    def check(sys_, lengths):
        calls.append((sys_, lengths))
        return check_reachability_property(sys_, bad_two_tokens(), budget=3, lengths=lengths)

    results, overall = verify_parametric(m, check, lo=None)
    assert len(calls) == 1 and calls[0][0] is m and calls[0][1] is None
    assert list(results) == [None]
    assert overall.status == UNKNOWN == results[None].status


def test_each_slice_runs_a_per_slice_check_on_each_slice():
    m = token_ring()
    calls = []

    def check(sl, n):
        calls.append((sl, n))
        return check_reachability_property(sl, bad_two_tokens(), budget=32)

    results, overall = verify_parametric(m, each_slice(check), lo=2, hi=4)
    assert [n for _, n in calls] == [2, 3, 4]
    # slicing the cut system gives the very values that slicing m gives
    assert all(sl == slice_system(m, n) for sl, n in calls)
    assert list(results) == [2, 3, 4] and overall.status == HOLDS
    _, unsliced = verify_parametric(m, each_slice(check), lo=None)
    assert calls[-1] == (m, None) and unsliced.status == UNKNOWN
