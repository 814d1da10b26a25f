"""Omega-word algebra: classification, weak-DBA operations, emptiness."""

import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest

from rmckit import (
    ModeMismatch,
    NonWeakResult,
    NotWeak,
    NotWeakDeterministic,
    InputError,
    UltimatelyPeriodicWord,
    accepts_up_word,
    buchi_is_empty,
    classify,
    complement_weak_dba,
    determinize_weak,
    minimize_weak_dba,
    negate_gsp,
    omega_intersect,
    sample_lassos,
    union,
)
from rmckit import omega
from rmckit.alphabet import Alphabet
from rmckit.automata import _paired_moves, _reflag, _sync_symbols
from rmckit.fixtures import build_fa, ring_alphabet
from rmckit.gsp import cop_alphabet
from rmckit.omega import (
    OmegaAutomaton,
    _canon,
    _difference,
    _includes,
    _product,
    _product_omega,
    canonical_renumber,
    omega_is_empty,
    omega_universal,
    to_weak_dba,
)
from rmckit.transducer import accepts_pair, identity, pair_word

from oracles import (
    inherently_weak_oracle,
    lasso_accepts_deterministic,
    lasso_search,
    max_parity_colour,
    project_components,
    random_dense_nfa,
    random_layered_weak_dba,
    random_nfa,
    random_weak_dba,
    weak_dba_difference,
)

NT = ring_alphabet()


def inf_many_t():
    return build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 1), (1, "N", 0), (1, "T", 1)],
        omega=True,
    )


def eventually_t():
    return build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)],
        omega=True,
    )


def eventually_t_nondet():
    return build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)],
        omega=True,
    )


def finitely_many_t():
    # weak NBA guessing the last T; the language has no deterministic form
    return build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 0), (0, "N", 1), (1, "N", 1)],
        omega=True,
    )


def never(alphabet):
    return OmegaAutomaton(alphabet, 1, frozenset({0}), frozenset(), frozenset())


def equal(a, b):
    """Omega-language equality: `omega._includes` both ways."""
    return _includes(a, b) and _includes(b, a)


def lasso(prefix: str, period: str) -> UltimatelyPeriodicWord:
    return UltimatelyPeriodicWord(NT.word(prefix), NT.word(period))


def test_classify_homogeneous_accepting_scc():
    a = build_fa(NT, 1, [0], [0], [(0, "N", 0), (0, "T", 0)], omega=True)
    assert classify(a) == {"weak": True, "inherently_weak": True, "deterministic": True}


def test_classify_mixed_scc_not_inherently_weak():
    # one SCC holding an accepting cycle and a rejecting self-loop
    flags = classify(inf_many_t())
    assert not flags["weak"] and not flags["inherently_weak"] and flags["deterministic"]


def test_is_inherently_weak_equals_the_explicit_cycle_searches():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for alphabet in (NT, Alphabet.base(("a", "b", "c"))):
        for _ in range(1500):
            a = random_nfa(rng, alphabet, max_states=7)
            a = OmegaAutomaton(alphabet, a.n_states, a.initial, a.accepting, a.transitions)
            expected = inherently_weak_oracle(a)
            assert a.is_inherently_weak == expected, a
            outcomes[expected] += 1
    assert min(outcomes.values()) >= 0.1 * sum(outcomes.values()), outcomes


def two_state_component_chain(n_states):
    # states 2i and 2i+1 swap on N and form one component; 2i+1 steps to
    # 2i+2 on T; the even states accept, so every component has an
    # accepting cycle and none a cycle of rejecting states
    pairs = [(q, "N", q ^ 1) for q in range(n_states)]
    pairs += [(q, "T", q + 1) for q in range(1, n_states - 1, 2)]
    return build_fa(NT, n_states, [0], range(0, n_states, 2), pairs, omega=True)


def test_is_inherently_weak_makes_a_bounded_number_of_scc_passes():
    a = two_state_component_chain(4000)
    with mock.patch.object(
        omega, "strongly_connected_components", wraps=omega.strongly_connected_components
    ) as sccs:
        assert a.is_inherently_weak
    assert sccs.call_count <= 2


def test_classify_acyclic_plus_sinks_weak():
    a = build_fa(
        NT, 3, [0], [1],
        [(0, "N", 1), (0, "T", 2), (1, "N", 1), (1, "T", 1), (2, "N", 2), (2, "T", 2)],
        omega=True,
    )
    assert classify(a)["weak"]


def test_accepts_up_word():
    a = inf_many_t()
    assert accepts_up_word(a, lasso("N", "T"))
    assert not accepts_up_word(a, lasso("T", "N"))
    with pytest.raises(InputError):
        accepts_up_word(a, UltimatelyPeriodicWord((), (9,)))


def test_complement_weak_dba_involution_and_language():
    a = eventually_t()
    c = complement_weak_dba(a)  # always N
    assert accepts_up_word(c, lasso("", "N"))
    assert not accepts_up_word(c, lasso("", "NT"))
    for w in sample_lassos(NT, 50, seed=5):
        assert accepts_up_word(c, w) == (not accepts_up_word(a, w))
        assert accepts_up_word(complement_weak_dba(c), w) == accepts_up_word(a, w)


def test_complement_weak_dba_rejects_nondeterministic():
    with pytest.raises(NotWeakDeterministic):
        complement_weak_dba(eventually_t_nondet())


def test_determinize_weak_idempotent_language():
    a = eventually_t()
    d = determinize_weak(a)
    assert d.is_deterministic and d.is_weak and d.is_complete
    for w in sample_lassos(NT, 50, seed=6):
        assert accepts_up_word(d, w) == accepts_up_word(a, w)


def test_determinize_weak_breakpoint_vs_lasso_oracle():
    a = eventually_t_nondet()
    d = determinize_weak(a)
    assert d.is_deterministic and d.is_weak
    for w in sample_lassos(NT, 50, seed=7):
        assert lasso_accepts_deterministic(d, w) == accepts_up_word(a, w)


def test_determinize_weak_non_weak_result():
    # "finitely many T" admits no deterministic Buchi automaton at all, so
    # the determinization cannot stay (inherently) weak
    with pytest.raises(NonWeakResult):
        determinize_weak(finitely_many_t())


def test_minimize_weak_dba_canonical():
    v1 = eventually_t()
    v2 = build_fa(
        NT, 4, [0], [2, 3],
        [
            (0, "N", 1), (1, "N", 0), (0, "T", 2), (1, "T", 3),
            (2, "N", 3), (3, "N", 2), (2, "T", 2), (3, "T", 3),
        ],
        omega=True,
    )
    m1, m2 = minimize_weak_dba(v1), minimize_weak_dba(v2)
    assert m1 == m2
    assert classify(m1)["weak"]


def test_minimize_weak_dba_fixpoint_and_empty():
    m = minimize_weak_dba(eventually_t())
    assert minimize_weak_dba(m) == m
    empty = build_fa(NT, 2, [0], [], [(0, "N", 1), (1, "N", 0)], omega=True)
    m0 = minimize_weak_dba(empty)
    assert m0.n_states == 1 and not m0.accepting


def test_omega_intersection_two_buchi():
    inf_n = build_fa(
        NT, 2, [0], [1],
        [(0, "T", 0), (0, "N", 1), (1, "T", 0), (1, "N", 1)],
        omega=True,
    )
    both = omega_intersect(inf_many_t(), inf_n)
    assert accepts_up_word(both, lasso("", "TN"))
    assert not accepts_up_word(both, lasso("T", "N"))
    assert not accepts_up_word(both, lasso("N", "T"))


def test_omega_union_identity_on_lassos():
    a = inf_many_t()
    u = union(a, never(NT))
    assert isinstance(u, OmegaAutomaton)
    for w in sample_lassos(NT, 40, seed=10):
        assert accepts_up_word(u, w) == accepts_up_word(a, w)


def test_omega_project_product_recovers():
    # a product over the pair alphabet, projected back onto its first track:
    # the two-copy Buchi product of a non-weak automaton, and the weak DBA
    # that `_product` makes of a weak one
    u = omega_universal(NT)
    pair = Alphabet.product(NT, NT)
    pairs = _sync_symbols(NT.size)
    a = inf_many_t()
    backs = [(a, project_components(_product_omega(a, u, pair, _paired_moves(a, u, pairs)), [1]))]
    for b in (eventually_t(), eventually_t_nondet()):
        prod = _product(b, u, pair, _paired_moves(b, u, pairs))
        assert prod.is_deterministic and prod.is_weak
        backs.append((b, project_components(prod, [1])))
    for w in sample_lassos(NT, 40, seed=9):
        for x, back in backs:
            assert isinstance(back, OmegaAutomaton)
            assert accepts_up_word(back, w) == accepts_up_word(x, w)


def test_omega_complement_restriction():
    with pytest.raises(NotWeakDeterministic):
        complement_weak_dba(inf_many_t())
    c = complement_weak_dba(eventually_t())
    assert accepts_up_word(c, lasso("", "N"))
    assert buchi_is_empty(_difference(eventually_t(), eventually_t()))[0]
    assert not buchi_is_empty(_difference(omega_universal(NT), eventually_t()))[0]


def test_omega_difference_dispatch_on_layered_draws():
    # in omega mode `_difference` is the intersection with the complement;
    # the explicit product of the two weak DBAs and lasso membership are the
    # independent checks
    rng = random.Random(19)
    nonempty = 0
    for _ in range(40):
        a, b = random_layered_weak_dba(rng, NT, 4, 2), random_layered_weak_dba(rng, NT, 4, 2)
        diff = _difference(a, b)
        assert isinstance(diff, OmegaAutomaton)
        assert _canon(diff) == _canon(weak_dba_difference(a, b))
        for w in sample_lassos(NT, 20, seed=rng.randrange(10**6)):
            assert accepts_up_word(diff, w) == (
                lasso_accepts_deterministic(a, w) and not lasso_accepts_deterministic(b, w)
            )
        nonempty += not buchi_is_empty(diff)[0]
    assert nonempty >= 0.3 * 40, nonempty


def test_buchi_is_empty_cases():
    unreachable = build_fa(
        NT, 2, [0], [1], [(0, "N", 0), (0, "T", 0), (1, "N", 1)], omega=True
    )
    assert buchi_is_empty(unreachable)[0]
    empty, w = buchi_is_empty(inf_many_t())
    assert not empty
    assert NT.index("T") in w.period
    assert accepts_up_word(inf_many_t(), w)
    no_acc = build_fa(NT, 1, [0], [], [(0, "N", 0)], omega=True)
    assert buchi_is_empty(no_acc)[0]


def test_random_weak_dba_complement_against_lasso_oracle():
    rng = random.Random(11)
    for _ in range(25):
        a = random_weak_dba(rng, NT)
        assert a.is_weak and a.is_deterministic and a.is_complete
        c = complement_weak_dba(a)
        for w in sample_lassos(NT, 20, seed=rng.randrange(10**6)):
            assert lasso_accepts_deterministic(a, w) != lasso_accepts_deterministic(c, w)
            assert accepts_up_word(a, w) == lasso_accepts_deterministic(a, w)


def test_minimize_weak_dba_random_roundtrip():
    rng = random.Random(12)
    for _ in range(15):
        a = random_weak_dba(rng, NT)
        m = minimize_weak_dba(a)
        assert classify(m)["weak"] and m.is_deterministic
        assert equal(a, m)
        assert minimize_weak_dba(m) == m


def test_minimize_weak_dba_leaves_no_equivalent_states():
    # a quotient that merges too few states keeps two states that accept the
    # same omega-words from there on; re-rooting exposes them
    rng = random.Random(14)
    inputs = [random_layered_weak_dba(rng, NT) for _ in range(16)]
    inputs += [random_weak_dba(rng, NT) for _ in range(5)]
    assert sum(max_parity_colour(a) >= 3 for a in inputs) >= 4
    for a in inputs:
        m = minimize_weak_dba(a)
        assert equal(a, m)
        rooted = [replace(m, initial=frozenset({q})) for q in range(m.n_states)]
        for p, q in itertools.combinations(range(m.n_states), 2):
            assert not equal(rooted[p], rooted[q]), (p, q)


def test_omega_inclusion_both_ways_is_exact_equality():
    assert equal(eventually_t(), eventually_t_nondet())
    assert not equal(eventually_t(), never(NT))
    assert _includes(never(NT), eventually_t())
    assert _includes(eventually_t(), omega_universal(NT))
    assert not _includes(omega_universal(NT), eventually_t())


def buchi_draws(seed: int, count: int = 20) -> list[OmegaAutomaton]:
    """Seeded Buchi automata over NT and NT x NT: `random_nfa` and
    `random_dense_nfa` draws read as Buchi automata (nondeterministic, often
    not weak) and layered weak DBAs."""
    rng = random.Random(seed)
    out = []
    for alphabet in (NT, Alphabet.product(NT, NT)):
        for _ in range(count):
            for draw in (random_nfa, random_dense_nfa):
                a = draw(rng, alphabet)
                out.append(_reflag(a, a.accepting, OmegaAutomaton))
            out.append(random_layered_weak_dba(rng, alphabet, 4, 2))
    assert any(not a.is_deterministic for a in out)
    assert any(not a.is_inherently_weak for a in out)
    return out


def test_accepts_up_word_equals_the_lasso_search():
    outcomes = set()
    for i, a in enumerate(buchi_draws(41)):
        for w in sample_lassos(a.alphabet, 10, seed=i):
            got = accepts_up_word(a, w)
            assert got == lasso_search(a, w), (i, w)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_omega_is_empty_equals_the_lasso_witness_search():
    outcomes = set()
    for a in buchi_draws(42):
        empty = omega_is_empty(a)
        assert empty == buchi_is_empty(a)[0]
        outcomes.add(empty)
    assert outcomes == {True, False}


def test_determinize_weak_is_numbered_canonically():
    determinized = 0
    for a in buchi_draws(43):
        try:
            d = determinize_weak(a)
        except (NotWeak, NonWeakResult):
            continue
        assert canonical_renumber(d) == d
        determinized += 1
    assert determinized >= 20, determinized


def finite_has_t():
    # the words with a T, as a finite-word DFA
    return build_fa(NT, 2, [0], [1], [(0, "N", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)])


LASSO = UltimatelyPeriodicWord((), (0,))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: negate_gsp(build_fa(cop_alphabet(0), 1, [0], [0], []), 0), ModeMismatch),
        (lambda: complement_weak_dba(finite_has_t()), ModeMismatch),
        (lambda: minimize_weak_dba(finite_has_t()), ModeMismatch),
        (lambda: determinize_weak(finite_has_t()), ModeMismatch),
        (lambda: omega_intersect(finite_has_t(), inf_many_t()), ModeMismatch),
        (lambda: omega_intersect(inf_many_t(), finite_has_t()), ModeMismatch),
        (lambda: buchi_is_empty(finite_has_t()), ModeMismatch),
        (lambda: classify(finite_has_t()), ModeMismatch),
        # the DFA accepts T, so read as a Buchi automaton it would accept T^omega
        (lambda: accepts_up_word(finite_has_t(), UltimatelyPeriodicWord((), (1,))), ModeMismatch),
        (lambda: pair_word(NT, (0,), LASSO), InputError),
        (lambda: pair_word(NT, LASSO, (0,)), InputError),
        (lambda: accepts_pair(identity(NT), (0,), LASSO), InputError),
    ],
    ids=[
        "negate_gsp", "complement_weak_dba", "minimize_weak_dba", "determinize_weak",
        "omega_intersect_left", "omega_intersect_right", "buchi_is_empty", "classify",
        "accepts_up_word",
        "pair_word_finite_first", "pair_word_lasso_first", "accepts_pair",
    ],
)
def test_omega_operations_refuse_the_other_word_kind(call, error):
    with pytest.raises(error) as info:
        call()
    if error is InputError:
        assert str(info.value) == "pair words must be both finite or both ultimately periodic"
