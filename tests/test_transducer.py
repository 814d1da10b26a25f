"""Transducer algebra and the iterative-closure engine."""

import itertools
import random

import pytest

from rmckit import (
    Alphabet,
    InputError,
    ModeMismatch,
    Transducer,
    accepts_pair,
    closure,
    compose,
    enumerate_words,
    equivalent,
    identity,
    image,
    intersect,
    inverse,
    minimize,
    power,
    preimage,
    reflexive_check,
    relation_equal,
    relation_includes,
    slice_system,
    union_t,
    word_automaton,
)
from rmckit.automata import FiniteAutomaton, exact_length
from rmckit.omega import (
    UltimatelyPeriodicWord,
    _canon,
    _map_letters,
    accepts_up_word,
    sample_lassos,
    up_word_automaton,
)
from rmckit.transducer import OMEGA, canonicalize
from rmckit.fixtures import (
    build_fa,
    ring_alphabet,
    ring_initial,
    ring_relation,
    token_ring,
)

from oracles import compose_pairs, random_transducer, relation_pairs_upto

NT = ring_alphabet()


def word(s: str):
    return NT.word(s)


def image_words(t, w: str, n: int):
    out = image(t, word_automaton(NT, word(w)))
    return {NT.word_name(v) for v in enumerate_words(out, n)}


def test_identity_relation():
    t = identity(NT)
    assert accepts_pair(t, word("TNN"), word("TNN"))
    assert not accepts_pair(t, word("TNN"), word("NTN"))
    a = ring_initial()
    assert equivalent(image(t, a), a)


def test_compose_token_ring_twice():
    t = ring_relation()
    tt = compose(t, t)
    assert image_words(tt, "TNN", 3) == {"N N T"}
    assert accepts_pair(tt, word("TNN"), word("NNT"))


def test_compose_identity_is_neutral():
    t = ring_relation()
    assert relation_equal(compose(t, identity(NT)), t)
    assert relation_equal(compose(identity(NT), t), t)


def test_compose_disjoint_domains_is_empty():
    pair = Alphabet.product(NT, NT)
    # first maps T->N only; second requires input T
    first = Transducer(build_fa(pair, 1, [0], [0], [(0, "T/N", 0)]))
    second = Transducer(build_fa(pair, 1, [0], [0], [(0, "T/T", 0)]))
    out = compose(first, second)
    assert relation_pairs_upto(out, 3) == {((), ())}  # only the empty pair


def test_image_token_moves():
    t = ring_relation()
    assert image_words(t, "TNN", 3) == {"N T N"}
    assert image_words(t, "NNT", 3) == {"T N N"}
    empty = FiniteAutomaton(NT, 1, frozenset({0}), frozenset(), frozenset())
    from rmckit.automata import is_empty

    assert is_empty(image(t, empty))


def test_inverse_involution_and_preimage():
    t = ring_relation()
    assert relation_equal(inverse(inverse(t)), t)
    pre = preimage(t, word_automaton(NT, word("NTN")))
    assert {NT.word_name(v) for v in enumerate_words(pre, 3)} == {"T N N"}


def test_power():
    t = ring_relation()
    assert image_words(power(t, 3), "TNN", 3) == {"T N N"}
    assert relation_equal(power(t, 0), identity(NT))
    with pytest.raises(InputError):
        power(t, -1)


def test_closure_of_empty_relation():
    pair = Alphabet.product(NT, NT)
    empty = Transducer(build_fa(pair, 1, [0], [], []))
    result = closure(empty, "star", budget=8)
    assert result.converged and result.steps_used == 1
    assert relation_equal(result.relation, identity(NT))


def test_closure_token_ring_sliced():
    sl = slice_system(token_ring(), 3)
    result = closure(sl.relation, "star", budget=16)
    assert result.converged
    img = image(result.relation, word_automaton(NT, word("TNN")))
    names = {NT.word_name(v) for v in enumerate_words(img, 3)}
    assert names == {"T N N", "N T N", "N N T"}


def test_closure_unrestricted_budget_exhausted():
    result = closure(ring_relation(), "star", budget=8)
    assert not result.converged and result.steps_used == 8
    # the unions strictly grow: one more budget step changes the language
    more = closure(ring_relation(), "star", budget=9)
    assert not relation_equal(result.relation, more.relation)


def test_closure_converged_means_stable():
    sl = slice_system(token_ring(), 3)
    result = closure(sl.relation, "plus", budget=16)
    assert result.converged
    step = union_t(compose(result.relation, sl.relation), sl.relation)
    assert relation_includes(result.relation, step)
    # image stability on a sampled set
    a = word_automaton(NT, word("TNN"))
    reach = image(result.relation, a)
    again = image(result.relation, image(sl.relation, a))
    from rmckit.automata import union as a_union

    assert equivalent(minimize(a_union(reach, a)), minimize(a_union(again, a)))


def test_closure_accelerator_sound_candidate_accepted():
    sl = slice_system(token_ring(), 3)
    limit = closure(sl.relation, "plus", budget=16).relation

    calls = []

    def accel(iterates):
        calls.append(len(iterates))
        return limit

    result = closure(sl.relation, "plus", budget=16, accelerator=accel)
    assert result.converged and result.steps_used == 0 and calls
    assert relation_equal(result.relation, limit)


def test_closure_accelerator_unsound_candidate_rejected():
    sl = slice_system(token_ring(), 3)

    def accel(iterates):
        return identity(NT)  # misses the relation itself: fails T subset check

    result = closure(sl.relation, "plus", budget=16, accelerator=accel)
    assert result.converged  # converges by iteration despite the bad candidate
    honest = closure(sl.relation, "plus", budget=16)
    assert relation_equal(result.relation, honest.relation)


def test_reflexive_check():
    assert reflexive_check(identity(NT))
    assert not reflexive_check(ring_relation())
    assert reflexive_check(union_t(ring_relation(), identity(NT)))


def test_compose_matches_bruteforce_on_random_transducers():
    rng = random.Random(21)
    for _ in range(12):
        t1 = random_transducer(rng, NT)
        t2 = random_transducer(rng, NT)
        composed = compose(t1, t2)
        expected = compose_pairs(relation_pairs_upto(t1, 4), relation_pairs_upto(t2, 4))
        # restrict expectation to length <= 4 on both sides
        got = relation_pairs_upto(composed, 4)
        assert got == expected


def test_image_of_compose_is_composed_images():
    rng = random.Random(22)
    for _ in range(8):
        t1 = random_transducer(rng, NT)
        t2 = random_transducer(rng, NT)
        a = intersect(ring_initial(), exact_length(NT, 3))
        lhs = image(compose(t1, t2), a)
        rhs = image(t2, image(t1, a))
        assert equivalent(lhs, rhs)


def test_transducer_rejects_odd_alphabet():
    with pytest.raises(InputError):
        Transducer(ring_initial())


def omega_relation(n_states: int, accepting, moves) -> Transducer:
    return Transducer(
        build_fa(Alphabet.product(NT, NT), n_states, [0], accepting, moves, omega=True)
    )


def flip_relation() -> Transducer:
    # may rewrite the first letter, copies the rest; idempotent as a relation
    return omega_relation(
        2, [1],
        [
            (0, "N/N", 1), (0, "N/T", 1), (0, "T/N", 1), (0, "T/T", 1),
            (1, "N/N", 1), (1, "T/T", 1),
        ],
    )


def late_relation() -> Transducer:
    # copies, turns one N into T, then reads N forever
    return omega_relation(
        2, [1], [(0, "N/N", 0), (0, "T/T", 0), (0, "N/T", 1), (1, "N/N", 1)]
    )


def test_omega_closure_converges_on_weak_relation():
    flip = flip_relation()
    result = closure(flip, "star", budget=8)
    assert result.converged and result.steps_used == 1
    img = image(result.relation, up_word_automaton(NT, UltimatelyPeriodicWord(word("T"), word("N"))))
    assert accepts_up_word(img, UltimatelyPeriodicWord(word("T"), word("N")))
    assert accepts_up_word(img, UltimatelyPeriodicWord(word("N"), word("N")))
    assert not accepts_up_word(img, UltimatelyPeriodicWord(word("TT"), word("N")))


def test_canonicalize_is_the_shared_canonical_form():
    relations = [slice_system(token_ring(), n).relation for n in (2, 3)]
    for t in relations + [flip_relation()]:
        assert canonicalize(t).inner == _canon(t.inner)


def test_image_rejects_a_set_of_the_other_mode():
    lasso = up_word_automaton(NT, UltimatelyPeriodicWord(word("T"), word("N")))
    with pytest.raises(ModeMismatch, match="finite transducer applied to an omega"):
        image(ring_relation(), lasso)
    with pytest.raises(ModeMismatch, match="omega transducer applied to a finite"):
        image(identity(NT, OMEGA), ring_initial())


def omega_relations() -> list[Transducer]:
    return [identity(NT, OMEGA), flip_relation(), late_relation()]


def sampled_pairs(count: int, seed: int) -> list:
    """Pairs of ultimately periodic words, drawn as words over the pair alphabet."""
    pair = Alphabet.product(NT, NT)
    size = NT.size
    return [
        (_map_letters(w, lambda s: s // size), _map_letters(w, lambda s: s % size))
        for w in sample_lassos(pair, count, max_prefix=3, max_period=3, seed=seed)
    ]


def test_omega_relation_inclusion_agrees_with_sampled_pairs():
    pairs = sampled_pairs(400, seed=5)

    def sampled_includes(t1, t2):
        return all(accepts_pair(t1, x, y) for x, y in pairs if accepts_pair(t2, x, y))

    rels = omega_relations()
    verdicts = set()
    for t1, t2 in itertools.product(rels, repeat=2):
        expected = sampled_includes(t1, t2)
        assert relation_includes(t1, t2) == expected
        assert relation_equal(t1, t2) == (expected and sampled_includes(t2, t1))
        verdicts.add(expected)
    assert verdicts == {True, False}
    ident, flip, late = rels
    assert relation_includes(flip, ident) and not relation_includes(ident, flip)
    assert not relation_includes(late, ident) and not relation_includes(ident, late)


def test_omega_compose_agrees_with_images_on_sampled_pairs():
    pairs = sampled_pairs(120, seed=6)
    seen = set()
    for t1, t2 in itertools.product(omega_relations(), repeat=2):
        composed = compose(t1, t2)
        for x, z in pairs:
            middle = image(t1, up_word_automaton(NT, x))
            expected = accepts_up_word(image(t2, middle), z)
            assert accepts_pair(composed, x, z) == expected
            seen.add(expected)
            # a sampled pair of t1 followed by t2 from its output is composed
            if accepts_pair(t1, x, z):
                for y, z2 in pairs:
                    if y == z and accepts_pair(t2, y, z2):
                        assert accepts_pair(composed, x, z2)
    assert seen == {True, False}
