"""Transducer algebra and the iterative-closure engine."""

import ast
import itertools
import random
from pathlib import Path

import pytest

import rmckit
from rmckit import (
    Alphabet,
    AlphabetMismatch,
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
    minimize,
    preimage,
    relation_includes,
    slice_system,
    union_t,
    word_automaton,
)
from rmckit.automata import FiniteAutomaton, _paired_moves
from rmckit.omega import (
    UltimatelyPeriodicWord,
    _canon,
    _intersect,
    _is_empty,
    _map_letters,
    _product,
    accepts_up_word,
    sample_lassos,
    up_word_automaton,
)
from rmckit.transducer import FINITE, OMEGA, _join, canonicalize
from rmckit.fixtures import (
    build_fa,
    ring_alphabet,
    ring_initial,
    ring_relation,
    token_ring,
)

from oracles import (
    compose_pairs,
    exact_length,
    inverse,
    random_dense_nfa,
    random_layered_weak_dba,
    random_nfa,
    random_transducer,
    random_weak_dba,
    reflexive_check,
    relation_equal,
    relation_pairs_upto,
)

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


def test_composing_the_step_three_times_brings_the_token_back():
    t = ring_relation()
    assert image_words(compose(compose(t, t), t), "TNN", 3) == {"T N N"}


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
    # preimage checks its set as image does, another base included
    lasso = up_word_automaton(NT, UltimatelyPeriodicWord(word("T"), word("N")))
    other_base = Alphabet.base(("a", "b", "c"))
    for apply in (image, preimage):
        with pytest.raises(ModeMismatch, match="finite transducer applied to an omega"):
            apply(ring_relation(), lasso)
        with pytest.raises(ModeMismatch, match="omega transducer applied to a finite"):
            apply(identity(NT, OMEGA), ring_initial())
        with pytest.raises(AlphabetMismatch, match="not over the transducer base alphabet"):
            apply(ring_relation(), word_automaton(other_base, (0, 1)))


def _as_built(a):
    """Everything that tells two automata apart, rows in walk order included."""
    rows = [(q, list(row.items())) for q, row in a.adjacency.items()]
    return type(a), a.alphabet, a.n_states, a.initial, a.accepting, a.transitions, rows


def _forward_join(left, rel, size):
    """Each `left` move's last letter against the input letter of a `rel`
    move, both in ascending symbol order: the join spelled out by hand."""

    def pairs(rowl, rowr):
        for syml in sorted(rowl):
            for sym in sorted(rowr):
                if sym // size == syml % size:
                    yield syml, sym, syml // size * size + sym % size

    return _product(left, rel, left.alphabet, _paired_moves(left, rel, pairs))


def _joined_backwards(t: Transducer, s: Transducer, a, case) -> tuple[bool, bool]:
    """Check `preimage(t, a)` and the output-track join of `t` with `s`
    against the joins of the inverses; whether each result is nonempty."""
    size = t.base.size
    t_inv, s_inv = inverse(t), inverse(s)
    pre = preimage(t, a)
    assert _as_built(pre) == _as_built(image(t_inv, a)), case
    assert _as_built(pre) == _as_built(_forward_join(a, t_inv.inner, size)), case
    joined = _join(t.inner, s, 1)
    assert _as_built(joined) == _as_built(compose(t, s_inv).inner), case
    assert _as_built(joined) == _as_built(_forward_join(t.inner, s_inv.inner, size)), case
    return not _is_empty(pre), not _is_empty(joined)


def test_relations_are_joined_backwards_as_their_inverses_would_be():
    # preimage and the output-track join read a relation as its inverse
    # without building it, and number every product as the inverse would
    rng = random.Random(151)
    for case in range(600):
        base = Alphabet.base(("a", "b", "c")[: 2 + case % 2])
        if case % 8 > 1:  # omega products cost far more, so one case in four
            t, s = random_transducer(rng, base), random_transducer(rng, base)
            a = random_nfa(rng, base)
        else:
            pair = Alphabet.product(base, base)
            t, s = (Transducer(random_weak_dba(rng, pair, 4)) for _ in range(2))
            a = random_weak_dba(rng, base, 4)
        _joined_backwards(t, s, a, case)
    # the sparse draws above mostly join to the empty language; dense
    # relations and sets make most of these joins nonempty
    rng = random.Random(151)
    nonempty = [0, 0]
    for case in range(150):
        base = Alphabet.base(("a", "b", "c")[: 2 + case % 2])
        pair = Alphabet.product(base, base)
        t, s = (Transducer(random_dense_nfa(rng, pair, 4)) for _ in range(2))
        a = random_dense_nfa(rng, base)
        for i, hit in enumerate(_joined_backwards(t, s, a, ("dense", case))):
            nonempty[i] += hit
    assert min(nonempty) >= 75, nonempty


def test_no_module_builds_an_inverse():
    # a relation is applied backwards through `transducer._join`; building
    # the inverse relabels every transition of the relation
    calls = []
    for path in sorted(Path(rmckit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "inverse":
                    calls.append((path.stem, node.lineno))
    assert calls == []


def test_no_module_intersects_a_join_result():
    # `image` and `preimage` take `within` and explore only the part of the
    # join inside it; intersecting afterwards builds the whole join first
    joins = {"image", "preimage", "_join"}
    intersections = {"_intersect", "intersect", "omega_intersect"}

    def name_of(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    calls = []
    for path in sorted(Path(rmckit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name_of(node) in intersections:
                if any(isinstance(arg, ast.Call) and name_of(arg) in joins for arg in node.args):
                    calls.append((path.stem, node.lineno))
    assert calls == []


def _row_pairing_join(left, t: Transducer, track: int):
    """The join spelled out as a pairing of rows: each `t` row grouped by its
    letter on `track` afresh for every product node, then handed to the
    shared product.  The reference for the numbering of every join."""
    size = t.base.size

    def pairs(rowl, rowt):
        by_letter: dict = {}
        for sym in sorted(rowt):
            letters = divmod(sym, size)
            by_letter.setdefault(letters[track], []).append((sym, letters[1 - track]))
        for syml in sorted(rowl):
            first, last = divmod(syml, size)
            for sym, other in by_letter.get(last, ()):
                yield syml, sym, first * size + other

    return _product(left, t.inner, left.alphabet, _paired_moves(left, t.inner, pairs))


def _random_join_inputs(rng: random.Random, case: int):
    """A relation and two sets over a base of two or three letters: finite
    in three cases of four, omega (weak) in the fourth."""
    base = Alphabet.base(("a", "b", "c")[: 2 + case % 2])
    pair = Alphabet.product(base, base)
    if case % 4:
        return random_transducer(rng, base), random_nfa(rng, base), random_nfa(rng, base)
    t = Transducer(random_weak_dba(rng, pair, 4))
    a, w = (random_layered_weak_dba(rng, base, max_blocks=3, max_block=2) for _ in range(2))
    return t, a, w


def test_restricted_joins_equal_intersected_joins():
    rng = random.Random(181)
    nonempty = {FINITE: 0, OMEGA: 0}
    for case in range(200):
        t, a, w = _random_join_inputs(rng, case)
        for apply in (image, preimage):
            restricted = _canon(apply(t, a, within=w))
            assert restricted == _canon(_intersect(w, apply(t, a))), (case, apply.__name__)
            nonempty[t.mode] += not _is_empty(restricted)
    # the draws are not all trivially empty, in either mode
    assert min(nonempty.values()) >= 20, nonempty
    # dense finite draws, whose restricted joins are mostly nonempty
    nonempty = {image: 0, preimage: 0}
    for case in range(100):
        base = Alphabet.base(("a", "b", "c")[: 2 + case % 2])
        t = Transducer(random_dense_nfa(rng, Alphabet.product(base, base), 4))
        a, w = random_dense_nfa(rng, base), random_dense_nfa(rng, base)
        for apply in nonempty:
            restricted = _canon(apply(t, a, within=w))
            assert restricted == _canon(_intersect(w, apply(t, a))), ("dense", case)
            nonempty[apply] += not _is_empty(restricted)
    assert min(nonempty.values()) >= 50, nonempty


def test_joins_number_as_the_row_pairing_join_does():
    # the track index changes how a join reads `t`, not the automaton built
    rng = random.Random(182)
    for case in range(200):
        t, a, _ = _random_join_inputs(rng, case)
        s = _random_join_inputs(rng, case)[0]  # the same base as t
        assert _as_built(image(t, a)) == _as_built(_row_pairing_join(a, t, 0)), case
        assert _as_built(preimage(t, a)) == _as_built(_row_pairing_join(a, t, 1)), case
        composed = compose(t, s).inner
        assert _as_built(composed) == _as_built(_row_pairing_join(t.inner, s, 0)), case
        backwards = _join(t.inner, s, 1)
        assert _as_built(backwards) == _as_built(_row_pairing_join(t.inner, s, 1)), case


def test_within_must_match_the_relation():
    lasso = up_word_automaton(NT, UltimatelyPeriodicWord(word("T"), word("N")))
    other_base = Alphabet.base(("a", "b", "c"))
    for apply in (image, preimage):
        with pytest.raises(ModeMismatch, match="finite transducer applied to an omega"):
            apply(ring_relation(), ring_initial(), within=lasso)
        with pytest.raises(AlphabetMismatch, match="not over the transducer base alphabet"):
            apply(ring_relation(), ring_initial(), within=word_automaton(other_base, (0, 1)))


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
