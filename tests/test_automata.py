"""Finite-word algebra: examples and enumeration-oracle properties."""

import ast
import itertools
import random
from dataclasses import replace
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest

import rmckit
from rmckit import (
    Alphabet,
    FiniteAutomaton,
    InputError,
    accepts,
    complement,
    determinize,
    difference,
    determinize_weak,
    enumerate_words,
    equivalent,
    image,
    includes,
    intersect,
    is_empty,
    minimize,
    minimize_weak_dba,
    omega_intersect,
    pick_word,
    serialize_aut,
    union,
    universal,
    word_automaton,
)
from rmckit.alphabet import COMPLETION_CAP
from rmckit import automata
from rmckit.automata import (
    _determinize_subsets,
    _shortest_words,
    _sync_symbols,
    complete,
    cut_lengths,
    explore,
    product_general,
    relabel,
)
from rmckit.fixtures import build_fa, ring_alphabet, ring_initial
from rmckit.omega import (
    OmegaAutomaton,
    UltimatelyPeriodicWord,
    _cycle_word,
    _canon,
    canonical_renumber,
    complement_weak_dba,
    normalize_weak,
    omega_universal,
    to_weak_dba,
    up_word_automaton,
)
from rmckit.transducer import compose

from oracles import (
    exact_length,
    inverse,
    language_upto,
    moore_minimize,
    naive_accepts,
    naive_includes,
    project_components,
    random_dense_nfa,
    random_dfa_complete,
    random_layered_weak_dba,
    random_nfa,
    random_partial_dfa,
    random_transducer,
    random_weak_dba,
    reordered,
)

NT = ring_alphabet()
AB = Alphabet.base(("a", "b"))


def nfa_last_a():
    # (a|b)*a
    return build_fa(AB, 2, [0], [1], [(0, "a", 0), (0, "b", 0), (0, "a", 1)])


def nfa_one_token():
    # N*TN*
    return build_fa(NT, 2, [0], [1], [(0, "N", 0), (0, "T", 1), (1, "N", 1)])


def test_accepts_token_ring_initial():
    assert accepts(ring_initial(), NT.word("TNN"))
    assert not accepts(ring_initial(), NT.word("NTN"))


def test_alphabet_size_is_kept_and_ignored_by_equality():
    pairs = Alphabet.product(AB, Alphabet.base(tuple("xyz")))
    fresh = Alphabet.product(AB, Alphabet.base(tuple("xyz")))
    with mock.patch("rmckit.alphabet.reduce", wraps=reduce) as computed:
        assert (pairs.size, pairs.size) == (6, 6)
    assert computed.call_count == 1
    assert "size" not in vars(fresh)
    assert pairs == fresh and hash(pairs) == hash(fresh) and repr(pairs) == repr(fresh)


def test_accepts_wrong_alphabet_symbol_is_error():
    with pytest.raises(InputError):
        accepts(ring_initial(), (5,))


def test_accepts_last_a():
    assert not accepts(nfa_last_a(), AB.word("ab"))
    assert accepts(nfa_last_a(), AB.word("ba"))


def test_determinize_is_deterministic_and_complete():
    d = determinize(nfa_last_a())
    assert d.is_deterministic and d.is_complete
    for w in itertools.product(range(2), repeat=4):
        assert accepts(d, w) == naive_accepts(nfa_last_a(), w)


def test_determinize_dfa_keeps_language():
    d = ring_initial()
    dd = determinize(d)
    assert dd.is_complete
    assert equivalent(d, dd)


def test_determinize_empty_language_single_sink():
    empty = FiniteAutomaton(AB, 1, frozenset({0}), frozenset(), frozenset())
    d = determinize(empty)
    assert d.n_states == 1 and not d.accepting and d.is_complete


def test_minimize_last_a_two_states():
    m = minimize(nfa_last_a())
    assert m.n_states == 2  # complete minimal DFA for (a|b)*a
    assert equivalent(m, nfa_last_a())


def test_minimize_canonical_for_equal_languages():
    # two syntactically different automata for N*TN*
    a = nfa_one_token()
    b = build_fa(
        NT, 4, [0], [2, 3],
        [(0, "N", 1), (1, "N", 1), (0, "T", 2), (1, "T", 2), (2, "N", 3), (3, "N", 3)],
    )
    assert equivalent(a, b)
    assert minimize(a) == minimize(b)
    assert serialize_aut(minimize(a)) == serialize_aut(minimize(b))


def test_minimize_fixpoint_and_empty():
    m = minimize(nfa_one_token())
    assert minimize(m) == m
    empty = FiniteAutomaton(NT, 3, frozenset({0}), frozenset(), frozenset())
    m0 = determinize(minimize(empty))
    assert m0.n_states == 1 and not m0.accepting and m0.is_complete


def test_boolean_intersect_at_length_one():
    tn = ring_initial()  # TN*
    nt = build_fa(NT, 2, [0], [1], [(0, "N", 0), (0, "T", 1)])  # N*T
    both = intersect(tn, nt)
    assert enumerate_words(both, 1) == [NT.word("T")]


@pytest.mark.parametrize("cap, max_len", [(2, 1), (3, 2)])
def test_enumerate_words_stops_at_its_cap(cap, max_len):
    # (2, 1) meets the cap in the accepted words, (3, 2) in the frontier
    every = universal(NT)
    with mock.patch("rmckit.automata.ENUMERATION_CAP", cap):
        with pytest.raises(InputError, match="word enumeration cap exceeded"):
            enumerate_words(every, max_len)
        assert len(enumerate_words(every, max_len - 1)) == 2**max_len - 1


def test_complement_involution_and_union_identity():
    a = nfa_one_token()
    assert equivalent(complement(complement(a)), a)
    empty = FiniteAutomaton(NT, 1, frozenset({0}), frozenset(), frozenset())
    assert equivalent(union(a, empty), a)


def test_boolean_operations_against_word_enumeration():
    a, b = nfa_one_token(), ring_initial()  # N*TN* and TN*
    words_a, words_b = set(enumerate_words(a, 4)), set(enumerate_words(b, 4))
    every = set(enumerate_words(universal(NT), 4))
    assert set(enumerate_words(union(a, b), 4)) == words_a | words_b
    assert set(enumerate_words(intersect(a, b), 4)) == words_a & words_b
    assert set(enumerate_words(difference(a, b), 4)) == words_a - words_b
    assert set(enumerate_words(difference(b, a), 4)) == set()
    assert set(enumerate_words(complement(a), 4)) == every - words_a


def sync_product(a, b):
    """Synchronous product of two languages: `product_general` reading every
    pair of moves as the pair letter of `_sync_symbols`."""
    pair = Alphabet.product(a.alphabet, b.alphabet)
    return product_general(a, b, pair, _sync_symbols(b.alphabet.size))


def test_sync_product_singletons():
    t = word_automaton(NT, NT.word("T"))
    n = word_automaton(NT, NT.word("N"))
    prod = sync_product(t, n)
    words = enumerate_words(prod, 1)
    assert words == [(prod.alphabet.index("T/N"),)]


def test_sync_product_enumeration():
    tn = ring_initial()  # TN*
    nstar = build_fa(NT, 1, [0], [0], [(0, "N", 0)])  # N*
    prod = sync_product(tn, nstar)
    words = enumerate_words(prod, 2)
    names = {tuple(prod.alphabet.name(s) for s in w) for w in words if len(w) == 2}
    assert names == {("T/N", "N/N")}


def test_sync_product_annihilator():
    empty = FiniteAutomaton(NT, 1, frozenset({0}), frozenset(), frozenset())
    assert is_empty(sync_product(ring_initial(), empty))


def test_project_singleton():
    t = word_automaton(NT, NT.word("T"))
    n = word_automaton(NT, NT.word("N"))
    prod = sync_product(t, n)
    p = project_components(prod, [1])
    assert equivalent(minimize(p), minimize(t))


def test_project_token_move_pairs():
    # graph of the one-step token move at length 2: {(TN,NT), (NT,TN)}
    from rmckit.fixtures import ring_relation

    rel2 = intersect(ring_relation().inner, exact_length(Alphabet.product(NT, NT), 2))
    outputs = project_components(rel2, [0])
    names = {tuple(NT.name(s) for s in w) for w in enumerate_words(outputs, 2)}
    assert names == {("N", "T"), ("T", "N")}


def test_project_empty():
    pair = Alphabet.product(NT, NT)
    empty = FiniteAutomaton(pair, 1, frozenset({0}), frozenset(), frozenset())
    assert is_empty(project_components(empty, [0]))


def test_project_bad_index():
    with pytest.raises(InputError):
        project_components(ring_initial(), [0])  # arity 1
    pair = sync_product(ring_initial(), ring_initial())
    with pytest.raises(InputError):
        project_components(pair, [2])


def test_decision_procedures():
    assert is_empty(complement(universal(NT)))
    assert includes(ring_initial(), nfa_one_token())  # TN* within N*TN*
    assert not includes(nfa_one_token(), ring_initial())
    rng = random.Random(7)
    for _ in range(10):
        x = random_nfa(rng, AB)
        assert equivalent(minimize(x), x)


def test_includes_matches_on_the_fly_search():
    # `includes` is the emptiness of `difference`; the on-the-fly search
    # over (state, subset) pairs is the reference
    rng = random.Random(8)
    for _ in range(25):
        a, b = random_nfa(rng, AB), random_nfa(rng, AB)
        assert includes(a, b) == naive_includes(a, b)


def test_difference_equals_intersect_with_complement_on_dense_draws():
    # `difference` is one product with the subtrahend's subsets; the
    # intersection with its complement is the reference
    rng = random.Random(19)
    nonempty = draws = 0
    for alphabet in (AB, Alphabet.base(("a", "b", "c"))):
        for _ in range(60):
            a, b = random_dense_nfa(rng, alphabet), random_dense_nfa(rng, alphabet)
            diff = difference(a, b)
            assert type(diff) is FiniteAutomaton
            assert _canon(diff) == _canon(intersect(a, complement(b)))
            assert language_upto(diff, 4) == language_upto(a, 4) - language_upto(b, 4)
            nonempty += not is_empty(diff)
            draws += 1
    assert nonempty >= 0.5 * draws, nonempty


def test_difference_completes_nothing_above_the_cap():
    wide = Alphabet.base(tuple(f"x{i}" for i in range(COMPLETION_CAP + 1)))
    a = FiniteAutomaton(wide, 2, frozenset({0}), frozenset({1}), frozenset({(0, 0, 1), (0, 1, 1)}))
    b = FiniteAutomaton(wide, 2, frozenset({0}), frozenset({1}), frozenset({(0, 0, 1)}))
    with pytest.raises(InputError, match="completion cap"):
        complement(b)
    assert enumerate_words(difference(a, b), 2) == [(1,)]
    assert is_empty(difference(b, a))


def test_determinize_matches_enumeration_on_random_nfas():
    rng = random.Random(1)
    for _ in range(60):
        a = random_nfa(rng, AB)
        d = determinize(a)
        m = minimize(a)
        expected = language_upto(a, 5)
        assert language_upto(d, 5) == expected
        assert language_upto(m, 5) == expected


def test_de_morgan_on_random_nfas():
    rng = random.Random(2)
    for _ in range(30):
        a = random_nfa(rng, AB)
        b = random_nfa(rng, AB)
        lhs = complement(union(a, b))
        rhs = intersect(complement(a), complement(b))
        assert equivalent(lhs, rhs)


def test_project_of_product_with_universal_recovers():
    rng = random.Random(3)
    for _ in range(20):
        a = random_nfa(rng, AB)
        prod = sync_product(a, universal(AB))
        assert equivalent(project_components(prod, [1]), a)


def test_minimize_bit_identical_on_random_equivalent_pairs():
    rng = random.Random(4)
    for _ in range(30):
        a = random_nfa(rng, AB)
        b = union(a, a)  # same language, different shape
        assert serialize_aut(minimize(a)) == serialize_aut(minimize(b))


def test_pick_word_shortest_then_lex():
    a = nfa_one_token()
    assert pick_word(a) == NT.word("T")
    empty = FiniteAutomaton(NT, 1, frozenset({0}), frozenset(), frozenset())
    assert pick_word(empty) is None


def test_pick_word_is_shortest_then_least_of_brute_force():
    # a shortest accepted word is shorter than the state count
    rng = random.Random(12)
    for alphabet in (AB, Alphabet.base(("a", "b", "c"))):
        for _ in range(40):
            a = random_nfa(rng, alphabet)
            words = language_upto(a, a.n_states)
            expected = min(words, key=lambda w: (len(w), w)) if words else None
            assert pick_word(a) == expected


def test_completion_above_cap_raises_only_for_a_nonempty_language():
    wide = Alphabet.base(tuple(f"x{i}" for i in range(COMPLETION_CAP + 1)))

    def aut(accepting):
        edge = frozenset({(0, 0, 1)})
        return FiniteAutomaton(wide, 2, frozenset({0}), frozenset(accepting), edge)

    for op in (determinize, lambda a: determinize(minimize(a))):
        with pytest.raises(InputError, match="completion cap"):
            op(aut({1}))
        sink = op(aut(()))
        assert (sink.n_states, len(sink.transitions)) == (1, wide.size)
        assert not sink.accepting
    # minimize keeps the trim form above the cap
    assert minimize(aut({1})).transitions == frozenset({(0, 0, 1)})


def _minimize_cases():
    """Seeded random inputs for `minimize`, paired with a `completion` value.

    Random NFAs and partial DFAs over 2-, 5-, 96- (a pair alphabet) and
    `COMPLETION_CAP + 1`-letter alphabets, each for the trim minimal DFA and
    the complete one (`_minimized`), plus an empty initial set on each
    alphabet.  Then, from a second seed, draws of finite languages: random
    NFAs and partial DFAs cut to a few word lengths, and partial DFAs
    intersected with one word length.
    """
    rng = random.Random(41)
    alphabets = (
        AB,
        Alphabet.base(tuple("abcde")),
        Alphabet.product(
            Alphabet.base(tuple(f"p{i}" for i in range(12))),
            Alphabet.base(tuple(f"q{i}" for i in range(8))),
        ),
        Alphabet.base(tuple(f"x{i}" for i in range(COMPLETION_CAP + 1))),
    )
    for alphabet in alphabets:
        for completion in (True, False):
            yield FiniteAutomaton(alphabet, 2, frozenset(), frozenset({1}), frozenset()), completion
            for _ in range(20):
                yield random_nfa(rng, alphabet), completion
                yield random_partial_dfa(rng, alphabet), completion
    rng = random.Random(43)
    for alphabet in alphabets:
        for completion in (True, False):
            for _ in range(5):
                for draw in (random_nfa, random_partial_dfa):
                    lengths = rng.sample(range(5), rng.randint(1, 3))
                    yield cut_lengths(draw(rng, alphabet), lengths), completion
                word_length = exact_length(alphabet, rng.randint(0, 3))
                yield intersect(random_partial_dfa(rng, alphabet), word_length), completion


def _has_cycle(states, edges) -> bool:
    """Whether a cycle of `edges` runs through `states` alone."""
    inner = {(src, dst) for src, dst in edges if src in states and dst in states}
    return any(q in _closure({dst for src, dst in inner if src == q}, inner) for q in states)


def _closure(starts, edges) -> set[int]:
    seen, stack = set(starts), list(starts)
    while stack:
        q = stack.pop()
        for src, dst in edges:
            if src == q and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def _minimized(a, completion):
    """`minimize(a)`, or with `completion` the complete minimal DFA by its
    recipe, `determinize(minimize(a))`."""
    m = minimize(a)
    return determinize(m) if completion else m


def _outcome(op, a, completion):
    """The canonical text of `op(a, completion)` where the alphabet
    serializes (the value itself otherwise), or the InputError it raises."""
    try:
        m = op(a, completion)
    except InputError as err:
        return ("InputError", str(err))
    return serialize_aut(m) if m.alphabet.arity == 1 else m


def test_minimize_matches_moore_oracle_on_random_automata():
    seen = {"dead": 0, "unreachable": 0, "initial not 0": 0, "deterministic": 0,
            "empty language": 0, "no initial state": 0, "raises": 0,
            "finite language": 0, "infinite language": 0,
            "registered": 0, "refined": 0, "refined, finite language": 0}
    register = mock.patch.object(automata, "_register", wraps=automata._register)
    refine = mock.patch.object(automata, "_refine", wraps=automata._refine)
    with register as registered, refine as refined:
        for a, completion in _minimize_cases():
            expected = _outcome(moore_minimize, a, completion)
            registered.reset_mock()
            refined.reset_mock()
            assert _outcome(_minimized, a, completion) == expected
            edges = {(src, dst) for src, _, dst in a.transitions}
            reachable = _closure(a.initial, edges)
            live = _closure(a.accepting, {(dst, src) for src, dst in edges})
            finite = not _has_cycle(reachable & live, edges)
            # the DFA that is partitioned registers exactly when its live
            # states have no cycle; a finite language can still be refined
            # when a cycle of a DFA input's live states cannot be reached
            d = a if a.is_deterministic else _determinize_subsets(a)
            d_edges = {(src, dst) for src, _, dst in d.transitions}
            d_live = _closure(d.accepting, {(dst, src) for src, dst in d_edges})
            assert registered.call_count + refined.call_count == 1
            assert bool(registered.call_count) is not _has_cycle(d_live, d_edges)
            assert finite or refined.call_count
            assert not finite or a.is_deterministic or registered.call_count
            seen["dead"] += bool(reachable - live)
            seen["unreachable"] += len(reachable) < a.n_states
            seen["initial not 0"] += 0 not in a.initial
            seen["deterministic"] += a.is_deterministic
            seen["empty language"] += not (reachable & a.accepting)
            seen["no initial state"] += not a.initial
            seen["raises"] += isinstance(expected, tuple)
            seen["finite language"] += finite
            seen["infinite language"] += not finite
            seen["registered"] += registered.call_count
            seen["refined"] += refined.call_count
            seen["refined, finite language"] += finite and refined.call_count
    # every kind of input the partition must treat like Moore's did occurs,
    # and both algorithms run
    assert all(seen.values()), seen


def test_minimize_refines_only_when_a_cycle_runs_through_live_states():
    # a*b has a live cycle; {ab} completed has a cycle only in its dead sink
    a_star_b = build_fa(AB, 2, [0], [1], [(0, "a", 0), (0, "b", 1)])
    ab = complete(build_fa(AB, 3, [0], [2], [(0, "a", 1), (1, "b", 2)]))
    cases = {"a*b": (a_star_b, "refine"), "{ab}, completed": (ab, "register")}
    for name, (a, expected) in cases.items():
        with mock.patch.object(automata, "_register", wraps=automata._register) as registered, \
                mock.patch.object(automata, "_refine", wraps=automata._refine) as refined:
            m = minimize(a)
        assert (registered.call_count, refined.call_count) == (
            (1, 0) if expected == "register" else (0, 1)
        ), name
        assert serialize_aut(m) == serialize_aut(moore_minimize(a)), name


def test_minimize_output_has_no_two_equivalent_states():
    for a, completion in _minimize_cases():
        try:
            m = _minimized(a, completion)
        except InputError:
            continue
        assert m.n_states == moore_minimize(a, completion).n_states
        for p, q in itertools.combinations(range(m.n_states), 2):
            at_p = replace(m, initial=frozenset({p}))
            at_q = replace(m, initial=frozenset({q}))
            assert not equivalent(at_p, at_q), (a, completion, p, q)


def test_minimize_is_trim_at_every_alphabet_size():
    # every state is reachable and reaches an accepting state; the empty
    # language is the one rejecting state with no moves
    rng = random.Random(61)
    alphabets = [Alphabet.base(tuple("abc"[:k])) for k in (1, 2, 3)]
    alphabets.append(Alphabet.base(tuple(f"x{i}" for i in range(COMPLETION_CAP + 1))))
    seen = {"empty": 0, "nonempty": 0}
    for alphabet in alphabets:
        for _ in range(30):
            for draw in (random_nfa, random_partial_dfa, random_dfa_complete):
                m = minimize(draw(rng, alphabet))
                everything = set(range(m.n_states))
                if not m.accepting:
                    assert (m.n_states, m.initial, m.transitions) == (1, {0}, frozenset())
                    seen["empty"] += 1
                    continue
                edges = {(src, dst) for src, _, dst in m.transitions}
                assert _closure(m.initial, edges) == everything
                assert _closure(m.accepting, {(dst, src) for src, dst in edges}) == everything
                seen["nonempty"] += 1
    assert min(seen.values()) >= 0.1 * sum(seen.values()), seen


def test_deterministic_input_gives_the_subset_route_bytes():
    # `union(a, a)` has two initial states, so it goes through the subset
    # construction, while the DFA `a` is refined as it is
    cases = {
        # initial state 2; states 3 and 4 unreachable
        "initial not 0": build_fa(
            AB, 5, [2], [0],
            [(2, "a", 0), (2, "b", 1), (1, "a", 0), (0, "b", 0), (3, "a", 4), (4, "b", 2)],
        ),
        # the initial state has moves but reaches no accepting state
        "dead initial": build_fa(
            AB, 3, [1], [0], [(1, "a", 2), (2, "b", 1), (2, "a", 2), (0, "a", 1)],
        ),
        # state 2 is an explicit dead state; state 1 has no b-move
        "partial with explicit dead": build_fa(
            AB, 4, [0], [1, 3],
            [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 2), (2, "b", 2), (3, "b", 1),
             (3, "a", 2)],
        ),
    }
    for name, a in cases.items():
        doubled = union(a, a)
        assert a.is_deterministic and not doubled.is_deterministic, name
        for completion in (True, False):
            m = _minimized(a, completion)
            assert m == _minimized(doubled, completion), name
            assert serialize_aut(m) == serialize_aut(moore_minimize(a, completion)), name


# ---------------------------------------------------------------------------
# rows are the automaton: every construction hands over rows in normal form and
# builds no transition set, and its output equals what the public
# constructor builds from the transition set the construction describes


def _subsets_by_constructor(a):
    """The subset construction through the public constructor: the nonempty
    subsets numbered breadth first, symbols ascending, and no completion."""
    start = frozenset(a.initial)
    ids, order, moves = {start: 0}, [start], set()
    for subset in order:  # grows while it is walked: the breadth-first queue
        for sym in range(a.alphabet.size):
            nxt = frozenset(d for q, x, d in a.transitions if q in subset and x == sym)
            if nxt:
                if nxt not in ids:
                    ids[nxt] = len(order)
                    order.append(nxt)
                moves.add((ids[subset], sym, ids[nxt]))
    accepting = frozenset(i for i, subset in enumerate(order) if subset & a.accepting)
    return FiniteAutomaton(a.alphabet, len(order), frozenset({0}), accepting, frozenset(moves))


def _determinize_by_constructor(a):
    """`determinize(a)`: the subset construction completed, or the one-state
    rejecting sink when no subset accepts."""
    d = _subsets_by_constructor(a)
    if not d.accepting:
        return _sink_by_constructor(FiniteAutomaton, a.alphabet)
    return _completion_by_replace(d)


def _sink_by_constructor(cls, alphabet):
    """The one-state automaton of the empty language, with every move."""
    loops = frozenset((0, sym, 0) for sym in range(alphabet.size))
    return cls(alphabet, 1, frozenset({0}), frozenset(), loops)


def _flipped_by_replace(d):
    return replace(d, accepting=frozenset(range(d.n_states)) - d.accepting)


def _relabel_by_constructor(a, alphabet, letters):
    moves = frozenset((p, x, q) for p, s, q in a.transitions for x in letters(s))
    return type(a)(alphabet, a.n_states, a.initial, a.accepting, moves)


def _construction_cases():
    """(operation, inputs, output, expected or None) from seeded random NFAs,
    partial DFAs, transducers and layered weak DBAs; `expected` is built
    through the public constructor from the transition sets of the inputs."""
    rng = random.Random(53)
    for alphabet in (AB, Alphabet.base(tuple("abcde")), Alphabet.product(NT, NT)):
        for _ in range(8):
            a, d = random_nfa(rng, alphabet), random_partial_dfa(rng, alphabet)
            t1, t2 = random_transducer(rng, alphabet, 3), random_transducer(rng, alphabet, 3)
            yield "intersect", (a, d), intersect(a, d), None
            yield "product_general", (a, d), sync_product(a, d), None
            yield "image", (a,), image(t1, a), None
            yield "compose", (), compose(t1, t2).inner, None
            yield "complete", (a,), complete(a), _completion_by_replace(a)
            x = intersect(d, a)
            yield "complete", (x,), complete(x), _completion_by_replace(x)
            yield "determinize", (a,), determinize(a), _determinize_by_constructor(a)
            yield "_determinize_subsets", (a,), _determinize_subsets(a), _subsets_by_constructor(a)
            yield "complement", (d,), complement(d), _flipped_by_replace(
                _determinize_by_constructor(d)
            )
            for x in (a, d):
                yield "minimize", (x,), minimize(x), moore_minimize(x)
            m = minimize(a)
            yield "determinize", (m,), determinize(m), moore_minimize(a, completion=True)
            empty = replace(a, accepting=frozenset())
            m0 = minimize(empty)
            yield "minimize", (empty,), m0, FiniteAutomaton(
                alphabet, 1, frozenset({0}), frozenset(), frozenset()
            )
            yield "determinize", (m0,), determinize(m0), _sink_by_constructor(
                FiniteAutomaton, alphabet
            )
            yield "union", (a, d), union(a, d), _union_by_constructor(a, d)
            c = complement(d)
            yield "union", (c, a), union(c, a), _union_by_constructor(c, a)
            yield "inverse", (), inverse(t1).inner, None

            def letters(s):
                return (s, (s * 7 + 1) % alphabet.size)

            yield "relabel", (a,), relabel(a, alphabet, letters), _relabel_by_constructor(
                a, alphabet, letters
            )
            word = [rng.randrange(alphabet.size) for _ in range(rng.randrange(4))]
            yield "word_automaton", (), word_automaton(alphabet, word), FiniteAutomaton(
                alphabet,
                len(word) + 1,
                frozenset({0}),
                frozenset({len(word)}),
                frozenset((i, sym, i + 1) for i, sym in enumerate(word)),
            )
            yield "universal", (), universal(alphabet), _flipped_by_replace(
                _sink_by_constructor(FiniteAutomaton, alphabet)
            )

            w1, w2 = (random_layered_weak_dba(rng, alphabet, 3, 2) for _ in range(2))
            yield "omega_intersect", (w1, w2), omega_intersect(w1, w2), None
            norm = normalize_weak(w1)
            yield "normalize_weak", (w1,), norm, replace(w1, accepting=norm.accepting)
            yield "complement_weak_dba", (w1,), complement_weak_dba(w1), _flipped_by_replace(
                _completion_by_replace(w1)
            )
            both = union(w1, w2)  # two initial states: not deterministic
            yield "determinize_weak", (both,), determinize_weak(both), None
            yield "to_weak_dba", (both,), to_weak_dba(both), None
            yield "minimize_weak_dba", (w1,), minimize_weak_dba(w1), None
            never = replace(w1, accepting=frozenset())
            yield "minimize_weak_dba", (never,), minimize_weak_dba(never), _sink_by_constructor(
                OmegaAutomaton, alphabet
            )
            partial = replace(
                w1, transitions=frozenset(t for t in w1.transitions if rng.random() < 0.7)
            )
            yield "complete", (partial,), complete(partial), _completion_by_replace(partial)
            yield "union", (w1, w2), both, _union_by_constructor(w1, w2)

            def mirror(s):
                return (alphabet.size - 1 - s,)

            yield "relabel", (w1,), relabel(w1, alphabet, mirror), _relabel_by_constructor(
                w1, alphabet, mirror
            )
            yield "canonical_renumber", (partial,), canonical_renumber(partial), None
            lasso = UltimatelyPeriodicWord(tuple(word), (rng.randrange(alphabet.size),) * 2)
            p = len(lasso.prefix)
            yield "up_word_automaton", (), up_word_automaton(alphabet, lasso), OmegaAutomaton(
                alphabet,
                p + 2,
                frozenset({0}),
                frozenset({p, p + 1}),
                frozenset(
                    [(i, sym, i + 1) for i, sym in enumerate(word)]
                    + [(p, lasso.period[0], p + 1), (p + 1, lasso.period[1], p)]
                ),
            )
            yield "omega_universal", (), omega_universal(alphabet), _flipped_by_replace(
                _sink_by_constructor(OmegaAutomaton, alphabet)
            )


def _assert_normal_rows(a):
    """No empty row, no empty symbol entry, sorted distinct destinations."""
    for q, row in a.adjacency.items():
        assert 0 <= q < a.n_states and row
        for sym, dsts in row.items():
            assert 0 <= sym < a.alphabet.size and dsts
            assert type(dsts) is tuple and list(dsts) == sorted(set(dsts))
            assert 0 <= dsts[0] and dsts[-1] < a.n_states


def test_every_construction_hands_over_normal_rows_and_builds_no_transition_set():
    ops = set()
    for op, inputs, out, expected in _construction_cases():
        ops.add(op)
        # read before anything asks for the set: a construction must not make one
        if not any(out is x for x in inputs):
            assert "transitions" not in out.__dict__, op
        _assert_normal_rows(out)
        # the public constructor checks every state and symbol again and
        # groups the derived transition set into rows
        rebuilt = replace(out)
        assert rebuilt == out and out == rebuilt and type(rebuilt) is type(out), op
        assert hash(rebuilt) == hash(out), op
        assert rebuilt.adjacency == out.adjacency, op
        assert (out.is_deterministic, out.is_complete) == (
            rebuilt.is_deterministic,
            rebuilt.is_complete,
        ), op
        if expected is not None:
            assert out == expected and type(out) is type(expected), op
            assert hash(out) == hash(expected), op
    assert ops == {
        "intersect", "product_general", "image", "compose", "complete", "determinize",
        "_determinize_subsets",
        "complement", "minimize", "union", "inverse", "relabel", "word_automaton",
        "universal", "omega_intersect", "normalize_weak", "complement_weak_dba",
        "determinize_weak", "to_weak_dba", "minimize_weak_dba", "canonical_renumber",
        "up_word_automaton", "omega_universal",
    }


def test_equality_and_hashing_agree_on_construction_outputs():
    rng = random.Random(54)
    outputs = [out for _, _, out, _ in _construction_cases()]
    for a, b in itertools.product(outputs[:120], repeat=2):
        assert (a == b) == (b == a)
        if a == b:
            assert hash(a) == hash(b)
    for a in outputs[::5]:
        # equal rows in another order, and the same rows read as the other class
        assert reordered(a, rng) == a and hash(reordered(a, rng)) == hash(a)
        other = OmegaAutomaton if type(a) is FiniteAutomaton else FiniteAutomaton
        recast = other(a.alphabet, a.n_states, a.initial, a.accepting, a.transitions)
        assert recast != a and a != recast
        # one accepting state more or less, or one move fewer
        flipped = frozenset({0}) ^ a.accepting
        assert replace(a, accepting=flipped) != a
        if a.transitions:
            fewer = a.transitions - {min(a.transitions)}
            assert replace(a, transitions=fewer) != a


def _cycle_word_by_replace(a, anchor, comp):
    """`omega._cycle_word` through the public constructor: the shortest words
    of the automaton cut down to the component's moves, started at `anchor`."""
    inside = frozenset(t for t in a.transitions if t[0] in comp and t[2] in comp)
    words = _shortest_words(replace(a, initial=frozenset({anchor}), transitions=inside))
    cycles = [words[q] + (sym,) for q, sym, dst in inside if dst == anchor]
    return min(cycles, key=lambda w: (len(w), w), default=None)


def test_cycle_words_equal_the_constructor_built_ones():
    rng = random.Random(55)
    checked = 0
    for alphabet in (AB, Alphabet.product(NT, NT)):
        for _ in range(30):
            w = union(*(random_layered_weak_dba(rng, alphabet, 3, 2) for _ in range(2)))
            for comp in w.sccs:
                for q in comp:
                    want = _cycle_word_by_replace(w, q, set(comp))
                    assert _cycle_word(w, q, set(comp)) == want
                    checked += want is not None
    assert checked


@pytest.mark.parametrize("bad", [-1, AB.size, AB.size + 7])
def test_explore_rejects_a_symbol_outside_the_alphabet(bad):
    def moves(node):
        if node < 2:
            yield 0, node + 1
        else:
            yield bad, 0

    with pytest.raises(InputError) as public:
        FiniteAutomaton(AB, 3, frozenset({0}), frozenset(), frozenset({(2, bad, 0)}))
    with pytest.raises(InputError) as explored:
        explore(FiniteAutomaton, AB, [0], moves, lambda node: True)
    assert str(explored.value) == str(public.value)


def _completion_by_replace(a):
    """`complete(a)` through the public constructor, from the transition set."""
    if a.is_complete:
        return a
    sink = a.n_states
    present = {(src, sym) for src, sym, _ in a.transitions}
    missing = frozenset(
        (q, sym, sink)
        for q in range(sink + 1)
        for sym in range(a.alphabet.size)
        if (q, sym) not in present
    )
    return replace(a, n_states=sink + 1, transitions=a.transitions | missing)


def test_complete_of_a_trusted_automaton_equals_the_replace_built_completion():
    completed = 0
    for op, _, a, _ in _construction_cases():
        expected = _completion_by_replace(a)
        got = complete(a)
        assert got == expected and type(got) is type(expected), op
        assert got.adjacency == replace(got).adjacency, op
        completed += got is not a
    assert completed


class _TrustedReferences(ast.NodeVisitor):
    """(module, innermost enclosing function) of every `._trusted` reference."""

    def __init__(self, module):
        self.module, self.functions, self.found = module, [], set()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == "_trusted":
            self.found.add((self.module, self.functions[-1] if self.functions else None))
        self.generic_visit(node)


def test_only_the_six_trusted_constructions_skip_validation():
    # `_trusted` skips every check of the public constructor; a new caller
    # must check what it builds itself and be added here on purpose
    found = set()
    for path in sorted(Path(rmckit.__file__).parent.glob("*.py")):
        visitor = _TrustedReferences(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found |= visitor.found
    assert found == {
        ("automata", "explore"),
        ("automata", "complete"),
        ("automata", "relabel"),
        ("automata", "union"),
        ("automata", "_determinize_subsets"),
        ("automata", "_reflag"),
    }


def _union_by_constructor(a, b):
    """`union(a, b)` through the public constructor, from the transition sets."""
    shift = a.n_states
    return type(a)(
        a.alphabet,
        a.n_states + b.n_states,
        a.initial | frozenset(q + shift for q in b.initial),
        a.accepting | frozenset(q + shift for q in b.accepting),
        a.transitions | frozenset((s + shift, sym, d + shift) for s, sym, d in b.transitions),
    )


def test_union_equals_the_constructor_built_union():
    rng = random.Random(71)
    for alphabet in (AB, Alphabet.product(NT, NT)):
        for _ in range(20):
            a, b = random_nfa(rng, alphabet), random_partial_dfa(rng, alphabet)
            # a complement shares the rows of a determinization
            for x, y in ((a, b), (b, a), (complement(a), b), (a, a)):
                got, expected = union(x, y), _union_by_constructor(x, y)
                assert got == expected and type(got) is type(expected)
                assert got.adjacency == expected.adjacency
            w1, w2 = random_weak_dba(rng, alphabet, 4), random_weak_dba(rng, alphabet, 4)
            got, expected = union(w1, w2), _union_by_constructor(w1, w2)
            assert got == expected and type(got) is OmegaAutomaton


# ---------------------------------------------------------------------------
# relabel: the one letter substitution

ABC = Alphabet.base(("a", "b", "c"))
FIVE = Alphabet.base(tuple(f"x{i}" for i in range(5)))
LETTER_MAPS = {
    # a permutation of ABC
    "one-to-one": (ABC, lambda s: ((s + 1) % 3,)),
    # c is read as a
    "many-to-one": (AB, lambda s: (s % 2,)),
    # a guesses one of two letters, b one of three, and c has no image
    "one-to-many": (FIVE, lambda s: [(0, 1), (2, 3, 4), ()][s]),
}


def _substituted(words, letters):
    """Every word that replaces each letter s of a word by one of letters(s)."""
    return {w2 for w in words for w2 in itertools.product(*(letters(s) for s in w))}


@pytest.mark.parametrize("kind", sorted(LETTER_MAPS))
def test_relabel_gives_the_substituted_words(kind):
    target, letters = LETTER_MAPS[kind]
    rng = random.Random(1414)
    for i in range(40):
        a = random_nfa(rng, ABC, 5)
        if i % 4 == 3:
            a = complement(a)  # rows shared with a determinization
        r = relabel(a, target, letters)
        assert type(r) is FiniteAutomaton and r.alphabet == target
        assert (r.n_states, r.initial, r.accepting) == (a.n_states, a.initial, a.accepting)
        expected = _substituted(enumerate_words(a, 4), letters)
        assert set(enumerate_words(r, 4)) == expected
        assert r.adjacency == replace(r).adjacency


def test_relabel_keeps_an_omega_automaton_one():
    rng = random.Random(1415)
    for _ in range(10):
        w = random_weak_dba(rng, ABC, 4)
        r = relabel(w, AB, lambda s: (s % 2,))
        assert type(r) is OmegaAutomaton
        assert (r.n_states, r.initial, r.accepting) == (w.n_states, w.initial, w.accepting)
        assert r.transitions == {(p, s % 2, q) for p, s, q in w.transitions}


@pytest.mark.parametrize("bad", [-1, AB.size, AB.size + 7])
def test_relabel_rejects_a_letter_outside_the_alphabet(bad):
    a = random_nfa(random.Random(3), ABC, 4)
    a = replace(a, transitions=a.transitions | {(0, 2, 0)})
    with pytest.raises(InputError, match=f"transition symbol {bad} not in alphabet"):
        relabel(a, AB, lambda s: (bad,) if s == 2 else (0,))
