"""Global system properties.

A state property is a regular set of state encodings; a global system
property constrains the infinite sequence of satisfied-property sets along
an execution.  Verification negates the property, augments the system so
that accepting executions of the augmented Buchi regular system are exactly
the violating executions of the original, and then checks emptiness by loop
detection: a nested fixpoint over sets of words in finite mode, where every
execution stays within one word length and so must repeat a configuration,
and the closure of the augmented relation in omega mode, where it need not.

The tool takes the negated property automaton directly; `negate_gsp` is
offered for the deterministic weak case only (complement by flip), since
general Buchi complementation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, minimize, project_components
from .errors import (
    AlphabetCapExceeded,
    AlphabetMismatch,
    IncompleteCopAutomaton,
    InputError,
    ModeMismatch,
    NonWeakResult,
)
from .omega import (
    OmegaAutomaton,
    _canon,
    _intersect,
    _is_empty,
    _map_letters,
    _member,
    _pick,
    _segments,
    _singleton,
    _union,
    complement_weak_dba,
    complete_omega,
    minimize_weak_dba,
    to_weak_dba,
)
from .system import (
    BuchiRegularSystem,
    LassoWitness,
    RegularSystem,
    Verdict,
    _backchain,
    _reach_layers,
    replay_lasso,
)
from .transducer import (
    FINITE,
    OMEGA,
    Transducer,
    accepts_pair,
    closure,
    identity,
    image,
    preimage,
)

MAX_COPS = 8


def cop_alphabet(n_props: int) -> Alphabet:
    """Alphabet of subset masks over the declared property list (bit i =
    property i in declaration order)."""
    if n_props > MAX_COPS:
        raise AlphabetCapExceeded(f"at most {MAX_COPS} state properties supported")
    return Alphabet.base(tuple(f"m{i}" for i in range(1 << n_props)))


@dataclass(frozen=True)
class CopSet:
    """Subset of the declared state properties, as a bitmask."""

    mask: int
    width: int

    def __post_init__(self):
        if not (0 <= self.mask < (1 << self.width)):
            raise InputError("mask out of range")

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if self.mask >> i & 1)

    def contains(self, i: int) -> bool:
        return bool(self.mask >> i & 1)


@dataclass(frozen=True)
class StateProperty:
    """Named regular set of state encodings, stored deterministic + complete."""

    name: str
    automaton: FiniteAutomaton


def state_property(name: str, automaton: FiniteAutomaton, mode: str = FINITE) -> StateProperty:
    if mode == OMEGA:
        if not isinstance(automaton, OmegaAutomaton):
            raise ModeMismatch("omega state property needs an omega automaton")
        return StateProperty(name, minimize_weak_dba(to_weak_dba(automaton)))
    if isinstance(automaton, OmegaAutomaton):
        raise ModeMismatch("finite state property needs a finite-word automaton")
    return StateProperty(name, minimize(automaton, completion=True))


def _check_cops(cops: Sequence[StateProperty], alphabet: Alphabet, mode: str) -> None:
    if len(cops) > MAX_COPS:
        raise AlphabetCapExceeded(f"at most {MAX_COPS} state properties supported")
    for cop in cops:
        a = cop.automaton
        if a.alphabet != alphabet:
            raise AlphabetMismatch(f"state property {cop.name!r} is over a different alphabet")
        if not (a.is_deterministic and a.is_complete):
            raise IncompleteCopAutomaton(
                f"state property {cop.name!r} must be deterministic and complete"
            )
        if mode == OMEGA and not a.is_weak:
            raise IncompleteCopAutomaton(
                f"omega state property {cop.name!r} must be weak"
            )


def cop_of(word, cops: Sequence[StateProperty]) -> CopSet:
    """Bit i set iff property i accepts the (finite or omega) word."""
    mask = 0
    for i, cop in enumerate(cops):
        if _member(cop.automaton, word):
            mask |= 1 << i
    return CopSet(mask, len(cops))


@dataclass(frozen=True)
class NegatedGsp:
    """Complete Buchi automaton over the mask alphabet for the negated property."""

    automaton: OmegaAutomaton
    n_props: int


def negated_gsp(automaton: OmegaAutomaton, n_props: int) -> NegatedGsp:
    if automaton.alphabet != cop_alphabet(n_props):
        raise AlphabetMismatch("negated property must be over the 2^COP mask alphabet")
    return NegatedGsp(complete_omega(automaton), n_props)


def negate_gsp(automaton: OmegaAutomaton, n_props: int) -> NegatedGsp:
    """Negation by acceptance flip; only weak deterministic properties qualify."""
    if automaton.alphabet != cop_alphabet(n_props):
        raise AlphabetMismatch("property must be over the 2^COP mask alphabet")
    return NegatedGsp(complement_weak_dba(automaton), n_props)


# ---------------------------------------------------------------------------
# augmented system construction


@dataclass(frozen=True)
class GspAugmentation:
    """Augmented Buchi regular system plus the data needed to decode letters."""

    msys: BuchiRegularSystem
    original: RegularSystem
    neg: NegatedGsp
    cops: tuple[StateProperty, ...]
    mode: str

    @property
    def alphabet(self) -> Alphabet:
        return self.msys.system.alphabet

    def _split(self, sym: int) -> tuple[int, int, int]:
        parts = self.alphabet.parts(sym)
        width = len(self.original.alphabet.components)
        return self.original.alphabet.symbol(parts[:width]), parts[-2], parts[-1]

    def sigma_word(self, word):
        """Projection of a (finite or omega) augmented word to the system's."""
        return _map_letters(word, lambda sym: self._split(sym)[0])

    def labels(self, word: Sequence[int]) -> list[tuple[int | None, int | None]]:
        """Per-position (negated-property state, cop mask); None encodes bot."""
        n_q = self.neg.automaton.n_states
        n_m = 1 << self.neg.n_props
        out = []
        for sym in word:
            _, q, m = self._split(sym)
            out.append((q if q < n_q else None, m if m < n_m else None))
        return out

    def word_label(self, word) -> tuple[tuple[int, int] | None, str]:
        """The (negated-property state, cop mask) label of a word, or None and
        what is wrong with its labels.

        A finite word is labelled on its last position only; an omega word
        carries one label uniformly on every position.
        """
        if self.mode == FINITE:
            lab = self.labels(word)
            if any(q is not None or m is not None for q, m in lab[:-1]):
                return None, "carries labels before the final position"
            if None in lab[-1]:
                return None, "lacks the final-position label"
            return lab[-1], ""
        lab = {self._split(sym)[1:] for part in _segments(word) for sym in part}
        if len(lab) != 1:
            return None, "is not uniformly labelled"
        return next(iter(lab)), ""


def _delta_map(a: FiniteAutomaton) -> dict[tuple[int, int], int]:
    """Deterministic transition function as a dict (automaton must be complete)."""
    return {
        (src, sym): dsts[0]
        for src, row in a.adjacency.items()
        for sym, dsts in row.items()
    }


def build_augmented_finite(
    m: RegularSystem, neg: NegatedGsp, cops: Sequence[StateProperty]
) -> GspAugmentation:
    """Finite-word augmentation: labels live on the last letter only.

    The relation transducer runs every property automaton on the input track,
    remembers with a final Boolean whether the labelled position was read,
    and on that position checks both the negated-property run step and that
    the claimed cop set matches the property automata verdicts.
    """
    if m.mode != FINITE:
        raise ModeMismatch("finite augmentation needs a finite-mode system")
    _check_cops(cops, m.alphabet, FINITE)
    if neg.n_props != len(cops):
        raise AlphabetMismatch("negated property arity does not match the cop list")
    nga = neg.automaton
    k = len(cops)
    n_masks = 1 << k
    bot_q, bot_m = nga.n_states, n_masks

    q_names = tuple(f"g{i}" for i in range(nga.n_states)) + ("bot",)
    m_names = tuple(f"m{i}" for i in range(n_masks)) + ("bot",)
    sigma_a = Alphabet.product(m.alphabet, Alphabet.base(q_names), Alphabet.base(m_names))

    def letter(a: int, q: int, mask: int) -> int:
        return (a * (nga.n_states + 1) + q) * (n_masks + 1) + mask

    base_size = m.alphabet.size
    pair_size = sigma_a.size
    deltas = [_delta_map(c.automaton) for c in cops]
    final_masks = [
        frozenset(c.automaton.accepting) for c in cops
    ]

    rel = m.relation.inner
    ids: dict[tuple, int] = {}
    order: list[tuple] = []
    q0cops = tuple(next(iter(c.automaton.initial)) for c in cops)
    for q in sorted(rel.initial):
        node = (q, q0cops, 0)
        ids[node] = len(order)
        order.append(node)
    transitions: set[tuple[int, int, int]] = set()
    i = 0
    while i < len(order):
        q_r, qcops, _b = order[i]
        i += 1
        src = ids[(q_r, qcops, _b)]
        for pair_sym, dsts in rel.adjacency.get(q_r, {}).items():
            a1, a2 = divmod(pair_sym, base_size)
            qcops2 = tuple(deltas[j][(qcops[j], a1)] for j in range(k))
            for q_r2 in dsts:
                for node, lp in _aug_moves(
                    q_r2, qcops2, a1, a2, nga, final_masks, bot_q, bot_m, letter,
                    pair_size,
                ):
                    if node not in ids:
                        ids[node] = len(order)
                        order.append(node)
                    transitions.add((src, lp, ids[node]))
    accepting = frozenset(
        ids[n] for n in order if n[0] in rel.accepting and n[2] == 1
    )
    t_aug = Transducer(
        FiniteAutomaton(
            Alphabet.product(sigma_a, sigma_a),
            max(len(order), 1),
            frozenset(ids[(q, q0cops, 0)] for q in rel.initial),
            accepting,
            frozenset(transitions),
        )
    )

    init = _augment_initial_finite(m.initial, nga, n_masks, letter, bot_q, bot_m, sigma_a)
    acc = _gsp_acceptance_finite(m.alphabet, nga, n_masks, letter, bot_q, bot_m, sigma_a)
    aug_system = RegularSystem(sigma_a, init, t_aug, FINITE)
    return GspAugmentation(
        BuchiRegularSystem(aug_system, acc), m, neg, tuple(cops), FINITE
    )


def _aug_moves(q_r2, qcops2, a1, a2, nga, final_masks, bot_q, bot_m, letter, pair_size):
    """Letter pairs allowed for one underlying relation move.

    A position is labelled on the output iff it is labelled on the input, so
    execution words keep the bot*(label) shape of the initial set.  On the
    labelled position the input mask is forced to the property verdicts for
    the word read so far, and the output state must extend the
    negated-property run on that mask.
    """
    yield (
        (q_r2, qcops2, 0),
        letter(a1, bot_q, bot_m) * pair_size + letter(a2, bot_q, bot_m),
    )
    mask = 0
    for j, acc in enumerate(final_masks):
        if qcops2[j] in acc:
            mask |= 1 << j
    for alpha1 in range(nga.n_states):
        for alpha2 in nga.adjacency.get(alpha1, {}).get(mask, ()):
            for mask2 in range(bot_m):
                yield (
                    (q_r2, qcops2, 1),
                    letter(a1, alpha1, mask) * pair_size + letter(a2, alpha2, mask2),
                )


def _augment_initial_finite(initial, nga, n_masks, letter, bot_q, bot_m, sigma_a):
    """Words of the initial set, labelled (q0, any mask) on the last letter.

    Two copies of the initial-set automaton: the first reads bot-labelled
    letters, the second is entered by reading the single labelled letter and
    has no outgoing moves, which pins the label to the final position.
    """
    n = initial.n_states
    out = set()
    for src, a, dst in initial.transitions:
        out.add((src, letter(a, bot_q, bot_m), dst))
        for q0 in nga.initial:
            for mask in range(n_masks):
                out.add((src, letter(a, q0, mask), dst + n))
    return FiniteAutomaton(
        sigma_a,
        2 * n,
        frozenset(initial.initial),
        frozenset(q + n for q in initial.accepting),
        frozenset(out),
    )


def _gsp_acceptance_finite(base, nga, n_masks, letter, bot_q, bot_m, sigma_a):
    """(bot-labelled letters)* followed by one letter labelled with an
    accepting negated-property state."""
    transitions = set()
    for a in base.symbols():
        transitions.add((0, letter(a, bot_q, bot_m), 0))
        for f in nga.accepting:
            for mask in range(n_masks):
                transitions.add((0, letter(a, f, mask), 1))
    return FiniteAutomaton(sigma_a, 2, frozenset({0}), frozenset({1}), frozenset(transitions))


def build_augmented_omega(
    m: RegularSystem, neg: NegatedGsp, cops: Sequence[StateProperty]
) -> GspAugmentation:
    """Omega augmentation: the (state, cop set) labels sit on every position.

    The transducer pins the input word's uniform label pair in its state, so
    non-uniformly labelled words have no successors and die out of every
    infinite execution; the per-position step checks the negated-property
    run.  With weak deterministic inputs the result stays weak.
    """
    if m.mode != OMEGA:
        raise ModeMismatch("omega augmentation needs an omega-mode system")
    _check_cops(cops, m.alphabet, OMEGA)
    if neg.n_props != len(cops):
        raise AlphabetMismatch("negated property arity does not match the cop list")
    nga = neg.automaton
    k = len(cops)
    n_masks = 1 << k
    n_q = nga.n_states

    q_names = tuple(f"g{i}" for i in range(n_q))
    m_names = tuple(f"m{i}" for i in range(n_masks))
    sigma_a = Alphabet.product(m.alphabet, Alphabet.base(q_names), Alphabet.base(m_names))

    def letter(a: int, q: int, mask: int) -> int:
        return (a * n_q + q) * n_masks + mask

    pair_size = sigma_a.size
    base_size = m.alphabet.size
    deltas = [_delta_map(complete_omega(c.automaton)) for c in cops]
    rel = m.relation.inner

    ids: dict[tuple, int] = {}
    order: list[tuple] = []
    q0cops = tuple(next(iter(c.automaton.initial)) for c in cops)
    for q in sorted(rel.initial):
        for alpha in range(n_q):
            for lam in range(n_masks):
                node = (q, q0cops, alpha, lam)
                if node not in ids:
                    ids[node] = len(order)
                    order.append(node)
    transitions: set[tuple[int, int, int]] = set()
    i = 0
    while i < len(order):
        q_r, qcops, alpha, lam = order[i]
        i += 1
        src = ids[(q_r, qcops, alpha, lam)]
        succ_alpha = nga.adjacency.get(alpha, {}).get(lam, ())
        for pair_sym, dsts in rel.adjacency.get(q_r, {}).items():
            a1, a2 = divmod(pair_sym, base_size)
            qcops2 = tuple(deltas[j][(qcops[j], a1)] for j in range(k))
            for q_r2 in dsts:
                node = (q_r2, qcops2, alpha, lam)
                if node not in ids:
                    ids[node] = len(order)
                    order.append(node)
                for alpha2 in succ_alpha:
                    for lam2 in range(n_masks):
                        lp = letter(a1, alpha, lam) * pair_size + letter(a2, alpha2, lam2)
                        transitions.add((src, lp, ids[node]))

    def node_accepting(node) -> bool:
        q_r, qcops, _alpha, lam = node
        if q_r not in rel.accepting:
            return False
        return all(
            (qcops[j] in cops[j].automaton.accepting) == bool(lam >> j & 1)
            for j in range(k)
        )

    t_aug = Transducer(
        OmegaAutomaton(
            Alphabet.product(sigma_a, sigma_a),
            max(len(order), 1),
            frozenset(ids[n] for n in order if n[0] in rel.initial and n[1] == q0cops),
            frozenset(ids[n] for n in order if node_accepting(n)),
            frozenset(transitions),
        )
    )

    init = _augment_initial_omega(m.initial, nga, n_masks, letter, sigma_a)
    acc = _gsp_acceptance_omega(m.alphabet, nga, n_masks, letter, sigma_a)
    aug_system = RegularSystem(sigma_a, init, t_aug, OMEGA)
    return GspAugmentation(
        BuchiRegularSystem(aug_system, acc), m, neg, tuple(cops), OMEGA
    )


def _augment_initial_omega(initial, nga, n_masks, letter, sigma_a):
    """Initial words carry a uniform (initial negated-property state, mask)."""
    n = initial.n_states
    combos = [(q0, lam) for q0 in sorted(nga.initial) for lam in range(n_masks)]
    transitions = set()
    for ci, (q0, lam) in enumerate(combos):
        shift = ci * n
        for src, sym, dst in initial.transitions:
            transitions.add((src + shift, letter(sym, q0, lam), dst + shift))
    accepting = frozenset(
        q + ci * n for ci in range(len(combos)) for q in initial.accepting
    )
    initial_states = frozenset(
        q + ci * n for ci in range(len(combos)) for q in initial.initial
    )
    return OmegaAutomaton(
        sigma_a, n * max(len(combos), 1), initial_states, accepting, frozenset(transitions)
    )


def _gsp_acceptance_omega(base, nga, n_masks, letter, sigma_a):
    """Uniformly labelled words whose label state is accepting for the
    negated property."""
    combos = [(q, lam) for q in sorted(nga.accepting) for lam in range(n_masks)]
    transitions = set()
    for ci, (q, lam) in enumerate(combos):
        for a in base.symbols():
            transitions.add((0, letter(a, q, lam), 1 + ci))
            transitions.add((1 + ci, letter(a, q, lam), 1 + ci))
    return OmegaAutomaton(
        sigma_a,
        1 + max(len(combos), 1),
        frozenset({0}),
        frozenset(range(1, 1 + len(combos))),
        frozenset(transitions),
    )


# ---------------------------------------------------------------------------
# loop-detection emptiness


def _loopable_from_plus(msys: BuchiRegularSystem, plus):
    """Automaton for words w with (w, w) in the given strict closure."""
    tid = identity(msys.system.alphabet, msys.system.mode)
    width = len(msys.system.alphabet.components)
    cross = _intersect(plus.relation.inner, tid.inner)
    return _canon(project_components(cross, range(width, 2 * width)))


def check_emptiness_loop(msys: BuchiRegularSystem, budget: int = 64) -> Verdict:
    """Loop-detection emptiness of a Buchi regular system.

    The system is nonempty iff some reachable accepting word lies on a
    cycle.  Finite mode decides this with a nested fixpoint over sets of
    words (configurations of one length must repeat); omega mode, where they
    need not, uses the closure of the relation.  `holds` needs every
    fixpoint to have converged within `budget`; a violation is reported only
    with a replayed lasso, whether or not they converged.
    """
    if msys.system.mode == OMEGA:
        return _closure_emptiness(msys, budget)
    return _nested_emptiness(msys, budget)


def _nested_emptiness(msys: BuchiRegularSystem, budget: int) -> Verdict:
    """Emerson-Lei fixpoint: the accepting reachable words that reach the
    set again in one or more steps, iterated down to the greatest such set.
    Its limit is nonempty iff an accepting lasso exists."""
    m = msys.system
    layers, reach, reach_conv, reach_steps = _reach_layers(m, budget)
    fair = _canon(_intersect(reach, msys.acceptance))
    if reach_conv and _is_empty(fair):
        return Verdict.holds(reach_steps=reach_steps, nested_rounds=0, converged=True)
    reason = None if reach_conv else "reachability"
    rounds = 0
    for rounds in range(1, budget + 1):
        back, back_conv = _pre_plus(m, reach, fair, budget)
        if not back_conv:
            reason = "backward reachability"
        nxt = _canon(_intersect(fair, back))
        if nxt == fair:
            break
        fair = nxt
    else:
        reason = reason or "nested"
    diag = {"reach_steps": reach_steps, "nested_rounds": rounds, "converged": reason is None}
    if _is_empty(fair):
        if reason is None:
            return Verdict.holds(**diag)
        return Verdict.unknown(f"budget exhausted before the {reason} fixpoint converged", **diag)
    witness = _fair_lasso(m, layers, reach, fair, budget)
    if witness is None:
        return Verdict.unknown("accepting cycle set nonempty but no lasso found in bound", **diag)
    ok, why = replay_lasso(msys, witness)
    if not ok:
        raise InputError(f"extracted witness failed replay: {why} (bug)")
    return Verdict.violated(witness, **diag)


def _pre_plus(m: RegularSystem, reach, target, budget: int):
    """Words of `reach` with a path of one or more steps into `target`, and
    whether the backward fixpoint converged within `budget` steps."""
    back = _canon(_intersect(reach, preimage(m.relation, target)))
    for _ in range(budget):
        nxt = _canon(_union(back, _intersect(reach, preimage(m.relation, back))))
        if nxt == back:
            return back, True
        back = nxt
    return back, False


def _fair_lasso(m: RegularSystem, layers, reach, fair, budget: int):
    """Lasso through an element of `fair` that returns to `fair`.

    Walks from fair word to fair word (each hop is the first image of the
    current word within `reach` that meets `fair`) until a word repeats; the
    repeated word lies on a cycle no longer than the walk between its visits.
    """
    word = _pick(fair)
    seen: dict = {}
    walked = 0
    while word not in seen:
        if len(seen) >= budget:
            return None
        seen[word] = walked
        front = _singleton(m.alphabet, word)
        for hop in range(1, budget + 1):
            front = _canon(_intersect(reach, image(m.relation, front)))
            word = _pick(_intersect(front, fair))
            if word is not None:
                break
        else:
            return None
        walked += hop
    return _extract_lasso(m, layers, word, walked - seen[word])


def _closure_emptiness(msys: BuchiRegularSystem, budget: int) -> Verdict:
    """Reachable cap acceptance cap self-loopable under the closure T+."""
    m = msys.system
    try:
        layers, reach, reach_conv, reach_steps = _reach_layers(m, budget)
        accepting_reach = _intersect(reach, msys.acceptance)
        if reach_conv and _is_empty(accepting_reach):
            # no accepting state is reachable at all; the loop formula is
            # empty regardless of the closure
            return Verdict.holds(reach_steps=reach_steps, converged=True)
        plus = closure(m.relation, "plus", budget)
        loopable = _loopable_from_plus(msys, plus)
        anchor = _pick(_intersect(accepting_reach, loopable))
    except NonWeakResult as e:
        return Verdict.unknown(f"weak representability lost: {e}")
    diag = {
        "reach_steps": reach_steps,
        "closure_steps": plus.steps_used,
        "converged": reach_conv and plus.converged,
    }
    if anchor is None:
        if reach_conv and plus.converged:
            return Verdict.holds(**diag)
        return Verdict.unknown("budget exhausted before closure convergence", **diag)
    try:
        witness = _extract_lasso(m, layers, anchor, plus.steps_used + 1)
    except NonWeakResult as e:
        return Verdict.unknown(
            f"violation detected but witness extraction lost weakness: {e}", **diag
        )
    if witness is None:
        return Verdict.unknown(
            "loop formula nonempty but no concrete lasso found in bound", **diag
        )
    ok, why = replay_lasso(msys, witness)
    if not ok:
        raise InputError(f"extracted witness failed replay: {why} (bug)")
    return Verdict.violated(witness, **diag)


def _extract_lasso(m: RegularSystem, layers, anchor, cycle_bound: int):
    """Concrete lasso through `anchor`: initial path plus a strict cycle."""
    j = next((i for i, lay in enumerate(layers) if _member(lay, anchor)), None)
    if j is None:
        return None
    prefix_words = _backchain(m, layers, j, anchor)
    # shortest strict cycle anchor -> anchor, via per-step singleton images
    y = [_canon(_singleton(m.alphabet, anchor))]
    hit = None
    for i in range(1, cycle_bound + 1):
        y.append(_canon(image(m.relation, y[-1])))
        if _member(y[-1], anchor):
            hit = i
            break
    if hit is None:
        return None
    loop_words = [anchor]
    for i in range(hit - 1, 0, -1):
        back = _intersect(y[i], preimage(m.relation, _singleton(m.alphabet, loop_words[0])))
        w = _pick(back)
        if w is None:
            return None
        loop_words.insert(0, w)
    # loop_words is now u_1 .. u_{hit-1}, anchor: the strict cycle body
    words = tuple(prefix_words) + tuple(loop_words[:-1])
    return LassoWitness(words, loop_start=j)


# ---------------------------------------------------------------------------
# witness replay against the construction


def replay_gsp_witness(aug: GspAugmentation, witness: LassoWitness) -> tuple[bool, str]:
    """Full fidelity replay: the projection is an execution of the original
    system, the claimed cop sets match the property automata, and the label
    states drive the negated-property automaton through an accepting run."""
    ok, why = replay_lasso(aug.msys, witness)
    if not ok:
        return False, why
    m = aug.original
    words = list(witness.words)
    ring = words + [words[witness.loop_start]]
    sigma = [aug.sigma_word(w) for w in ring]
    if not _member(m.initial, sigma[0]):
        return False, "projected first word is not initial in the original system"
    for i in range(len(ring) - 1):
        if not accepts_pair(m.relation, sigma[i], sigma[i + 1]):
            return False, f"projected step {i} not in the original relation"
    chain = []
    for i, w in enumerate(ring):
        label, problem = aug.word_label(w)
        if label is None:
            return False, f"word {i} {problem}"
        if label[1] != cop_of(sigma[i], aug.cops).mask:
            return False, f"word {i} claims a cop set differing from the automata verdicts"
        chain.append(label)
    nga = aug.neg.automaton
    if chain[0][0] not in nga.initial:
        return False, "label chain does not start in an initial negated-property state"
    for i in range(len(chain) - 1):
        q, mask = chain[i]
        if chain[i + 1][0] not in nga.adjacency.get(q, {}).get(mask, ()):
            return False, f"label chain breaks the negated-property run at step {i}"
    loop_states = [chain[i][0] for i in range(witness.loop_start, len(words))]
    if not any(q in nga.accepting for q in loop_states):
        return False, "loop never visits an accepting negated-property state"
    return True, "ok"
