"""Global system properties.

A state property is a regular set of state encodings; a global system
property constrains the infinite sequence of satisfied-property sets along
an execution.  Verification negates the property, augments the system so
that accepting executions of the augmented Buchi regular system are exactly
the violating executions of the original, and then checks emptiness with
one engine in both modes: a nested (Emerson-Lei) fixpoint over sets of
words.  With R the reachable words and Acc the accepting ones, it computes
the greatest set F inside R cap Acc with F within pre+(F), the words that
reach F again in one or more steps, as the limit of F_0 = R cap Acc and
F_{i+1} = F_i cap pre+(F_i).  R, each pre+ and the rounds F_i are runs of
the fixpoint driver `omega._fixpoint`.

Both modes share one augmentation skeleton, `_augmented`, and differ only
in their label discipline.  The augmented relation is one reachable product
of the system's relation with the cop automata run on its input track; a
mode says how a relation move is labelled (`step`) and which nodes accept
(`final`).  Each mode has one label shape, `shape(states)`: the labelled
words whose negated-property state lies in `states` (on the last letter in
finite mode, on every letter in omega mode).  The augmented initial set is
`_labelled_initial`, the initial words with each letter given every label
the shape of the initial states reads with it, cut down to that shape; LOSP
builds its initial set through it too.  The acceptance is the label shape
of the accepting states.  `_Augmentation` is the record GSP and LOSP
augmentations share, and `_projected_ring` the prologue both witness
replays open with.

Verdicts of the loop engine, in finite and omega mode alike: `holds`,
`violated` or `unknown`.  `holds` needs no configuration to repeat.  The
accepting configurations of any accepting execution lie in R cap Acc, and
each reaches another in one or more steps, so together they form a
post-fixpoint of F -> F cap pre+(F) and stay inside every F_i.  When the
reach, pre+ and nested fixpoints converge they are exact, so an empty limit
proves that no accepting execution exists.  That holds even in omega mode,
where an execution of unbounded configurations may never repeat one.
`violated` comes only with a replayed lasso; in omega mode a nonempty limit
without a lasso in bound gives `unknown`.

The tool takes the negated property automaton directly; `negate_gsp` is
offered for the deterministic weak case only (complement by flip), since
general Buchi complementation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, complete, determinize, explore, minimize, relabel
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
    _fixpoint,
    _intersect,
    _is_empty,
    _Lengths,
    _map_letters,
    _member,
    _pick,
    _segments,
    _singleton,
    complement_weak_dba,
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
    _run_fault,
    replay_lasso,
)
from .transducer import FINITE, OMEGA, Transducer, image, preimage

MAX_PROPS = 8


def _mask_alphabet(n_props: int, what: str, bot: tuple[str, ...] = ()) -> Alphabet:
    """Masks m0 .. m(2^n - 1) of the n declared `what` (bit i = property i), then `bot`."""
    if n_props > MAX_PROPS:
        raise AlphabetCapExceeded(f"at most {MAX_PROPS} {what} supported")
    return Alphabet.base(tuple(f"m{i}" for i in range(1 << n_props)) + bot)


def cop_alphabet(n_props: int) -> Alphabet:
    """Mask alphabet over the declared state properties."""
    return _mask_alphabet(n_props, "state properties")


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


@dataclass(frozen=True)
class StateProperty:
    """Named regular set of state encodings, stored deterministic + complete."""

    name: str
    automaton: FiniteAutomaton


def state_property(name: str, automaton: FiniteAutomaton) -> StateProperty:
    """A property of omega words if `automaton` is Buchi, of finite words
    otherwise, stored in the complete minimal form `_check_cops` needs."""
    if not isinstance(automaton, FiniteAutomaton):
        raise ModeMismatch(f"state property {name!r} needs a finite-word or Buchi automaton")
    if isinstance(automaton, OmegaAutomaton):
        return StateProperty(name, minimize_weak_dba(to_weak_dba(automaton)))
    return StateProperty(name, determinize(minimize(automaton)))


def _check_cops(cops: Sequence[StateProperty], alphabet: Alphabet, mode: str) -> None:
    """Each cop automaton reads `mode`'s words over `alphabet`, is weak in
    omega mode, and is deterministic and complete; `cop_alphabet` refuses
    too many."""
    cop_alphabet(len(cops))
    for cop in cops:
        a = cop.automaton
        if isinstance(a, OmegaAutomaton) != (mode == OMEGA):
            raise ModeMismatch(f"state property {cop.name!r} must read {mode} words")
        if a.alphabet != alphabet:
            raise AlphabetMismatch(f"state property {cop.name!r} is over a different alphabet")
        if mode == OMEGA and not a.is_weak:
            raise IncompleteCopAutomaton(f"omega state property {cop.name!r} must be weak")
        if not (a.is_deterministic and a.is_complete):
            raise IncompleteCopAutomaton(
                f"state property {cop.name!r} must be deterministic and complete"
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
    if not isinstance(automaton, OmegaAutomaton):
        raise ModeMismatch("negated gsp must be a Buchi automaton")
    if automaton.alphabet != cop_alphabet(n_props):
        raise AlphabetMismatch("negated property must be over the 2^COP mask alphabet")
    return NegatedGsp(complete(automaton), n_props)


def negate_gsp(automaton: OmegaAutomaton, n_props: int) -> NegatedGsp:
    """Negation by acceptance flip; only weak deterministic properties qualify."""
    if not isinstance(automaton, OmegaAutomaton):
        raise ModeMismatch("gsp property must be a Buchi automaton")
    if automaton.alphabet != cop_alphabet(n_props):
        raise AlphabetMismatch("property must be over the 2^COP mask alphabet")
    return NegatedGsp(complement_weak_dba(automaton), n_props)


# ---------------------------------------------------------------------------
# augmented system construction


@dataclass(frozen=True)
class _Augmentation:
    """An augmented Buchi regular system over letters whose most significant
    component is a letter of the original system."""

    msys: BuchiRegularSystem
    original: RegularSystem

    @property
    def alphabet(self) -> Alphabet:
        return self.msys.system.alphabet

    def sigma_word(self, word):
        """Projection of a (finite or omega) augmented word to the system's."""
        radix = self.alphabet.size // self.original.alphabet.size
        return _map_letters(word, lambda sym: sym // radix)


def _projected_ring(aug: _Augmentation, witness: LassoWitness):
    """(ring, its projection, fault): the witness words closed by the loop
    word and projected to the original system, with why they are not an
    augmented lasso or not a run of the original system, or None."""
    ok, why = replay_lasso(aug.msys, witness)
    if not ok:
        return None, None, why
    words = list(witness.words)
    ring = words + [words[witness.loop_start]]
    sigma = [aug.sigma_word(w) for w in ring]
    return ring, sigma, _run_fault(aug.original, sigma, projected=True)


@dataclass(frozen=True)
class GspAugmentation(_Augmentation):
    """Augmented Buchi regular system plus the data needed to decode letters."""

    neg: NegatedGsp
    cops: tuple[StateProperty, ...]

    def _split(self, sym: int) -> tuple[int, int, int]:
        parts = self.alphabet.parts(sym)
        width = len(self.original.alphabet.components)
        return self.original.alphabet.symbol(parts[:width]), parts[-2], parts[-1]

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
        if self.original.mode == FINITE:
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


def _labelled_initial(initial: FiniteAutomaton, sigma_a: Alphabet, shape) -> FiniteAutomaton:
    """The initial words with each letter given every label `shape` reads
    with it, cut down to `shape`.  The base letter is the most significant
    component of `sigma_a`."""
    radix = sigma_a.size // initial.alphabet.size
    labels: dict[int, set[int]] = {}  # base letter -> its letters the shape reads
    for row in shape.adjacency.values():
        for sym in row:
            labels.setdefault(sym // radix, set()).add(sym)
    return _intersect(relabel(initial, sigma_a, lambda a: sorted(labels.get(a, ()))), shape)


def _label_alphabet(m: RegularSystem, neg: NegatedGsp, cops, bot: tuple[str, ...]):
    """Once the cop automata are checked: Sigma x (negated-property states)
    x (cop masks), each label component extended by `bot`, and its
    letter(a, q, mask) encoder."""
    if neg.n_props != len(cops):
        raise AlphabetMismatch("negated property arity does not match the cop list")
    _check_cops(cops, m.alphabet, m.mode)
    q_names = tuple(f"g{i}" for i in range(neg.automaton.n_states)) + bot
    masks = _mask_alphabet(len(cops), "state properties", bot)
    sigma_a = Alphabet.product(m.alphabet, Alphabet.base(q_names), masks)

    def letter(a: int, q: int, mask: int) -> int:
        return (a * len(q_names) + q) * masks.size + mask

    return sigma_a, letter


def _verdicts(cops, qcops) -> int:
    """The cop mask of the property automata states `qcops`."""
    return sum(1 << j for j, q in enumerate(qcops) if q in cops[j].automaton.accepting)


def _augmented(m, neg, cops, sigma_a, labels, step, final, shape) -> GspAugmentation:
    """The augmentation over `sigma_a` whose relation labels the system's.

    A relation node is (relation state, cop automata states, *label), from
    every label tuple of `labels`, which no move changes; a relation move on
    (a1, a2) makes the letter pairs of `step(label, a1, a2, cop states after
    a1)`, and a node accepts when its relation state does and `final(cop
    states, label)` holds.  `shape(states)` is the set of labelled words
    whose label state lies in `states`: the initial set is cut down to
    `shape(initial states)`, and the acceptance is `shape(accepting states)`.
    """
    rel = m.relation.inner
    base_size = m.alphabet.size
    deltas = [c.automaton.adjacency for c in cops]  # complete and deterministic

    def moves(node):
        q_r, qcops, label = node[0], node[1], node[2:]
        for pair_sym, dsts in sorted(rel.adjacency.get(q_r, {}).items()):
            a1, a2 = divmod(pair_sym, base_size)
            qcops2 = tuple(delta[q][a1][0] for delta, q in zip(deltas, qcops))
            pairs = list(step(label, a1, a2, qcops2))
            for q_r2 in dsts:
                for pair in pairs:
                    yield pair, (q_r2, qcops2, *label)

    q0cops = tuple(next(iter(c.automaton.initial)) for c in cops)
    t_aug = Transducer(
        explore(
            type(rel),
            Alphabet.product(sigma_a, sigma_a),
            [(q, q0cops, *label) for q in sorted(rel.initial) for label in labels],
            moves,
            lambda node: node[0] in rel.accepting and final(node[1], node[2:]),
        )
    )
    nga = neg.automaton
    init = _labelled_initial(m.initial, sigma_a, shape(nga.initial))
    msys = BuchiRegularSystem(RegularSystem(init, t_aug), shape(nga.accepting))
    return GspAugmentation(msys, m, neg, tuple(cops))


def build_augmented_finite(
    m: RegularSystem, neg: NegatedGsp, cops: Sequence[StateProperty]
) -> GspAugmentation:
    """Finite-word augmentation: labels live on the last letter only.

    The relation runs every property automaton on the input track and, on
    the labelled position, which the initial set puts last, checks both the
    negated-property run step and the claimed cop set against the verdicts.
    """
    if m.mode != FINITE:
        raise ModeMismatch("finite augmentation needs a finite-mode system")
    sigma_a, letter = _label_alphabet(m, neg, cops, ("bot",))
    nga = neg.automaton
    n_masks = 1 << len(cops)
    bot_q, bot_m = nga.n_states, n_masks
    pair_size = sigma_a.size

    def step(_label, a1, a2, qcops2):
        """A position is labelled on the output iff it is labelled on the
        input, so execution words keep the bot*(label) shape of the initial
        set.  On the labelled position the input mask is forced to the
        property verdicts for the word read so far, and the output state
        must extend the negated-property run on that mask."""
        yield letter(a1, bot_q, bot_m) * pair_size + letter(a2, bot_q, bot_m)
        mask = _verdicts(cops, qcops2)
        for alpha1 in range(nga.n_states):
            l1 = letter(a1, alpha1, mask) * pair_size
            for alpha2 in nga.adjacency.get(alpha1, {}).get(mask, ()):
                for mask2 in range(n_masks):
                    yield l1 + letter(a2, alpha2, mask2)

    def shape(states) -> FiniteAutomaton:
        """(bot-labelled letters)* followed by one letter labelled with a
        negated-property state in `states` and any mask."""
        finals = sorted(states)

        def moves(node):
            if node == 0:
                for a in m.alphabet.symbols():
                    yield letter(a, bot_q, bot_m), 0
                    for f in finals:
                        for mask in range(n_masks):
                            yield letter(a, f, mask), 1

        return explore(FiniteAutomaton, sigma_a, [0], moves, lambda node: node == 1)

    return _augmented(m, neg, cops, sigma_a, [()], step, lambda _qcops, _label: True, shape)


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
    sigma_a, letter = _label_alphabet(m, neg, cops, ())
    nga = neg.automaton
    n_masks = 1 << len(cops)
    pair_size = sigma_a.size
    pinned = [(alpha, lam) for alpha in range(nga.n_states) for lam in range(n_masks)]

    def step(label, a1, a2, _qcops2):
        """The pinned input label stays; the output label extends the
        negated-property run on the pinned mask."""
        alpha, lam = label
        l1 = letter(a1, alpha, lam) * pair_size
        for alpha2 in nga.adjacency.get(alpha, {}).get(lam, ()):
            for lam2 in range(n_masks):
                yield l1 + letter(a2, alpha2, lam2)

    def shape(states) -> OmegaAutomaton:
        """Words labelled uniformly with one (negated-property state in
        `states`, mask) pair."""
        combos = [(q, lam) for q in sorted(states) for lam in range(n_masks)]

        # node 0 picks a combo, node 1 + ci keeps combo ci
        def moves(node):
            for ci in range(len(combos)) if node == 0 else (node - 1,):
                q, lam = combos[ci]
                for a in m.alphabet.symbols():
                    yield letter(a, q, lam), 1 + ci

        return explore(OmegaAutomaton, sigma_a, [0], moves, lambda node: node > 0)

    return _augmented(
        m, neg, cops, sigma_a, pinned, step,
        lambda qcops, label: _verdicts(cops, qcops) == label[1], shape,
    )


# ---------------------------------------------------------------------------
# loop-detection emptiness


def check_emptiness_loop(
    msys: BuchiRegularSystem, budget: int = 64, lengths: range | None = None
) -> Verdict | dict[int, Verdict]:
    """Loop-detection emptiness of a Buchi regular system, in either mode.

    `holds` needs the reach, pre+ and nested fixpoints to have converged
    within `budget` with an empty limit; a violation is reported only with a
    replayed lasso, whether or not they converged.  A nonempty limit with no
    lasso in bound gives `unknown`: in omega mode an accepting execution need
    not repeat a configuration, so it may have no lasso at all.  An omega
    operation that leaves the weak automata gives `unknown` too.  Given
    `lengths`, those the initial set was cut to, the result is a verdict per
    length, each the one its slice's own run gives.
    """
    keys = _Lengths(lengths)
    try:
        verdicts = _nested_emptiness(msys, budget, keys)
    except NonWeakResult as e:
        verdicts = {key: Verdict.unknown(f"weak representability lost: {e}") for key in keys.keys}
    return verdicts if lengths is not None else verdicts[None]


def _nested_emptiness(msys: BuchiRegularSystem, budget: int, keys: _Lengths) -> dict:
    """Emerson-Lei fixpoint: the accepting reachable words that reach the
    set again in one or more steps, iterated down to the greatest such set;
    a verdict per key of `keys`.

    The accepting configurations of an accepting execution each reach
    another in one or more steps, so they stay inside every iterate, whether
    or not any of them repeats; a converged empty limit therefore proves
    emptiness in omega mode as well as in finite mode.  In finite mode a
    nonempty limit means an accepting lasso exists, since configurations of
    one length must repeat; in omega mode it need not.
    """
    m = msys.system
    layers, reach, ends = _reach_layers(m, budget, keys=keys)
    fair = _canon(_intersect(reach, msys.acceptance))
    live = set(keys.keys)
    reasons = {key: None if conv else "reachability" for key, (conv, _, _) in ends.items()}
    # a key whose reach converged without an accepting word is done at round 0
    converged = {key for key in live if ends[key][0]}
    done = converged - keys.of(fair, live) if converged else set()
    nested = dict.fromkeys(done, (True, 0, fair))
    fair = keys.decide(done, live, fair)

    def rounds(fair: FiniteAutomaton, _) -> FiniteAutomaton:
        back, open_keys = _pre_plus(m, reach, fair, budget, keys, live)
        reasons.update(dict.fromkeys(open_keys, "backward reachability"))
        return _canon(_intersect(fair, back))

    nested.update(_fixpoint(fair, rounds, budget, keys, live)[1])
    verdicts = {}
    for key in keys.keys:
        converged, r, limit = nested[key]
        reason = reasons[key] or (None if converged else "nested")
        diag = {"reach_steps": ends[key][1], "nested_rounds": r, "converged": reason is None}
        part = keys.part(limit, key)
        verdicts[key] = _limit_verdict(msys, layers, reach, part, reason, budget, diag)
    return verdicts


def _limit_verdict(msys, layers, reach, fair, reason, budget: int, diag: dict) -> Verdict:
    """The verdict of one key whose nested limit is `fair`; `reason` names
    the fixpoint that did not converge, if one did not."""
    m = msys.system
    if _is_empty(fair):
        if reason is None:
            return Verdict.holds(**diag)
        return Verdict.exhausted(reason, **diag)
    witness = _fair_lasso(m, layers, reach, fair, budget)
    if witness is None:
        why = "accepting cycle set nonempty but no lasso found in bound"
        if m.mode == OMEGA:
            why += "; omega executions need not repeat a configuration"
            if reason is not None:
                why += f", and the {reason} fixpoint did not converge"
        return Verdict.unknown(why, **diag)
    ok, why = replay_lasso(msys, witness)
    if not ok:
        raise InputError(f"extracted witness failed replay: {why} (bug)")
    return Verdict.violated(witness, **diag)


def _pre_plus(m: RegularSystem, reach, target, budget: int, keys: _Lengths, live: set):
    """Words of `reach` with a path of one or more steps into `target`, and
    the keys of `live` whose backward fixpoint did not converge within
    `budget` steps."""
    back, ends = _fixpoint(
        _canon(preimage(m.relation, target, within=reach)),
        lambda back, _: preimage(m.relation, back, within=reach),
        budget, keys, set(live), grow=True, cut=False,
    )
    return back, {key for key, (converged, _, _) in ends.items() if not converged}


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
            front = _canon(image(m.relation, front, within=reach))
            word = _pick(_intersect(front, fair))
            if word is not None:
                break
        else:
            return None
        walked += hop
    return _extract_lasso(m, layers, word, walked - seen[word])


def _extract_lasso(m: RegularSystem, layers, anchor, cycle_bound: int):
    """Concrete lasso through `anchor`: initial path plus a strict cycle."""
    j = next((i for i, lay in enumerate(layers) if _member(lay, anchor)), None)
    if j is None:
        return None
    prefix_words = _backchain(m, layers, j, anchor)
    # shortest strict cycle anchor -> anchor, via per-step singleton images
    y = [_canon(_singleton(m.alphabet, anchor))]
    for hit in range(1, cycle_bound + 1):
        y.append(_canon(image(m.relation, y[-1])))
        if _member(y[-1], anchor):
            break
    else:
        return None
    # the path anchor, u_1 .. u_{hit-1}, anchor through the layers y: its
    # inner words are the strict cycle body
    loop_words = _backchain(m, y, hit, anchor)[1:-1]
    return LassoWitness(tuple(prefix_words) + tuple(loop_words), loop_start=j)


# ---------------------------------------------------------------------------
# witness replay against the construction


def replay_gsp_witness(aug: GspAugmentation, witness: LassoWitness) -> tuple[bool, str]:
    """Full fidelity replay: the projection is an execution of the original
    system, the claimed cop sets match the property automata, and the label
    states drive the negated-property automaton through an accepting run."""
    ring, sigma, fault = _projected_ring(aug, witness)
    if fault is not None:
        return False, fault
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
    loop_states = [chain[i][0] for i in range(witness.loop_start, len(witness.words))]
    if not any(q in nga.accepting for q in loop_states):
        return False, "loop never visits an accepting negated-property state"
    return True, "ok"
