"""Text file formats for automata, transducers and systems.

Automaton files are line-oriented UTF-8 with LF endings and `#` comments:

    kind: dfa                # nfa | dfa | buchi | weak-dba |
    alphabet: N T            #   transducer | omega-transducer
    states: 2
    initial: 0
    accepting: 1
    trans:
    0 T 1
    1 N 1                    # transducer letters are written in/out

Symbol names match [A-Za-z0-9_]+; transducer letters are written `a/b`.
Serialization is canonical (fixed key order, sorted state sets and
transitions), so minimized automata have byte-stable golden forms and
parse/serialize round-trips are exact.

System files reference automaton files (paths relative to the system file)
and declare state properties, local execution properties and property
blocks:

    alphabet: N T
    mode: finite
    initial: initial.aut
    relation: relation.aut
    cop: one_token cop_one_token.aut
    lep: liveness lep_liveness.aut lep_liveness_neg.aut
    property: reach-bad two_tokens bad_two_tokens.aut
    property: gsp-negated always_one gsp_neg.aut
    property: losp-negated all_live losp_neg.aut
"""

from __future__ import annotations

import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path

from .alphabet import Alphabet
from .automata import FiniteAutomaton
from .errors import InputError, ModeMismatch, NotWeak, ParseError, RmckitError
from .gsp import StateProperty, _check_cops, negate_gsp, negated_gsp, state_property
from .losp import LocalExecutionProperty, local_execution_property, losp_property
from .omega import OmegaAutomaton
from .system import RegularSystem, _require_set, validate
from .transducer import FINITE, OMEGA, Transducer

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
KINDS = ("nfa", "dfa", "buchi", "weak-dba", "transducer", "omega-transducer")


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_aut(text: str):
    """Parse an automaton/transducer file; strict about keys and symbols."""
    kind: str | None = None
    names: list[str] | None = None
    n_states: int | None = None
    initial: list[int] = []
    accepting: list[int] = []
    triples: list[tuple[int, str, int, int]] = []
    in_trans = False
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if in_trans:
            fields = line.split()
            if len(fields) != 3:
                raise ParseError("transition needs `src symbol dst`", lineno)
            try:
                src, dst = int(fields[0]), int(fields[2])
            except ValueError:
                raise ParseError("transition endpoints must be state numbers", lineno)
            triples.append((src, fields[1], dst, lineno))
            continue
        if ":" not in line:
            raise ParseError("expected `key: value`", lineno)
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", lineno)
        seen.add(key)
        if key == "kind":
            if value not in KINDS:
                raise ParseError(f"unknown kind {value!r}", lineno)
            kind = value
        elif key == "alphabet":
            names = value.split()
            if not names:
                raise ParseError("empty alphabet", lineno)
            for n in names:
                if not _NAME.match(n):
                    raise ParseError(f"bad symbol name {n!r}", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate symbol names", lineno)
        elif key == "states":
            try:
                n_states = int(value)
            except ValueError:
                raise ParseError("states must be a number", lineno)
        elif key == "initial":
            initial = _state_list(value, lineno)
        elif key == "accepting":
            accepting = _state_list(value, lineno)
        elif key == "trans":
            if value:
                raise ParseError("transitions start on the following lines", lineno)
            in_trans = True
        else:
            raise ParseError(f"unknown key {key!r}", lineno)
    if kind is None:
        raise ParseError("missing kind")
    if names is None:
        raise ParseError("missing alphabet")
    if n_states is None:
        raise ParseError("missing states count")
    base = Alphabet.base(tuple(names))
    is_trans = kind in ("transducer", "omega-transducer")
    alphabet = Alphabet.product(base, base) if is_trans else base
    transitions = set()
    for src, symname, dst, lineno in triples:
        if is_trans:
            if "/" not in symname:
                raise ParseError(
                    f"transducer letter {symname!r} needs the `in/out` form", lineno
                )
        elif "/" in symname:
            raise ParseError(f"plain automaton letter {symname!r} has arity 2", lineno)
        try:
            sym = alphabet.index(symname)
        except InputError as e:
            raise ParseError(str(e), lineno)
        if not (0 <= src < n_states and 0 <= dst < n_states):
            raise ParseError(f"transition references undeclared state", lineno)
        transitions.add((src, sym, dst))
    for q in initial + accepting:
        if not (0 <= q < n_states):
            raise ParseError(f"state {q} out of range")
    is_omega = kind in ("buchi", "weak-dba", "omega-transducer")
    cls = OmegaAutomaton if is_omega else FiniteAutomaton
    aut = cls(alphabet, n_states, frozenset(initial), frozenset(accepting), frozenset(transitions))
    if kind == "dfa" and not aut.is_deterministic:
        raise ParseError("kind dfa but the automaton is nondeterministic")
    if kind == "weak-dba":
        if not aut.is_deterministic:
            raise ParseError("kind weak-dba but the automaton is nondeterministic")
        if not aut.is_weak:
            raise ParseError("kind weak-dba but the automaton is not weak")
    if is_trans:
        return Transducer(aut)
    return aut


def _state_list(value: str, lineno: int) -> list[int]:
    out = []
    for field in value.split():
        try:
            out.append(int(field))
        except ValueError:
            raise ParseError(f"bad state number {field!r}", lineno)
    return out


def _kind_of(value) -> str:
    if isinstance(value, Transducer):
        return "omega-transducer" if value.mode == OMEGA else "transducer"
    if isinstance(value, OmegaAutomaton):
        return "weak-dba" if (value.is_deterministic and value.is_weak) else "buchi"
    return "dfa" if value.is_deterministic else "nfa"


def serialize_aut(value) -> str:
    """Canonical text form; inverse of parse_aut up to comments."""
    kind = _kind_of(value)
    aut = value.inner if isinstance(value, Transducer) else value
    if isinstance(value, Transducer):
        base = value.base
        if base.arity != 1:
            raise InputError("only transducers over a plain base alphabet serialize")
    else:
        if aut.alphabet.arity != 1:
            raise InputError("only plain-alphabet automata serialize")
        base = aut.alphabet
    for n in base.components[0]:
        if not _NAME.match(n):
            raise InputError(f"symbol name {n!r} is not serializable")
    lines = [
        f"kind: {kind}",
        f"alphabet: {' '.join(base.components[0])}",
        f"states: {aut.n_states}",
        f"initial: {' '.join(str(q) for q in sorted(aut.initial))}",
        f"accepting: {' '.join(str(q) for q in sorted(aut.accepting))}",
        "trans:",
    ]
    named = sorted(
        (src, aut.alphabet.name(sym), dst) for src, sym, dst in aut.transitions
    )
    lines.extend(f"{src} {name} {dst}" for src, name, dst in named)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# system files


@dataclass(frozen=True)
class PropertyBlock:
    kind: str  # reach-bad | gsp-negated | gsp | losp-negated
    name: str
    automaton: object


@dataclass(frozen=True)
class LoadedSystem:
    system: RegularSystem
    cops: tuple[StateProperty, ...]
    leps: tuple[LocalExecutionProperty, ...]
    properties: tuple[PropertyBlock, ...]

    def property_named(self, kind: str, name: str | None) -> PropertyBlock:
        matches = [p for p in self.properties if p.kind == kind]
        if name is not None:
            matches = [p for p in matches if p.name == name]
        if not matches:
            raise InputError(
                f"no {kind} property" + (f" named {name!r}" if name else "") + " declared"
            )
        return matches[0]


PROPERTY_KINDS = ("reach-bad", "gsp-negated", "gsp", "losp-negated")


def parse_system_file(text: str) -> list[tuple[str, list[str], int]]:
    """Raw key lines of a system file: key, value fields and line number.
    File names stay as written; `load_system` resolves them."""
    entries: list[tuple[str, list[str], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected `key: value`", lineno)
        key, _, value = line.partition(":")
        entries.append((key.strip(), value.split(), lineno))
    return entries


def load_system(path: str | Path) -> LoadedSystem:
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise InputError(f"system file {str(path)!r} not found") from None
    directory = path.parent
    entries = parse_system_file(text)

    def read_aut(name: str, lineno: int):
        try:
            text = (directory / name).read_text()
        except FileNotFoundError:
            raise ParseError(f"referenced file {name!r} not found", lineno) from None
        return parse_aut(text)

    alphabet: Alphabet | None = None
    mode = FINITE
    initial = relation = None
    cops: list[tuple[str, FiniteAutomaton, int]] = []
    lep_entries: list[tuple[str, FiniteAutomaton, FiniteAutomaton | None, int]] = []
    prop_entries: list[tuple[str, str, object, int]] = []
    seen_single: set[str] = set()
    for key, fields, lineno in entries:
        if key in ("alphabet", "mode", "initial", "relation"):
            if key in seen_single:
                raise ParseError(f"duplicate key {key!r}", lineno)
            seen_single.add(key)
        if key == "alphabet":
            alphabet = Alphabet.base(tuple(fields))
        elif key == "mode":
            if fields != ["finite"] and fields != ["omega"]:
                raise ParseError("mode must be finite or omega", lineno)
            mode = fields[0]
        elif key == "initial":
            if len(fields) != 1:
                raise ParseError("initial takes one file", lineno)
            initial = read_aut(fields[0], lineno)
        elif key == "relation":
            if len(fields) != 1:
                raise ParseError("relation takes one file", lineno)
            relation = read_aut(fields[0], lineno)
        elif key == "cop":
            if len(fields) != 2:
                raise ParseError("cop takes `name file`", lineno)
            cops.append((fields[0], read_aut(fields[1], lineno), lineno))
        elif key == "lep":
            if len(fields) not in (2, 3):
                raise ParseError("lep takes `name file [complement-file]`", lineno)
            comp = read_aut(fields[2], lineno) if len(fields) == 3 else None
            lep_entries.append((fields[0], read_aut(fields[1], lineno), comp, lineno))
        elif key == "property":
            if len(fields) != 3 or fields[0] not in PROPERTY_KINDS:
                raise ParseError(
                    f"property takes `kind name file` with kind in {PROPERTY_KINDS}", lineno
                )
            # a name is one property whatever its kind: `check-gsp` looks
            # it up as gsp-negated and as gsp
            first = next((line for _, name, _, line in prop_entries if name == fields[1]), None)
            if first is not None:
                raise ParseError(f"property {fields[1]!r} already declared on line {first}", lineno)
            prop_entries.append((fields[0], fields[1], read_aut(fields[2], lineno), lineno))
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    if alphabet is None or initial is None or relation is None:
        raise ParseError("system file needs alphabet, initial and relation")
    if not isinstance(relation, Transducer):
        raise ParseError("relation file must hold a transducer")
    # a system's alphabet and word kind are its relation's: the declarations must agree
    if mode != relation.mode:
        raise ModeMismatch("relation transducer does not match the system mode")
    if alphabet != relation.base:
        raise ModeMismatch("system components are over different alphabets")
    system = validate(RegularSystem(initial, relation))

    cop_list: list[StateProperty] = []
    for name, aut, lineno in cops:
        with _entry("cop", name, lineno):
            # a cop of the other word kind, or one that cannot be typed, is
            # checked as it is, its kind first
            cop = StateProperty(name, aut)
            if isinstance(aut, OmegaAutomaton) == (mode == OMEGA):
                with suppress(NotWeak):
                    cop = state_property(name, aut)
            _check_cops([cop], alphabet, mode)
        cop_list.append(cop)
    lep_list: list[LocalExecutionProperty] = []
    for name, aut, comp, lineno in lep_entries:
        with _entry("lep", name, lineno):
            lep_list.append(local_execution_property(name, aut, comp))
    loaded = LoadedSystem(system, tuple(cop_list), tuple(lep_list), ())
    blocks: list[PropertyBlock] = []
    for kind, name, aut, lineno in prop_entries:
        with _entry("property", name, lineno):
            blocks.append(PropertyBlock(kind, name, _typed_property(kind, aut, loaded)))
    return replace(loaded, properties=tuple(blocks))


@contextmanager
def _entry(key: str, name: str, lineno: int):
    """Reraise an error of the block as a `ParseError` that names the
    system-file entry and its line."""
    try:
        yield
    except RmckitError as e:
        raise ParseError(f"{key} {name!r}: {e}", lineno) from e


def _typed_property(kind: str, aut, loaded: LoadedSystem):
    """The property of `kind` that `aut` declares for `loaded`, for a
    system-file block and a `--property` file alike."""
    if kind == "reach-bad":
        return _require_set(loaded.system, aut, "bad")
    if kind == "gsp-negated":
        return negated_gsp(aut, len(loaded.cops))
    if kind == "gsp":
        return negate_gsp(aut, len(loaded.cops))
    return losp_property(aut, len(loaded.leps))  # kind == "losp-negated"
