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

Both formats are read by one line reader, `_key_values`, and their keys
through one table each: `_AUT_KEYS` and `_SYSTEM_KEYS`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

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


def _lines(text: str):
    """(line number, line) of each line of `text` that is not blank once
    its `#` comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def _key_values(lines, keys, repeats=(), last=None):
    """(key, value, line number) of each `key: value` line of `lines`, for
    both file formats, up to the `last` key: a key outside `keys`, or one
    outside `repeats` given twice, is refused at its line."""
    seen: set[str] = set()
    for lineno, line in lines:
        key, colon, value = line.partition(":")
        key = key.strip()
        if not colon:
            raise ParseError("expected `key: value`", lineno)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", lineno)
        if key not in keys:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key not in repeats:
            seen.add(key)
        yield key, value.strip(), lineno
        if key == last:
            return


def _alphabet(names: list[str], lineno: int) -> Alphabet:
    """The alphabet an `alphabet:` line names, in either file format."""
    if not names:
        raise ParseError("empty alphabet", lineno)
    for n in names:
        if not _NAME.match(n):
            raise ParseError(f"bad symbol name {n!r}", lineno)
    if len(set(names)) != len(names):
        raise ParseError("duplicate symbol names", lineno)
    return Alphabet.base(tuple(names))


def _kind(value: str, lineno: int) -> str:
    if value not in KINDS:
        raise ParseError(f"unknown kind {value!r}", lineno)
    return value


def _n_states(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError("states must be a number", lineno)


def _trans(value: str, lineno: int) -> None:
    if value:
        raise ParseError("transitions start on the following lines", lineno)


def _state_list(value: str, lineno: int) -> list[int]:
    out = []
    for field in value.split():
        try:
            out.append(int(field))
        except ValueError:
            raise ParseError(f"bad state number {field!r}", lineno)
    return out


# how an automaton file reads the value of each of its keys
_AUT_KEYS = {
    "kind": _kind, "alphabet": lambda value, lineno: _alphabet(value.split(), lineno),
    "states": _n_states, "initial": _state_list, "accepting": _state_list, "trans": _trans,
}


def parse_aut(text: str):
    """Parse an automaton/transducer file; strict about keys and symbols."""
    lines = _lines(text)
    head: dict = {"initial": [], "accepting": []}
    for key, value, lineno in _key_values(lines, _AUT_KEYS, last="trans"):
        head[key] = _AUT_KEYS[key](value, lineno)
    for key, what in (("kind", "kind"), ("alphabet", "alphabet"), ("states", "states count")):
        if key not in head:
            raise ParseError(f"missing {what}")
    kind, base, n_states = head["kind"], head["alphabet"], head["states"]
    is_trans = kind in ("transducer", "omega-transducer")
    alphabet = Alphabet.product(base, base) if is_trans else base
    transitions = set()
    # the lines after `trans:` are transitions
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 3:
            raise ParseError("transition needs `src symbol dst`", lineno)
        src, symname, dst = fields
        try:
            src, dst = int(src), int(dst)
        except ValueError:
            raise ParseError("transition endpoints must be state numbers", lineno)
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
    initial, accepting = head["initial"], head["accepting"]
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


def _read(path: Path, what: str, lineno: int | None = None) -> str:
    """The text of `path`, refused as `what`, at the line of the entry that
    names it if there is one, when it cannot be read."""
    try:
        return path.read_text()
    except FileNotFoundError:
        why = "not found"
    except OSError as e:
        why = f"cannot be read: {e.strerror}"
    except UnicodeDecodeError:
        why = "is not UTF-8 text"
    message = f"{what} {why}"
    raise InputError(message) if lineno is None else ParseError(message, lineno)


def _new_property_name(fields: list[str], lineno: int, earlier: list) -> None:
    # a name is one property whatever its kind: `check-gsp` looks it up as
    # gsp-negated and as gsp
    first = next((line for (_, name, _), line in earlier if name == fields[1]), None)
    if first is not None:
        raise ParseError(f"property {fields[1]!r} already declared on line {first}", lineno)


def _add_cop(loaded: LoadedSystem, name: str, aut) -> LoadedSystem:
    # a cop of the other word kind, or one that cannot be typed, is checked
    # as it is, its kind first; the cops are checked as one set, each with
    # those before it, so a cop past the cap is refused at its own line
    cop = StateProperty(name, aut)
    if isinstance(aut, OmegaAutomaton) == (loaded.system.mode == OMEGA):
        with suppress(NotWeak):
            cop = state_property(name, aut)
    cops = (*loaded.cops, cop)
    _check_cops(cops, loaded.system.alphabet, loaded.system.mode)
    return replace(loaded, cops=cops)


def _add_lep(loaded: LoadedSystem, name: str, *automata) -> LoadedSystem:
    return replace(loaded, leps=(*loaded.leps, local_execution_property(name, *automata)))


def _add_property(loaded: LoadedSystem, kind: str, name: str, aut) -> LoadedSystem:
    block = PropertyBlock(kind, name, _typed_property(kind, aut, loaded))
    return replace(loaded, properties=(*loaded.properties, block))


@dataclass(frozen=True)
class _Key:
    """How `load_system` reads a system-file entry: the field counts it
    takes (any if none are given), refused with `usage` as is a first field
    outside `first`; whether it may appear only once; the fields that name
    automaton files; `check(fields, lineno, earlier)`, a further rule given
    the earlier entries of the key; and, for a declaration typed against
    the system, the field that names it and `add(loaded, *fields)`, the
    loaded system with the declaration."""

    counts: tuple[int, ...]
    usage: str = ""
    once: bool = False
    files: tuple[int, ...] = ()
    first: tuple[str, ...] = ()
    check: Callable | None = None
    name: int = 0
    add: Callable | None = None


# every system-file entry; the declarations are typed in this order, after
# the system
_SYSTEM_KEYS = {
    "alphabet": _Key((), once=True, check=lambda fields, lineno, _: _alphabet(fields, lineno)),
    "mode": _Key((1,), "mode must be finite or omega", once=True, first=(FINITE, OMEGA)),
    "initial": _Key((1,), "initial takes one file", once=True, files=(0,)),
    "relation": _Key((1,), "relation takes one file", once=True, files=(0,)),
    "cop": _Key((2,), "cop takes `name file`", files=(1,), add=_add_cop),
    "lep": _Key((2, 3), "lep takes `name file [complement-file]`", files=(1, 2), add=_add_lep),
    "property": _Key(
        (3,), f"property takes `kind name file` with kind in {PROPERTY_KINDS}", files=(2,),
        first=PROPERTY_KINDS, check=_new_property_name, name=1, add=_add_property,
    ),
}
_REPEATED = {key for key, row in _SYSTEM_KEYS.items() if not row.once}


def load_system(path: str | Path) -> LoadedSystem:
    path = Path(path)
    found: dict[str, list] = {key: [] for key in _SYSTEM_KEYS}
    text = _read(path, f"system file {str(path)!r}")
    for key, value, lineno in _key_values(_lines(text), _SYSTEM_KEYS, _REPEATED):
        row, fields = _SYSTEM_KEYS[key], value.split()
        if row.counts and len(fields) not in row.counts or row.first and fields[0] not in row.first:
            raise ParseError(row.usage, lineno)
        if row.check:
            row.check(fields, lineno, found[key])
        for i in row.files:
            if i < len(fields):  # a lep's complement file may be left out
                what = f"referenced file {fields[i]!r}"
                fields[i] = parse_aut(_read(path.parent / fields[i], what, lineno))
        found[key].append((fields, lineno))

    if not all(found[key] for key in ("alphabet", "initial", "relation")):
        raise ParseError("system file needs alphabet, initial and relation")
    head = {key: entries[0][0] for key, entries in found.items() if entries}
    [relation], [mode] = head["relation"], head.get("mode", [FINITE])
    if not isinstance(relation, Transducer):
        raise ParseError("relation file must hold a transducer")
    # a system's alphabet and word kind are its relation's: the declarations must agree
    if mode != relation.mode:
        raise ModeMismatch("relation transducer does not match the system mode")
    if Alphabet.base(tuple(head["alphabet"])) != relation.base:
        raise ModeMismatch("system components are over different alphabets")
    loaded = LoadedSystem(validate(RegularSystem(head["initial"][0], relation)), (), (), ())
    for key, row in _SYSTEM_KEYS.items():
        for fields, lineno in found[key] if row.add else ():
            with _entry(key, fields[row.name], lineno):
                loaded = row.add(loaded, *fields)
    return loaded


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
