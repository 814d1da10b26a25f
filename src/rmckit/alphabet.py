"""Indexed alphabets.

An alphabet is an ordered list of distinct symbol names.  Tuple alphabets
(transducer letters, augmented letters) are products of one name list per
track component; a symbol is then the mixed-radix combination of its
component indices, with the first component most significant.  Product
alphabets are never enumerated eagerly, so they may be large.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Sequence

from .errors import AlphabetMismatch, InputError

#: Alphabets at most this large may be completed (by `determinize`, hence
#: `complement`); minimization never completes, so it meets no cap.
COMPLETION_CAP = 4096


@dataclass(frozen=True)
class Alphabet:
    """One name tuple per component; arity-1 alphabets have a single component."""

    components: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.components:
            raise InputError("alphabet needs at least one component")
        for names in self.components:
            if not names:
                raise InputError("alphabet component may not be empty")
            if len(set(names)) != len(names):
                raise InputError(f"duplicate symbol names in {names!r}")

    @staticmethod
    def base(names: Sequence[str]) -> "Alphabet":
        return Alphabet((tuple(names),))

    @staticmethod
    def product(*alphabets: "Alphabet") -> "Alphabet":
        """Tuple alphabet; component lists are concatenated (kept flat)."""
        comps: list[tuple[str, ...]] = []
        for a in alphabets:
            comps.extend(a.components)
        return Alphabet(tuple(comps))

    @property
    def arity(self) -> int:
        return len(self.components)

    @cached_property
    def size(self) -> int:
        """Number of symbols; computed on first read, then kept."""
        return reduce(lambda n, c: n * len(c), self.components, 1)

    def parts(self, sym: int) -> tuple[int, ...]:
        """Component indices of a symbol id."""
        if not (0 <= sym < self.size):
            raise InputError(f"symbol id {sym} out of range")
        out = []
        for names in reversed(self.components):
            sym, p = divmod(sym, len(names))
            out.append(p)
        return tuple(reversed(out))

    def symbol(self, parts: Sequence[int]) -> int:
        if len(parts) != self.arity:
            raise InputError(f"expected {self.arity} components, got {len(parts)}")
        sym = 0
        for p, names in zip(parts, self.components):
            if not (0 <= p < len(names)):
                raise InputError(f"component index {p} out of range")
            sym = sym * len(names) + p
        return sym

    def name(self, sym: int) -> str:
        return "/".join(names[p] for p, names in zip(self.parts(sym), self.components))

    def index(self, name: str) -> int:
        """Symbol id of a '/'-joined name."""
        fields = name.split("/")
        if len(fields) != self.arity:
            raise InputError(f"symbol {name!r} has {len(fields)} components, expected {self.arity}")
        parts = []
        for f, names in zip(fields, self.components):
            try:
                parts.append(names.index(f))
            except ValueError:
                raise InputError(f"unknown symbol component {f!r}") from None
        return self.symbol(parts)

    def symbols(self) -> Iterator[int]:
        """All symbol ids; guard against enumerating huge product alphabets."""
        if self.size > COMPLETION_CAP * 64:
            raise InputError(f"refusing to enumerate alphabet of size {self.size}")
        return iter(range(self.size))

    def word(self, letters: Iterable[str] | str) -> tuple[int, ...]:
        """Word from symbol names.

        A plain string is split per character when every symbol name is a
        single character, otherwise on whitespace.
        """
        if isinstance(letters, str):
            if all(len(n) == 1 for names in self.components for n in names) and self.arity == 1:
                letters = list(letters)
            else:
                letters = letters.split()
        return tuple(self.index(x) if isinstance(x, str) else int(x) for x in letters)

    def word_name(self, word: Sequence[int]) -> str:
        return " ".join(self.name(s) for s in word)

    def require_same(self, other: "Alphabet") -> None:
        if self != other:
            raise AlphabetMismatch("operation requires identical alphabets")
