"""Exception taxonomy shared by all rmckit modules."""


class RmckitError(Exception):
    """Base class for every error raised by rmckit."""


class InputError(RmckitError):
    """A caller violated an operation precondition (bad symbol, bad index, ...)."""


class AlphabetMismatch(InputError):
    """Two automata were combined over incompatible alphabets."""


class ModeMismatch(InputError):
    """Finite-word and omega-word values were mixed in one system."""


class NotDeterministic(InputError):
    """An automaton required to be deterministic is not."""


class NotWeak(InputError):
    """An omega automaton required to be (inherently) weak is not."""


class NotWeakDeterministic(InputError):
    """Operation needs a deterministic weak Buchi automaton (e.g. complement by flip)."""


class NonWeakResult(RmckitError):
    """An omega-word construction left the class of weak-representable automata."""


class IncompleteCopAutomaton(InputError):
    """A state-property automaton is not deterministic and complete."""


class IncompleteLepAutomaton(InputError):
    """A local-execution-property automaton is not complete."""


class MissingComplement(InputError):
    """A non weak-deterministic lep automaton was declared without its complement."""


class InconsistentComplement(InputError):
    """A user-supplied complement automaton disagreed with the primary on a sampled lasso."""


class AlphabetCapExceeded(InputError):
    """An alphabet exceeds a size cap: an augmented alphabet its configured
    cap, or the alphabet of a finite-word completion (`determinize`,
    `complement`, the simulation's all-pairs square)
    `alphabet.COMPLETION_CAP`; a minimization never completes."""


class ParseError(InputError):
    """A text input could not be parsed; carries the line number, if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")
