"""Exception types shared across the package.

Every error raised on purpose derives from TrustbError so callers can
distinguish deliberate diagnostics from genuine bugs.
"""

from __future__ import annotations


class TrustbError(Exception):
    """Base class for all errors this package raises deliberately."""


# --- evaluation kernel ---------------------------------------------------


class UnboundIdentifier(TrustbError):
    def __init__(self, name: str):
        super().__init__(f"identifier '{name}' is not bound")
        self.name = name


class ApplicationOutsideDomain(TrustbError):
    def __init__(self, fn_repr: str, arg_repr: str):
        super().__init__(f"application outside domain: {fn_repr} applied to {arg_repr}")
        self.fn_repr = fn_repr
        self.arg_repr = arg_repr


class NotARelation(TrustbError):
    """A set operation needed a set of pairs and got something else."""


class NotFunctional(TrustbError):
    """A relation used as a function maps some left value to two rights."""


class BoundExceeded(TrustbError):
    """An enumeration would list `size` members, more than 2**bound; when
    the enumeration was a state variable's domain, `variable` names it."""

    def __init__(self, what: str, size: int, bound: int, variable: str | None = None):
        count = size if size.bit_length() <= 64 else f"at least 2**{size.bit_length() - 1}"
        where = f"domain of variable '{variable}': " if variable else ""
        super().__init__(f"{where}{what} has {count} members, more than the 2**{bound} bound")
        self.what = what
        self.size = size
        self.bound = bound
        self.variable = variable


class NonFiniteQuantifierDomain(TrustbError):
    """A quantifier's variables are not typed by leading membership
    conjuncts, or a domain to enumerate is not a set."""


# --- parsing -------------------------------------------------------------


class ParseError(TrustbError):
    """Positioned syntax diagnostic; renders as line:col: message."""

    def __init__(self, line: int, col: int, message: str, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        self.message = message
        super().__init__(f"{line}:{col}: {message}")

    def with_file(self, filename: str) -> str:
        return f"{filename}:{self.line}:{self.col}: {self.message}"


class DuplicateLabel(ParseError):
    def __init__(self, line: int, col: int, label: str):
        super().__init__(line, col, f"duplicate label '{label}'")
        self.label = label


class MultipleAssignment(ParseError):
    def __init__(self, line: int, col: int, variable: str):
        super().__init__(line, col, f"variable '{variable}' assigned more than once in one event")
        self.variable = variable


# --- static analysis -----------------------------------------------------


class UnresolvedReference(TrustbError):
    def __init__(self, kind: str, name: str):
        super().__init__(f"unresolved {kind} reference '{name}'")
        self.kind = kind
        self.name = name


class TypeMismatch(TrustbError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class MissingTypeInvariant(TrustbError):
    def __init__(self, variable: str, machine: str):
        super().__init__(
            f"variable '{variable}' of machine '{machine}' has no typing invariant"
        )
        self.variable = variable
        self.machine = machine


# --- machine runtime ------------------------------------------------------


class AxiomViolation(TrustbError):
    def __init__(self, label: str, context: str):
        super().__init__(f"instantiation violates axiom '{label}' of context '{context}'")
        self.label = label
        self.context = context


class GuardFailed(TrustbError):
    def __init__(self, event: str, label: str):
        super().__init__(f"guard '{label}' of event '{event}' is false under the binding")
        self.event = event
        self.label = label


class NotSuperposition(TrustbError):
    """The concrete machine drops or retypes a variable of its abstraction."""


# --- trust model API -------------------------------------------------------


class FunctionalityViolation(TrustbError):
    """An update would map one left value to two different right values."""


class TrustDenied(TrustbError):
    def __init__(self, decision):
        failing = ", ".join(decision.failing)
        super().__init__(f"trust denied; failing guards: {failing}")
        self.decision = decision


class UndeclaredAtom(TrustbError):
    def __init__(self, name: str):
        super().__init__(f"atom '{name}' is not declared by the scenario instantiation")
        self.name = name


class ScenarioError(TrustbError):
    """A scenario command is malformed or cannot run in the current state."""
