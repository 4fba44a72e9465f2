"""Diagnostic types shared by the Tiny-C front end.

Every front-end failure is reported through :class:`CompileError`, which
carries a source location so callers (and tests) can pinpoint the offending
construct.  The front end never raises bare ``ValueError``/``RuntimeError``
for user-program problems.
"""

from __future__ import annotations


class SourceLocation:
    """A position within a source module.

    Attributes:
        module: Name of the module (compilation unit) being compiled.
        line: 1-based line number.
        column: 1-based column number.

    Compared, hashed and shown by its fields, like a frozen dataclass,
    but built with plain slot stores: the lexer makes one per token.
    """

    __slots__ = ("module", "line", "column")

    def __init__(
        self, module: str = "<unknown>", line: int = 0, column: int = 0
    ):
        self.module = module
        self.line = line
        self.column = column

    def _fields(self) -> tuple:
        return (self.module, self.line, self.column)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"SourceLocation(module={self.module!r}, line={self.line!r}, "
            f"column={self.column!r})"
        )

    def __str__(self) -> str:
        return f"{self.module}:{self.line}:{self.column}"


class CompileError(Exception):
    """A diagnosable error in a user program (lexical, syntactic, semantic)."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location or SourceLocation()
        super().__init__(f"{self.location}: {message}")


class LexError(CompileError):
    """Raised for malformed tokens."""


class ParseError(CompileError):
    """Raised for grammar violations."""


class SemanticError(CompileError):
    """Raised for type errors, undefined names, and declaration conflicts."""
