"""Token definitions for the Tiny-C language.

Tiny-C is a restricted C dialect sufficient to express the paper's
workloads: integer scalars and arrays, pointers, function pointers,
``static`` module-private globals, ``extern`` declarations, and the usual
structured control flow.
"""

from __future__ import annotations

import enum

from repro.lang.errors import SourceLocation


class TokenKind(enum.Enum):
    """All lexical categories recognized by the lexer."""

    # Literals and identifiers.
    IDENT = "identifier"
    INT_LITERAL = "integer literal"
    CHAR_LITERAL = "character literal"
    STRING_LITERAL = "string literal"

    # Keywords.
    KW_INT = "int"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_DO = "do"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_STATIC = "static"
    KW_EXTERN = "extern"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"

    # Operators.
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    LSHIFT = "<<"
    RSHIFT = ">>"
    EQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND_AND = "&&"
    OR_OR = "||"
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"
    QUESTION = "?"
    COLON = ":"

    EOF = "end of input"


KEYWORDS = {
    "int": TokenKind.KW_INT,
    "void": TokenKind.KW_VOID,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "for": TokenKind.KW_FOR,
    "do": TokenKind.KW_DO,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "static": TokenKind.KW_STATIC,
    "extern": TokenKind.KW_EXTERN,
}


class Token:
    """A single lexical token.

    Attributes:
        kind: The lexical category.
        text: The exact source text of the token.
        value: Decoded value for literals (int for INT/CHAR literals,
            str for STRING literals); ``None`` otherwise.
        location: Where the token begins.

    Compared, hashed and shown by its fields, like a frozen dataclass,
    but built with plain slot stores.
    """

    __slots__ = ("kind", "text", "location", "value")

    def __init__(
        self, kind: TokenKind, text: str, location: SourceLocation,
        value: object = None,
    ):
        self.kind = kind
        self.text = text
        self.location = location
        self.value = value

    def _fields(self) -> tuple:
        return (self.kind, self.text, self.location, self.value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Token(kind={self.kind!r}, text={self.text!r}, "
            f"location={self.location!r}, value={self.value!r})"
        )

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
