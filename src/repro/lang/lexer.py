"""Lexer for Tiny-C.

The lexer produces a flat list of :class:`~repro.lang.tokens.Token` objects
ending with a single ``EOF`` token.  Both ``//`` line comments and
``/* ... */`` block comments are supported.

One compiled master pattern recognizes every token and every stretch of
whitespace or comment; the lexer only dispatches on which alternative
matched and keeps the line count.  Number literals are ASCII digits
only: any other digit is an unexpected character.  Identifiers start
with a letter or ``_`` and continue with letters, digits or ``_`` in
the Unicode sense of :meth:`str.isalpha` / :meth:`str.isalnum`.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_OPERATORS = {
    # Two-character operators are tried first (maximal munch).
    "<<": TokenKind.LSHIFT,
    ">>": TokenKind.RSHIFT,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND_AND,
    "||": TokenKind.OR_OR,
    "+=": TokenKind.PLUS_ASSIGN,
    "-=": TokenKind.MINUS_ASSIGN,
    "*=": TokenKind.STAR_ASSIGN,
    "/=": TokenKind.SLASH_ASSIGN,
    "%=": TokenKind.PERCENT_ASSIGN,
    "++": TokenKind.PLUS_PLUS,
    "--": TokenKind.MINUS_MINUS,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "^": TokenKind.CARET,
    "~": TokenKind.TILDE,
    "!": TokenKind.BANG,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "?": TokenKind.QUESTION,
    ":": TokenKind.COLON,
}

_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
}

_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    # Letters, '_', and the non-decimal numerics (such as superscripts)
    # that ``\w`` also admits; the last are rejected after the match.
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<hex>0[xX](?P<hex_digits>[0-9a-fA-F]*))"
    r"|(?P<decimal>[0-9]+)"
    r"|(?P<char>')"
    r"|(?P<string>\")"
    r"|(?P<operator>"
    + "|".join(re.escape(text) for text in _OPERATORS)
    + ")",
    re.DOTALL,
)


def tokenize(source: str, module_name: str = "<input>") -> list[Token]:
    """Lex ``source``; returns tokens terminated by an EOF token."""
    match_at = _TOKEN.match
    tokens = []
    append = tokens.append
    pos = 0
    line = 1
    line_start = 0  # index of the first character of ``line``
    end_of_input = len(source)
    while pos < end_of_input:
        match = match_at(source, pos)
        if match is None:
            raise LexError(
                f"unexpected character {source[pos]!r}",
                SourceLocation(module_name, line, pos - line_start + 1),
            )
        kind = match.lastgroup
        end = match.end()
        text = match.group()
        if kind == "space" or kind == "block_comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rindex("\n") + 1
            pos = end
            continue
        if kind == "line_comment":
            pos = end
            continue
        location = SourceLocation(module_name, line, pos - line_start + 1)
        if kind == "word":
            first = text[0]
            if not (first.isalpha() or first == "_"):
                raise LexError(
                    f"unexpected character {first!r}", location
                )
            append(Token(
                KEYWORDS.get(text, TokenKind.IDENT), text, location
            ))
        elif kind == "operator":
            append(Token(_OPERATORS[text], text, location))
        elif kind == "decimal":
            follower = source[end:end + 1]
            if follower.isalpha() or follower == "_":
                raise LexError(
                    "identifier may not start with a digit", location
                )
            append(Token(
                TokenKind.INT_LITERAL, text, location, int(text, 10)
            ))
        elif kind == "hex":
            if not match.group("hex_digits"):
                raise LexError("malformed hexadecimal literal", location)
            append(Token(
                TokenKind.INT_LITERAL, text, location, int(text, 16)
            ))
        elif kind == "char":
            value, end = _char_body(source, end, location)
            if source[end:end + 1] != "'":
                raise LexError("unterminated character literal", location)
            end += 1
            append(Token(
                TokenKind.CHAR_LITERAL, f"'{chr(value)}'", location,
                value,
            ))
        elif kind == "string":
            chars = []
            while True:
                ch = source[end:end + 1]
                if not ch or ch == "\n":
                    raise LexError(
                        "unterminated string literal", location
                    )
                if ch == '"':
                    end += 1
                    break
                value, end = _char_body(source, end, location)
                chars.append(chr(value))
            value = "".join(chars)
            append(Token(
                TokenKind.STRING_LITERAL, f'"{value}"', location, value
            ))
        else:  # open_comment
            raise LexError("unterminated block comment", location)
        pos = end
    append(Token(
        TokenKind.EOF, "",
        SourceLocation(module_name, line, pos - line_start + 1),
    ))
    return tokens


def _char_body(
    source: str, pos: int, location: SourceLocation
) -> tuple[int, int]:
    """The value of the (possibly escaped) character at ``pos`` inside
    a character or string literal, and the position after it."""
    ch = source[pos:pos + 1]
    if not ch or ch == "\n":
        raise LexError("unterminated character literal", location)
    if ch == "\\":
        escape = source[pos + 1:pos + 2]
        if escape not in _ESCAPES:
            raise LexError(f"unknown escape sequence \\{escape}", location)
        return _ESCAPES[escape], pos + 2
    return ord(ch), pos + 1
