"""Character-at-a-time Tiny-C lexer: the oracle for
:mod:`repro.lang.lexer`.

It peeks and advances one character at a time.  The master-pattern
lexer in ``src/`` must produce the same tokens (kind, text, value, line,
column) and the same :class:`~repro.lang.errors.LexError` messages and
locations, except on non-ASCII digits: here ``str.isdigit`` lets them
into number literals (``int()`` then raises ``ValueError`` on ``²`` and
reads ``١`` as 1), while ``src/`` rejects them as unexpected
characters.
"""

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

# Multi-character operators, longest first so maximal munch works.
_MULTI_CHAR_OPERATORS = [
    ("<<", TokenKind.LSHIFT),
    (">>", TokenKind.RSHIFT),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("&&", TokenKind.AND_AND),
    ("||", TokenKind.OR_OR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("++", TokenKind.PLUS_PLUS),
    ("--", TokenKind.MINUS_MINUS),
]

_SINGLE_CHAR_OPERATORS = {
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


class Lexer:
    """Converts Tiny-C source text into a token stream."""

    def __init__(self, source: str, module_name: str = "<input>"):
        self._source = source
        self._module = module_name
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Lex the whole input; returns tokens terminated by an EOF token."""
        tokens = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self._module, self._line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._pos >= len(self._source):
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        location = self._location()
        if self._pos >= len(self._source):
            return Token(TokenKind.EOF, "", location)

        ch = self._peek()
        if ch.isdigit():
            return self._lex_number(location)
        if ch.isalpha() or ch == "_":
            return self._lex_identifier(location)
        if ch == "'":
            return self._lex_char(location)
        if ch == '"':
            return self._lex_string(location)

        for text, kind in _MULTI_CHAR_OPERATORS:
            if self._source.startswith(text, self._pos):
                self._advance(len(text))
                return Token(kind, text, location)

        kind = _SINGLE_CHAR_OPERATORS.get(ch)
        if kind is not None:
            self._advance()
            return Token(kind, ch, location)

        raise LexError(f"unexpected character {ch!r}", location)

    def _lex_number(self, location: SourceLocation) -> Token:
        start = self._pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if not self._is_hex_digit(self._peek()):
                raise LexError("malformed hexadecimal literal", location)
            while self._is_hex_digit(self._peek()):
                self._advance()
            text = self._source[start:self._pos]
            return Token(TokenKind.INT_LITERAL, text, location, int(text, 16))
        while self._peek().isdigit():
            self._advance()
        if self._peek().isalpha() or self._peek() == "_":
            raise LexError("identifier may not start with a digit", location)
        text = self._source[start:self._pos]
        return Token(TokenKind.INT_LITERAL, text, location, int(text, 10))

    @staticmethod
    def _is_hex_digit(ch: str) -> bool:
        return bool(ch) and ch in "0123456789abcdefABCDEF"

    def _lex_identifier(self, location: SourceLocation) -> Token:
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[start:self._pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, location)

    def _lex_char(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        value = self._lex_char_body(location)
        if self._peek() != "'":
            raise LexError("unterminated character literal", location)
        self._advance()
        return Token(TokenKind.CHAR_LITERAL, f"'{chr(value)}'", location, value)

    def _lex_char_body(self, location: SourceLocation) -> int:
        ch = self._peek()
        if not ch or ch == "\n":
            raise LexError("unterminated character literal", location)
        if ch == "\\":
            self._advance()
            escape = self._peek()
            if escape not in _ESCAPES:
                raise LexError(f"unknown escape sequence \\{escape}", location)
            self._advance()
            return _ESCAPES[escape]
        self._advance()
        return ord(ch)

    def _lex_string(self, location: SourceLocation) -> Token:
        self._advance()  # opening quote
        chars = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError("unterminated string literal", location)
            if ch == '"':
                self._advance()
                break
            chars.append(chr(self._lex_char_body(location)))
        value = "".join(chars)
        return Token(TokenKind.STRING_LITERAL, f'"{value}"', location, value)


def tokenize(source: str, module_name: str = "<input>") -> list[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source, module_name).tokenize()
