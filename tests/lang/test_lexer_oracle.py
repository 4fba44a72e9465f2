"""Master-pattern lexer against the character-at-a-time oracle.

Every module source of the oracle corpus lexes to the same tokens
(kind, text, value, line, column) under both.  Every ``LexError`` case
of ``test_lexer.py``, and some corner cases, give the same tokens or
the same ``LexError`` message and location.
"""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from tests.lang import char_lexer
from tests.oracle_corpus import programs

EDGE_CASES = (
    # Every LexError case of test_lexer.py.
    "0x", "123abc", r"'\q'", "'a", '"abc', "/* never ends", "int $x;",
    # Corner cases, malformed or not.
    "0", "int x = 0", "0x1g", "'''", "'\\", '"a\\', "/*/", "x\ry\f",
)


def lexed(lex, source):
    try:
        return [
            (t.kind, t.text, t.value, t.location.line, t.location.column)
            for t in lex(source, "m")
        ]
    except LexError as error:
        return (error.message, error.location)


@pytest.mark.parametrize("sources, _opt_level", programs())
def test_tokens_match_char_oracle(sources, _opt_level):
    for program in sources():
        for name, text in sorted(program.items()):
            assert lexed(tokenize, text) == lexed(
                char_lexer.tokenize, text
            ), name


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_match_char_oracle(source):
    assert lexed(tokenize, source) == lexed(char_lexer.tokenize, source)
