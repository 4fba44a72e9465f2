"""Lexer unit tests."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_empty_input_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


def test_simple_declaration():
    assert kinds("int x;") == [
        TokenKind.KW_INT,
        TokenKind.IDENT,
        TokenKind.SEMICOLON,
        TokenKind.EOF,
    ]


def test_decimal_literal_value():
    token = tokenize("12345")[0]
    assert token.kind is TokenKind.INT_LITERAL
    assert token.value == 12345


def test_hex_literal_value():
    token = tokenize("0x1F")[0]
    assert token.value == 31


def test_hex_literal_requires_digits():
    with pytest.raises(LexError):
        tokenize("0x")


@pytest.mark.parametrize("source", ["0", "int x = 0", "return 0"])
def test_zero_at_end_of_input_is_decimal(source):
    tokens = tokenize(source)
    assert tokens[-1].kind is TokenKind.EOF
    zero = tokens[-2]
    assert (zero.kind, zero.text, zero.value) == (
        TokenKind.INT_LITERAL, "0", 0
    )
    assert zero.location.column == len(source)


def test_identifier_cannot_start_with_digit():
    with pytest.raises(LexError):
        tokenize("123abc")


def test_keywords_recognized():
    source = "int void if else while for do return break continue static extern"
    expected = [
        TokenKind.KW_INT, TokenKind.KW_VOID, TokenKind.KW_IF,
        TokenKind.KW_ELSE, TokenKind.KW_WHILE, TokenKind.KW_FOR,
        TokenKind.KW_DO, TokenKind.KW_RETURN, TokenKind.KW_BREAK,
        TokenKind.KW_CONTINUE, TokenKind.KW_STATIC, TokenKind.KW_EXTERN,
        TokenKind.EOF,
    ]
    assert kinds(source) == expected


def test_identifier_containing_keyword_prefix():
    tokens = tokenize("integer iffy")
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].text == "integer"
    assert tokens[1].kind is TokenKind.IDENT


def test_maximal_munch_operators():
    assert kinds("a <<= b")[:4] == [
        TokenKind.IDENT,
        TokenKind.LSHIFT,
        TokenKind.ASSIGN,
        TokenKind.IDENT,
    ]
    assert kinds("a<=b")[1] is TokenKind.LE
    assert kinds("a<b")[1] is TokenKind.LT
    assert kinds("a&&b")[1] is TokenKind.AND_AND
    assert kinds("a&b")[1] is TokenKind.AMP
    assert kinds("a++")[1] is TokenKind.PLUS_PLUS
    assert kinds("a+ +b")[1] is TokenKind.PLUS


def test_compound_assignment_operators():
    assert kinds("a += b")[1] is TokenKind.PLUS_ASSIGN
    assert kinds("a -= b")[1] is TokenKind.MINUS_ASSIGN
    assert kinds("a *= b")[1] is TokenKind.STAR_ASSIGN
    assert kinds("a /= b")[1] is TokenKind.SLASH_ASSIGN
    assert kinds("a %= b")[1] is TokenKind.PERCENT_ASSIGN


def test_char_literal():
    token = tokenize("'A'")[0]
    assert token.kind is TokenKind.CHAR_LITERAL
    assert token.value == 65


def test_char_escapes():
    assert tokenize(r"'\n'")[0].value == 10
    assert tokenize(r"'\t'")[0].value == 9
    assert tokenize(r"'\0'")[0].value == 0
    assert tokenize(r"'\\'")[0].value == 92
    assert tokenize(r"'\''")[0].value == 39


def test_unknown_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r"'\q'")


def test_unterminated_char_rejected():
    with pytest.raises(LexError):
        tokenize("'a")


def test_string_literal():
    token = tokenize('"hello"')[0]
    assert token.kind is TokenKind.STRING_LITERAL
    assert token.value == "hello"


def test_string_with_escapes():
    assert tokenize(r'"a\nb"')[0].value == "a\nb"


def test_unterminated_string_rejected():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_line_comment_skipped():
    assert kinds("a // comment\n b") == [
        TokenKind.IDENT, TokenKind.IDENT, TokenKind.EOF,
    ]


def test_block_comment_skipped():
    assert kinds("a /* x\ny */ b") == [
        TokenKind.IDENT, TokenKind.IDENT, TokenKind.EOF,
    ]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("int $x;")


def test_locations_track_lines_and_columns():
    tokens = tokenize("int\n  x;")
    assert tokens[0].location.line == 1
    assert tokens[0].location.column == 1
    assert tokens[1].location.line == 2
    assert tokens[1].location.column == 3


def test_location_module_name():
    tokens = tokenize("x", module_name="mymod")
    assert tokens[0].location.module == "mymod"


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])
def test_non_ascii_digit_rejected_at_its_location(digit):
    # str.isdigit() accepts both ('²' superscript two, '١' Arabic-Indic
    # one); number literals take ASCII digits only.
    for source, column in ((f"int x = {digit};", 9), (f"x = 1{digit};", 6)):
        with pytest.raises(LexError) as error:
            tokenize(source)
        assert error.value.message == f"unexpected character {digit!r}"
        assert error.value.location.column == column


def test_non_ascii_letters_lex_as_identifier():
    tokens = tokenize("int été = 1;")
    assert tokens[1].kind is TokenKind.IDENT
    assert tokens[1].text == "été"


def test_tokens_compare_hash_and_show_by_fields():
    first, second = tokenize("x 0x1F"), tokenize("x 0x1F")
    assert first == second
    assert hash(first[1]) == hash(second[1])
    assert first[0] != first[1]
    assert first[0] != ("x",)
    assert repr(first[1]) == (
        "Token(kind=<TokenKind.INT_LITERAL: 'integer literal'>, "
        "text='0x1F', location=SourceLocation(module='<input>', line=1, "
        "column=3), value=31)"
    )
    assert str(first[1]) == "INT_LITERAL('0x1F')"
    assert str(first[1].location) == "<input>:1:3"
