"""Recursive-descent parser and printer for map expressions.

Grammar (highest precedence first):

    power   :=  atom ('^' integer)?
    unary   :=  '-' unary | power
    term    :=  unary (('*' | '/') unary)*
    expr    :=  term (('+' | '-') term)*
    atom    :=  number | number 'i' | 'i' | 'z' | '(' expr ')'

'+', '-', '*', '/' are left-associative; exponents are literal
nonnegative integers; 'i' is reserved for the imaginary unit and 'z' is
the only variable. Numbers are double-precision decimals. Every
rejection carries the byte offset at which it happened.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import MapSyntaxError, UnknownIdentifier
from .rootfind import _trim_leading

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    """The free variable z."""


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Var | Const | Neg | BinOp | Pow


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # number, imag, ident, op, end
    text: str
    value: complex
    offset: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, 0j, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            literal = m.group(0)
            end = m.end()
            value = float(literal)
            if not math.isfinite(value):
                raise MapSyntaxError("literal overflows double precision", i)
            # a trailing 'i' glues onto the number, as in 2i or 1.5e3i
            if end < n and text[end] == "i":
                tokens.append(_Token("imag", literal + "i", value * 1j, i))
                i = end + 1
            else:
                tokens.append(_Token("number", literal, complex(value), i))
                i = end
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(0), 0j, i))
            i = m.end()
            continue
        raise MapSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", 0j, n))
    return tokens


# ---------------------------------------------------------------------------
# Complex scalar parsing: a, bi, a+bi, a-bi
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Parse a complex scalar literal such as '1+2i', '-3', or '2i'."""
    tokens = _lex(text)
    pos = 0

    def take_signed_part():
        nonlocal pos
        sign = 1.0
        while tokens[pos].kind == "op" and tokens[pos].text in "+-":
            if tokens[pos].text == "-":
                sign = -sign
            pos += 1
        tok = tokens[pos]
        if tok.kind == "number":
            pos += 1
            return sign * tok.value, False
        if tok.kind == "imag":
            pos += 1
            return sign * tok.value, True
        if tok.kind == "ident" and tok.text == "i":
            pos += 1
            return sign * 1j, True
        raise MapSyntaxError("expected a decimal literal", tok.offset)

    first, first_imag = take_signed_part()
    result = first
    if tokens[pos].kind == "op" and tokens[pos].text in "+-":
        second_offset = tokens[pos + 1].offset
        second, second_imag = take_signed_part()
        if first_imag:
            raise MapSyntaxError("imaginary part must come last", second_offset)
        if not second_imag:
            raise MapSyntaxError("expected an imaginary literal", second_offset)
        result = first + second
    tail = tokens[pos]
    if tail.kind != "end":
        raise MapSyntaxError(f"trailing input {tail.text!r}", tail.offset)
    return result


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise MapSyntaxError(f"expected {op!r}", tok.offset)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "number" or not exp_tok.text.isdigit():
                raise MapSyntaxError(
                    "exponent must be a nonnegative integer literal", exp_tok.offset
                )
            self.advance()
            return Pow(base, int(exp_tok.text))
        return base

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number" or tok.kind == "imag":
            return Const(tok.value)
        if tok.kind == "ident":
            if tok.text == "z":
                return Var()
            if tok.text == "i":
                return Const(1j)
            raise UnknownIdentifier(tok.text, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise MapSyntaxError(f"expected a value, got {tok.text or 'end of input'!r}", tok.offset)


def parse_map(text: str) -> Expr:
    """Parse expression text in the variable z into a syntax tree.

    No semantic validation happens here; degree and degeneracy checks
    belong to rational-map construction.
    """
    parser = _Parser(text)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise MapSyntaxError(f"trailing input {tail.text!r}", tail.offset)
    return node


# ---------------------------------------------------------------------------
# Expression -> fraction of coefficient arrays
# ---------------------------------------------------------------------------

def expression_to_fraction(node: Expr) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a syntax tree in the field of rational functions.

    Returns (numerator, denominator) coefficient arrays, ascending powers
    of z. No cancellation is attempted; that is the map constructor's job.
    """
    if isinstance(node, Var):
        return np.array([0, 1], dtype=complex), np.array([1], dtype=complex)
    if isinstance(node, Const):
        return np.array([node.value], dtype=complex), np.array([1], dtype=complex)
    if isinstance(node, Neg):
        n, d = expression_to_fraction(node.operand)
        return -n, d
    if isinstance(node, Pow):
        n, d = expression_to_fraction(node.base)
        rn = np.array([1], dtype=complex)
        rd = np.array([1], dtype=complex)
        for _ in range(node.exponent):
            rn = np.convolve(rn, n)
            rd = np.convolve(rd, d)
        return rn, rd
    if isinstance(node, BinOp):
        n1, d1 = expression_to_fraction(node.left)
        n2, d2 = expression_to_fraction(node.right)
        if node.op == "+":
            return _padded_sum(np.convolve(n1, d2), np.convolve(n2, d1)), np.convolve(d1, d2)
        if node.op == "-":
            return _padded_sum(np.convolve(n1, d2), -np.convolve(n2, d1)), np.convolve(d1, d2)
        if node.op == "*":
            return np.convolve(n1, n2), np.convolve(d1, d2)
        if node.op == "/":
            return np.convolve(n1, d2), np.convolve(d1, n2)
    raise TypeError(f"unknown node {node!r}")


def _fraction_degrees(node: Expr) -> tuple[int, int]:
    """The degrees of expression_to_fraction's (numerator, denominator), from the tree alone.

    Array lengths there are structural (a convolution adds degrees, a sum
    keeps the larger), so these are its arrays' lengths less one.
    """
    if isinstance(node, Var):
        return 1, 0
    if isinstance(node, Const):
        return 0, 0
    if isinstance(node, Neg):
        return _fraction_degrees(node.operand)
    if isinstance(node, Pow):
        n, d = _fraction_degrees(node.base)
        return node.exponent * n, node.exponent * d
    if isinstance(node, BinOp):
        n1, d1 = _fraction_degrees(node.left)
        n2, d2 = _fraction_degrees(node.right)
        if node.op in "+-":
            return max(n1 + d2, n2 + d1), d1 + d2
        if node.op == "*":
            return n1 + n2, d1 + d2
        if node.op == "/":
            return n1 + d2, d1 + n2
    raise TypeError(f"unknown node {node!r}")


def expansion_degree(node: Expr) -> int:
    """The degree of the fraction expression_to_fraction would build, before it builds it.

    It bounds the map's degree: a^k has k times the degree of a, a product
    or quotient at most the sum, and a sum of polynomials at most the
    larger; common factors only lower it.
    """
    return max(_fraction_degrees(node))


def _padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    size = max(len(a), len(b))
    out = np.zeros(size, dtype=complex)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _format_real(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_complex(value: complex) -> str:
    """Render a complex number in the literal grammar (no outer parens)."""
    re_part, im_part = value.real, value.imag
    if im_part == 0:
        return _format_real(re_part)
    if re_part == 0:
        if im_part == 1:
            return "i"
        if im_part == -1:
            return "-i"
        return _format_real(im_part) + "i"
    sign = "+" if im_part > 0 else "-"
    mag = abs(im_part)
    imag = "i" if mag == 1 else _format_real(mag) + "i"
    return f"{_format_real(re_part)}{sign}{imag}"


def format_polynomial(coeffs) -> str:
    """Render an ascending coefficient sequence as expression text."""
    coeffs = np.asarray(coeffs, dtype=complex)
    terms: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = format_complex(c)
            if c.real != 0 and c.imag != 0:
                body = f"({body})"
        else:
            zpow = "z" if k == 1 else f"z^{k}"
            if c == 1:
                body = zpow
            elif c == -1:
                body = f"-{zpow}"
            else:
                lit = format_complex(c)
                if c.imag != 0:
                    lit = f"({lit})"
                body = f"{lit}*{zpow}"
        terms.append(body)
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        if term.startswith("-"):
            out += term
        else:
            out += "+" + term
    return out


def format_map(m) -> str:
    """Canonical affine-chart rendering of a rational map.

    Re-parsing the result and rebuilding the map reproduces the stored
    coefficients (up to normalization) within 1e-12.
    """
    num = np.asarray(m.p, dtype=complex)
    den = np.asarray(m.q, dtype=complex)
    den_trim = _trim_leading(den)
    if len(den_trim) == 1:
        # constant denominator folds into the numerator
        return format_polynomial(num / den_trim[0])
    num_text = format_polynomial(num)
    if int(np.count_nonzero(num)) > 1 or num_text.startswith("-"):
        num_text = f"({num_text})"
    return f"{num_text}/({format_polynomial(den_trim)})"
