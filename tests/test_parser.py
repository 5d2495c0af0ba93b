import pytest

from multispec import (
    MapSyntaxError,
    UnknownIdentifier,
    format_map,
    parse_complex,
    parse_map,
    rational_map_from_text,
)
from multispec.parser import BinOp, Const, Pow, Var, expansion_degree, expression_to_fraction


def test_parse_complex_literals():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-3") == -3
    assert parse_complex("2i") == 2j
    assert parse_complex("1.5e2") == 150.0
    assert parse_complex("0.25-0.5i") == 0.25 - 0.5j


def test_parse_complex_malformed_tail_offset():
    with pytest.raises(MapSyntaxError) as err:
        parse_complex("2i-")
    assert err.value.offset == 3


def test_parse_complex_rejects_garbage():
    for bad in ("", "+", "1+2", "i3", "1 2"):
        with pytest.raises(MapSyntaxError):
            parse_complex(bad)


def test_overflowing_literals_are_rejected():
    # stored values must stay finite
    for bad in ("1e999", "1e400i"):
        with pytest.raises(MapSyntaxError):
            parse_complex(bad)
    with pytest.raises(MapSyntaxError) as err:
        parse_map("z+1e999")
    assert err.value.offset == 2


def test_parse_map_power_node():
    tree = parse_map("z^2")
    assert tree == Pow(Var(), 2)


def test_parse_map_quotient_structure():
    tree = parse_map("(z^2+(1+2i))/(3*z-1)")
    assert isinstance(tree, BinOp) and tree.op == "/"
    assert isinstance(tree.left, BinOp) and tree.left.op == "+"


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse_map("z + w")
    assert err.value.name == "w"
    assert err.value.offset == 4


def test_reserved_i_is_a_literal():
    tree = parse_map("i")
    assert tree == Const(1j)


def test_exponent_must_be_nonnegative_integer():
    with pytest.raises(MapSyntaxError):
        parse_map("z^-2")
    with pytest.raises(MapSyntaxError):
        parse_map("z^2.5")


def test_precedence_unary_minus_vs_power():
    # -z^2 must parse as -(z^2): evaluating at z=2 gives -4
    num, den = expression_to_fraction(parse_map("-z^2"))
    assert num[2] == -1 and len(den) == 1


def test_position_on_syntax_error():
    with pytest.raises(MapSyntaxError) as err:
        parse_map("z^2 + ")
    assert err.value.offset == 6




def test_format_map_goldens():
    assert format_map(rational_map_from_text("z^2")) == "z^2"
    assert format_map(rational_map_from_text("(z^2+1)/(z-1)")) == "(z^2+1)/(z-1)"


def test_parsing_is_total_and_positioned():
    # anything the grammar rejects must come back as a positioned error,
    # never as a crash
    import random

    rng = random.Random(2026)
    alphabet = "z+-*/^()0123456789.ie "
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        try:
            parse_map(text)
        except MapSyntaxError as err:
            assert 0 <= err.offset <= len(text)


def test_format_map_reparse_reproduces_coefficients():
    import numpy as np

    from multispec import random_map

    for seed in range(12):
        f = random_map(2 + seed % 3, 4200 + seed)
        g = rational_map_from_text(format_map(f))
        # compare up to the joint normalization phase
        a = np.concatenate([f.p, f.q])
        b = np.concatenate([g.p, g.q])
        idx = int(np.argmax(np.abs(a)))
        phase = a[idx] / b[idx]
        assert np.max(np.abs(b * phase - a)) < 1e-12


@pytest.mark.parametrize("text", [
    "z", "3", "-z^2", "(z+1)^60", "(z^2+1)/(z-2)", "1/(z-1)+1/(z-2)", "z-z",
    "(z^3+1)^2/(z*(z+1))", "z^2*(1+2i)-z/(z^4+1)", "((z^2+1)^3-(z^2-1)^3)/z",
])
def test_expansion_degree_is_read_from_the_tree(text):
    # the lengths of expression_to_fraction's arrays, without forming them;
    # a sum of fractions takes its degree from the cross products
    num, den = expression_to_fraction(parse_map(text))
    assert expansion_degree(parse_map(text)) == max(len(num), len(den)) - 1
