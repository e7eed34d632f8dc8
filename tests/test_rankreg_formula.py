import pytest

from rankinfer.errors import FormulaError
from rankinfer.rankreg.formula import format_formula_error, parse_formula


def test_plain_rank_rank():
    f = parse_formula("r(Y) ~ r(X)")
    assert f.response == "Y"
    assert f.response_ranked
    assert f.terms == (("X", True),)
    assert f.group is None


def test_covariates_and_whitespace():
    f = parse_formula("  r( Y )~r(X)+ W1 +W2 ")
    assert f.response == "Y"
    assert f.terms == (("X", True), ("W1", False), ("W2", False))


def test_unranked_response():
    f = parse_formula("Y ~ r(X) + W")
    assert not f.response_ranked
    assert f.terms[0] == ("X", True)


def test_identifier_charset():
    f = parse_formula("r(math.score) ~ r(income_q5) + cohort2")
    assert f.response == "math.score"
    assert f.terms == (("income_q5", True), ("cohort2", False))


def test_grouped_parenthesized():
    f = parse_formula("r(Y) ~ (r(X) + W):G")
    assert f.group == "G"
    assert f.terms == (("X", True), ("W", False))


def test_grouped_single_term():
    f = parse_formula("r(Y) ~ r(X):G")
    assert f.group == "G"
    assert f.terms == (("X", True),)


def test_group_without_parens_needs_single_term():
    text = "r(Y) ~ r(X) + W:G"
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert "parentheses" in str(err.value)
    assert err.value.position == text.index(":")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("r(Y ~ X", "')'"),
        ("r(Y) ~", "column name"),
        ("~ r(X)", "column name"),
        ("r(Y) r(X)", "'~'"),
        ("r(Y) ~ r(X) +", "column name"),
        ("r(Y) ~ (r(X) + W)", "':'"),
        ("r(Y) ~ (r(X) + W:G", "')'"),
        ("r(Y) ~ r(X):", "grouping column"),
        ("r(Y) ~ r()", "column name inside r()"),
    ],
)
def test_parse_errors_name_whats_missing(text, fragment):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert fragment in str(err.value)


def test_unexpected_character_position():
    text = "r(Y) ~ r(X) * W"
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert err.value.position == text.index("*")


def test_trailing_garbage():
    with pytest.raises(FormulaError) as err:
        parse_formula("r(Y) ~ r(X) W")
    assert "trailing" in str(err.value)


def test_trailing_whitespace_ok():
    f = parse_formula("r(Y) ~ r(X)   ")
    assert f.terms == (("X", True),)


def test_r_as_plain_column_name():
    # bare r without parentheses is an ordinary identifier
    f = parse_formula("r ~ r(X)")
    assert f.response == "r"
    assert not f.response_ranked


def test_caret_rendering_alignment():
    text = "r(Y) ~ r(X) * W"
    with pytest.raises(FormulaError) as excinfo:
        parse_formula(text)
    rendered = format_formula_error(text, excinfo.value)
    lines = rendered.splitlines()
    assert lines[1].strip() == text.strip()
    caret_col = lines[2].index("^")
    formula_col = lines[1].index(text)
    assert caret_col - formula_col == excinfo.value.position


def test_caret_omitted_without_position():
    err = FormulaError("duplicate term X")
    assert format_formula_error("r(Y) ~ X + X", err) == "duplicate term X"
