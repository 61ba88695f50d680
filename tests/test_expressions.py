import hashlib

import pytest

from latinrect.expressions import evaluate_expression, generate_expression, render
from latinrect.formulas import derangements_ryser, reduced_count
from latinrect.guards import ResourceGuardError
from latinrect.partitions import bell_number

BRACKETS = {"(": ")", "[": "]", "{": "}"}


def assert_balanced(text: str):
    stack = []
    for ch in text:
        if ch in BRACKETS:
            stack.append(BRACKETS[ch])
        elif ch in BRACKETS.values():
            assert stack and stack.pop() == ch, f"unbalanced {ch!r} in {text[:80]}..."
    assert not stack


def test_two_row_expression_structure():
    expr = generate_expression(2)
    assert expr.m == 1
    assert expr.class_labels == ("0", "1")
    assert len(expr.g_terms) == 1
    assert [f.deltas for f in expr.factors] == [(-1, 1), (0, 0)]
    for n in range(9):
        assert evaluate_expression(expr, n) == derangements_ryser(n)


def test_three_row_expression_expansion():
    expr = generate_expression(3)
    assert [(t.coefficient, t.blocks) for t in expr.g_terms] == [
        (1, ((1,), (2,))),
        (-1, ((1, 2),)),
    ]
    assert expr.class_labels == ("00", "10", "01", "11")


def test_four_row_coefficient_sequence():
    expr = generate_expression(4)
    assert [t.coefficient for t in expr.g_terms] == [1, -1, -1, -1, 2]


def test_expansion_sizes_match_bell_numbers():
    for k in range(2, 9):
        expr = generate_expression(k)
        assert len(expr.g_terms) == bell_number(k - 1)
        assert len(expr.factors) == 2 ** (k - 1)
        # the fully-omitted class is the one unshifted factor
        assert expr.factors[-1].deltas == (0,) * 2 ** (k - 1)


def test_generation_refusals():
    with pytest.raises(ValueError, match="constant 1"):
        generate_expression(1)
    with pytest.raises(ResourceGuardError, match="would have 4140 terms"):
        generate_expression(9)
    # Bell(k-1) is named while it is at most 10^18, B(25) is past it
    with pytest.raises(ResourceGuardError, match="would have 445958869294805289 terms"):
        generate_expression(25)
    with pytest.raises(ResourceGuardError, match="more than 1000000000000000000 terms"):
        generate_expression(26)


def test_render_is_deterministic():
    expr = generate_expression(3)
    for fmt in ("text", "latex"):
        assert render(expr, fmt) == render(expr, fmt)
    with pytest.raises(ValueError):
        render(expr, "mathml")


K3_TEXT = """\
R_3(n) = sum over s00 + s10 + s01 + s11 = n of
    (-1)^(s10 + s01 + 2*s11)
    * multinomial(n; s00, s10, s01, s11)
    * g(s00-1, s10, s01, s11+1)^s00
    * g(s00, s10-1, s01, s11+1)^s10
    * g(s00, s10, s01-1, s11+1)^s01
    * g(s00, s10, s01, s11)^s11
where
    g(t00, t10, t01, t11) = f(1)*f(2) - f(1,2)
    f(1) = t00 + t01
    f(2) = t00 + t10
    f(1,2) = t00"""

K3_LATEX = r"""\[
R_{3}(n) = \sum_{s_{00}+s_{10}+s_{01}+s_{11}=n}
(-1)^{s_{10}+s_{01}+2 s_{11}}
{n \choose s_{00},s_{10},s_{01},s_{11}}
g(s_{00}-1,s_{10},s_{01},s_{11}+1)^{s_{00}}
g(s_{00},s_{10}-1,s_{01},s_{11}+1)^{s_{10}}
g(s_{00},s_{10},s_{01}-1,s_{11}+1)^{s_{01}}
g(s_{00},s_{10},s_{01},s_{11})^{s_{11}}
\]
\[
g(t_{00},t_{10},t_{01},t_{11}) = f_{1} f_{2} - f_{1,2}
\]
\[
f_{1} = t_{00}+t_{01} ,\quad f_{2} = t_{00}+t_{10} ,\quad f_{1,2} = t_{00}
\]"""


def test_render_pinned_at_three_rows():
    expr = generate_expression(3)
    assert render(expr, "text") == K3_TEXT
    assert render(expr, "latex") == K3_LATEX


def test_render_pinned_for_every_printable_k():
    # k = 2..8, text then LaTeX per k, each output with its trailing newline
    digest = hashlib.sha256()
    for k in range(2, 9):
        expr = generate_expression(k)
        for fmt in ("text", "latex"):
            digest.update((render(expr, fmt) + "\n").encode())
    assert digest.hexdigest() == "978352795c50843fe552fa63922af425870d6d55bba28aedaf618375e367043b"


def test_text_render_shape():
    text = render(generate_expression(2), "text")
    assert text.startswith("R_2(n) = sum over s0 + s1 = n of")
    assert "(-1)^(s1)" in text
    assert "g(s0-1, s1+1)^s0" in text
    assert "g(s0, s1)^s1" in text
    assert_balanced(text)


def test_latex_render_shape():
    text = render(generate_expression(3), "latex")
    assert "{n \\choose s_{00},s_{10},s_{01},s_{11}}" in text
    assert text.count("g(") == 5  # four factors plus the definition
    assert "(-1)^{s_{10}+s_{01}+2 s_{11}}" in text
    assert "f_{1,2} = t_{00}" in text
    assert_balanced(text)
    assert text.count("\\[") == text.count("\\]") == 3


def test_latex_balanced_for_larger_k():
    for k in (4, 5, 6):
        assert_balanced(render(generate_expression(k), "latex"))


def test_evaluation_closes_the_loop():
    for k in (2, 3, 4):
        expr = generate_expression(k)
        for n in range(7):
            assert evaluate_expression(expr, n) == reduced_count(k, n).value, (k, n)


def test_evaluation_conventions_and_guards():
    expr = generate_expression(3)
    assert evaluate_expression(expr, 0) == 1
    with pytest.raises(ValueError):
        evaluate_expression(expr, -1)
    with pytest.raises(ResourceGuardError):
        evaluate_expression(expr, 50, max_terms=100)
