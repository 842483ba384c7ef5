"""Expression mini-language: grammar, errors, render round-trips."""

import random
import subprocess
import sys
from functools import reduce

import pytest

from hopf_forge import ncalg
from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE, FE_SQRT2, FieldElem, rat
from hopf_forge.expr import (MAX_EXPONENT, MAX_NESTING, ExpressionError,
                             ExpressionSyntaxError, UnknownSymbol, exp_element,
                             parse_expression, parse_to_element, render_element,
                             render_tensor)
from hopf_forge.ncalg import AlgebraPresentation, NCElement, NonTerminating


def normalize_cli(text, algebra, order):
    return subprocess.run([sys.executable, "-m", "hopf_forge", "normalize", text,
                           "--algebra", algebra, "--order", str(order)],
                          capture_output=True, text=True)


class TestParser:
    def test_product(self):
        alg = preset("sl2", 2).presentation
        got = parse_to_element("A*A_plus", alg)
        assert got == alg.gen("A") * alg.gen("A_plus")

    def test_exponential(self):
        alg = preset("sl2", 3).presentation
        from hopf_forge.algebras import exp_gen
        assert parse_to_element("exp(2*z*A_plus)", alg) == exp_gen(alg, 2, "A_plus")

    def test_unknown_symbol(self):
        alg = preset("sl2", 2).presentation
        with pytest.raises(UnknownSymbol) as e:
            parse_to_element("A*Q", alg)
        assert e.value.name == "Q"

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression("A + * B")
        assert e.value.position == 4

    def test_bad_character_is_reported_where_it_stands(self):
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression("A + $")
        assert str(e.value) == "unexpected character '$' (at position 4)"
        assert e.value.position == 4
        r = normalize_cli("A + $", "sl2", 2)
        assert r.returncode == 2
        assert "unexpected character '$' (at position 4)" in r.stderr

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(A + B")

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_rationals_powers_minus(self):
        alg = preset("nullplane", 2).presentation
        got = parse_to_element("-3/4*P_1^2 + 1/2*w*K_2 - P_plus", alg)
        from hopf_forge.coeff import FieldElem, rat
        want = (alg.gen("P_1") ** 2 * FieldElem(rat(-3, 4))
                + alg.gen("K_2").scaled(FieldElem(rat(1, 2)), 1)
                - alg.gen("P_plus"))
        assert got == want

    def test_sqrt2_literal(self):
        alg = preset("sl2", 2).presentation
        from hopf_forge.coeff import FE_SQRT2
        assert parse_to_element("sqrt2*A", alg) == alg.gen("A") * FE_SQRT2

    def test_exp_rejects_nonlinear_argument(self):
        alg = preset("sl2", 2).presentation
        with pytest.raises(ExpressionError):
            parse_to_element("exp(z*A*A_plus)", alg)

    def test_exp_rejects_missing_parameter(self):
        alg = preset("sl2", 2).presentation
        with pytest.raises(ExpressionError):
            parse_to_element("exp(2*A_plus)", alg)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["sl2", "so22", "nullplane", "sl2-jbasis"])
    def test_full_vocabulary(self, name):
        bundle = preset(name, 3)
        alg = bundle.presentation
        elems = [alg.gen(g) for g in alg.generators]
        elems += list(bundle.casimirs.values())
        elems += [bundle.hopf.antipode[i] for i in range(len(alg.generators))]
        # coproduct legs: every slot element of every coproduct term
        for i in range(len(alg.generators)):
            for ws, _ in bundle.hopf.delta[i].terms:
                for w in ws:
                    elems.append(NCElement(alg, {(w, 0): FE_ONE}))
        for x in elems:
            text = render_element(x, "text")
            back = parse_to_element(text, alg)
            assert back == x, text

    def test_zero_renders_as_zero(self):
        alg = preset("sl2", 2).presentation
        assert render_element(alg.zero(), "text") == "0"

    def test_tensor_render_mentions_slots(self):
        b = preset("nullplane", 2)
        s = render_tensor(b.hopf.delta[b.presentation.index["P_plus"]], "text")
        assert "1⊗P_plus" in s and "P_plus⊗1" in s

    def test_latex_render(self):
        b = preset("nullplane", 2)
        alg = b.presentation
        s = render_element(alg.gen("P_plus") * alg.gen("P_1"), "latex")
        assert "P_+" in s and "P_1" in s

    def test_json_render_is_schema(self):
        import json
        alg = preset("sl2", 2).presentation
        doc = json.loads(render_element(alg.gen("A"), "json"))
        assert doc == {"terms": [{"word": [["A", 1]], "coeff": [[1, 1, 0, 1],
                                                                [0, 1, 0, 1],
                                                                [0, 1, 0, 1]]}]}


class TestPowers:
    """``x^n`` squares repeatedly; exponents above MAX_EXPONENT are refused."""

    def test_long_power_renders_as_itself(self):
        alg = preset("sl2", 2).presentation
        assert render_element(parse_to_element("A_plus^6400", alg), "text") == "A_plus^6400"

    @pytest.mark.parametrize("n", [3000, MAX_EXPONENT])
    def test_power_of_exponential_is_exponential_of_multiple(self, n):
        alg = preset("nullplane", 4).presentation
        got = parse_to_element(f"exp(w*P_plus)^{n}", alg)
        assert got == parse_to_element(f"exp({n}*w*P_plus)", alg)

    def test_power_matches_repeated_product(self):
        alg = preset("so22", 2).presentation
        x = parse_to_element("C_2 + z*P - 1/2*J_hat", alg)
        want = alg.unit()
        for n in range(7):
            assert x ** n == want, n
            want = want * x

    def test_exponent_above_the_limit_is_an_error(self):
        alg = preset("sl2", 2).presentation
        with pytest.raises(ExpressionSyntaxError, match="exceeds the limit"):
            parse_to_element(f"A_plus^{MAX_EXPONENT + 1}", alg)
        assert MAX_EXPONENT >= 600  # P_minus^600*P_plus is a known input

    def test_exponent_above_the_limit_exits_2(self):
        import subprocess
        import sys
        r = subprocess.run([sys.executable, "-m", "hopf_forge", "normalize",
                            f"A_plus^{MAX_EXPONENT + 1}", "--algebra", "sl2"],
                           capture_output=True, text=True)
        assert r.returncode == 2
        assert "exceeds the limit" in r.stderr
        assert "Traceback" not in r.stderr


# -- the evaluator against element arithmetic ----------------------------------

def reference_eval(node, alg):
    """The element-by-element evaluator the fold replaced: an element for every
    number, parameter and generator, and one element operation per operator,
    applied pairwise left to right."""
    kind = node[0]
    if kind == "num":
        return alg.unit() * FieldElem(node[1])
    if kind == "sym":
        name = node[1]
        if name in alg.index:
            return alg.gen(name)
        if name == alg.param:
            return alg.scalar(FE_ONE, 1)
        if name == "sqrt2":
            return alg.unit() * FE_SQRT2
        raise UnknownSymbol(name)
    if kind == "add":
        out = None
        for negated, term in node[1]:
            x = reference_eval(term, alg)
            if out is None:
                out = -x if negated else x
            else:
                out = out - x if negated else out + x
        return out
    if kind == "mul":
        return reduce(lambda a, f: a * reference_eval(f, alg), node[1][1:],
                      reference_eval(node[1][0], alg))
    if kind == "pow":
        return reference_eval(node[1], alg) ** node[2]
    if kind == "exp":
        return exp_element(reference_eval(node[1], alg))
    raise AssertionError(node)


NUMBERS = ("0", "1", "3", "1/2", "5/3", "2 / 7", "12")


def truncated_exp(x):
    out = term = x.algebra.unit()
    for k in range(1, x.algebra.order + 1):
        term = term * x * FieldElem(rat(1, k))
        out = out + term
    return out


def random_expression(rng, alg, depth=2):
    """Random text of the language with its value, the value built by element
    operations while the text is written (no parser involved)."""
    text, value = "", None
    for i in range(rng.randint(1, 4)):
        t, v = random_term(rng, alg, depth)
        negated = rng.random() < 0.4
        if i == 0:
            text, value = ("-" + t, -v) if negated else (t, v)
        else:
            text += (" - " if negated else " + ") + t
            value = value - v if negated else value + v
    return text, value


def random_term(rng, alg, depth):
    texts, value = [], alg.unit()
    for _ in range(rng.randint(1, 3)):
        t, v = random_factor(rng, alg, depth)
        texts.append(t)
        value = value * v
    return "*".join(texts), value


def random_factor(rng, alg, depth):
    roll = rng.random()
    if roll < 0.15:
        n = rng.choice(NUMBERS) if rng.random() < 0.9 else "0"
        a, _, b = n.replace(" ", "").partition("/")
        t, v = n, alg.unit() * FieldElem(rat(int(a), int(b or 1)))
    elif roll < 0.22:
        t, v = "sqrt2", alg.unit() * FE_SQRT2
    elif roll < 0.4:
        t, v = alg.param, alg.scalar(FE_ONE, 1)
        e = rng.randint(1, alg.order + 2)  # above the order: truncation
        return f"{t}^{e}", v ** e
    elif roll < 0.8 or depth == 0:
        g = rng.choice(alg.generators)
        t, v = g, alg.gen(g)
    elif roll < 0.9:
        t, v = random_expression(rng, alg, depth - 1)
        t = f"({t})"
    else:
        c = rng.choice(NUMBERS[1:])
        g = rng.choice(alg.generators)
        x = alg.gen(g) * FieldElem(rat(*map(int, c.replace(" ", "").split("/"))))
        return f"exp({c}*{alg.param}*{g})", truncated_exp(x.scaled(FE_ONE, 1))
    if rng.random() < 0.2:
        e = rng.randint(0, 2)
        return f"{t}^{e}", v ** e
    return t, v


ORACLE_ALGEBRAS = [("sl2", 4), ("nullplane", 4), ("so22", 3), ("sl2", 3), ("nullplane", 3)]


class TestFoldOracle:
    """The folding evaluator equals element arithmetic on random expressions:
    scalars, sqrt2, parameter powers above the order, generator words in and
    out of normal order, unary minus, nesting, exp factors and powers."""

    @pytest.mark.parametrize("name, order", ORACLE_ALGEBRAS)
    def test_random_expressions(self, name, order):
        alg = preset(name, order).presentation
        rng = random.Random(f"{name}-{order}")
        for _ in range(50):
            text, want = random_expression(rng, alg)
            got = parse_to_element(text, alg)
            assert got == want, text
            assert got == reference_eval(parse_expression(text), alg), text
            assert parse_to_element(render_element(got), alg) == got, text

    @pytest.mark.parametrize("text, error", [
        ("0*Q", UnknownSymbol),
        ("0*A*Q^2 + A", UnknownSymbol),
        ("A - 0*exp(z*A*A_plus)", ExpressionError),
        ("0*exp(2*A_plus)*A", ExpressionError),
        ("z^9*Q", UnknownSymbol),
    ])
    def test_a_zero_factor_still_checks_the_rest_of_the_term(self, text, error):
        alg = preset("sl2", 3).presentation
        with pytest.raises(error):
            parse_to_element(text, alg)

    def test_flat_nodes(self):
        assert parse_expression("-A + B - 2*C^2*D") == (
            "add", [(True, ("sym", "A")), (False, ("sym", "B")),
                    (True, ("mul", [("num", 2), ("pow", ("sym", "C"), 2), ("sym", "D")]))])
        assert parse_expression("((A))") == ("sym", "A")
        assert parse_expression("A^2^3") == ("pow", ("sym", "A"), 6)


class TestRobustness:
    """Long sums and products are flat nodes; nesting has a fixed limit."""

    @pytest.fixture(scope="class")
    def big_normal_form(self):
        alg = preset("nullplane", 2).presentation
        return render_element(parse_to_element(
            "(P_plus+P_1+P_minus+E_1+K_2+F_1+1)^6", alg))

    def test_long_normal_form_normalizes_to_itself(self, big_normal_form):
        assert big_normal_form.count(" + ") + big_normal_form.count(" - ") + 1 == 1120
        r = normalize_cli(big_normal_form, "nullplane", 2)
        assert r.returncode == 0, r.stderr
        assert r.stdout == big_normal_form + "\n"

    def test_long_product_parses(self):
        alg = preset("sl2", 2).presentation
        assert parse_to_element("*".join(["A_plus"] * 1100), alg) == alg.gen("A_plus") ** 1100
        assert parse_to_element("A" + "^1" * 1100, alg) == alg.gen("A")

    def test_nesting_at_the_limit_evaluates(self):
        alg = preset("sl2", 2).presentation
        text = "(2*" * MAX_NESTING + "A" + ")" * MAX_NESTING
        assert parse_to_element(text, alg) == alg.gen("A") * 2 ** MAX_NESTING

    @pytest.mark.parametrize("opener", ["(", "exp("])
    def test_nesting_above_the_limit_is_a_syntax_error(self, opener):
        text = opener * (MAX_NESTING + 1) + "z*A" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ExpressionSyntaxError, match="nesting") as e:
            parse_expression(text)
        assert e.value.position == len(opener) * MAX_NESTING

    def test_deep_nesting_exits_2(self):
        r = normalize_cli("(" * 300 + "A" + ")" * 300, "sl2", 2)
        assert r.returncode == 2
        assert "nesting" in r.stderr and "Traceback" not in r.stderr

    def test_step_bound_counts_across_a_parenthesised_factor(self, monkeypatch):
        def commuting():
            alg = AlgebraPresentation("commuting", ("a", "b", "c"), "z", 1)
            alg.set_rules({(j, i): alg.element({(((i, 1), (j, 1)), 0): FE_ONE})
                           for j in range(3) for i in range(j)})
            return alg

        text = "c*b*a*(1 + c)*c*b*a"
        # the outer term fills 3 table entries before (1 + c) and 11 after it;
        # the factor and the product by it fill none.  A limit of 12 passes
        # either part on its own but not the 14 of the whole term
        before, whole = commuting(), commuting()
        parse_to_element("c*b*a", before)
        parse_to_element(text, whole)
        assert (len(before._table), len(whole._table)) == (3, 14)
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", 12)
        with pytest.raises(NonTerminating, match="exceeded"):
            parse_to_element(text, commuting())

    def test_power_chain_above_the_limit_is_an_error(self):
        with pytest.raises(ExpressionSyntaxError, match="exceeds the limit") as e:
            parse_expression("A^100^101")
        assert e.value.position == 6
