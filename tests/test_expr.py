"""Expression mini-language: grammar, errors, render round-trips."""

import pytest

from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE
from hopf_forge.expr import (MAX_EXPONENT, ExpressionError, ExpressionSyntaxError,
                             UnknownSymbol, parse_expression, parse_to_element,
                             render_element, render_tensor)
from hopf_forge.ncalg import NCElement


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
