"""Expression mini-language: grammar, errors, render round-trips."""

import random
import re
import subprocess
import sys
from functools import reduce
from math import gcd

import pytest

from hopf_forge import ncalg
from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE, FE_SQRT2, FieldElem, rat
from hopf_forge.expr import (MAX_EXPONENT, MAX_NESTING, ExpressionError,
                             ExpressionSyntaxError, UnknownSymbol, _scalar_str,
                             eval_expression, exp_element, parse_expression,
                             parse_to_element, render_element, render_tensor)
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
        return alg.unit() * node[1]
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


def heisenberg(order):
    """A < B < C with [A, B] = z*C and C central: B*A is out of order."""
    alg = AlgebraPresentation("heisenberg", ("A", "B", "C"), "z", order)
    alg.set_commutators({(0, 1): alg.gen("C").scaled(FE_ONE, 1),
                         (0, 2): alg.zero(), (1, 2): alg.zero()})
    return alg


class TestSingleTerm:
    """A product term stays one scalar, one power and one word until a
    generator below the word's last one or a compound factor comes."""

    @pytest.mark.parametrize("algebra, text", [
        ("heisenberg", "0*A*(B+C)"),  # a zero scalar before a compound factor
        ("heisenberg", "0*B*A"),  # a zero scalar before a descent
        ("heisenberg", "z^5*A*(B)"),  # a power above the order
        ("heisenberg", "z^4*B*A"),  # at the order, the descent's z*C drops
        ("heisenberg", "A^0*z^0*(B)"),  # the unit before a compound factor
        ("heisenberg", "1*(A)"),
        ("heisenberg", "2*z*B*C*A*B"),
        ("sl2", "sqrt2^2*A*A_plus"),
        ("sl2", "A_plus*A*A_plus"),  # a descent after a run
        ("sl2", "A*A^2*z*A"),  # equal generators merge
        ("sl2", "1/2*A_plus^2*z*A*sqrt2*A_minus*A_plus"),
    ])
    def test_against_element_arithmetic(self, algebra, text):
        alg = heisenberg(4) if algebra == "heisenberg" else preset(algebra, 4).presentation
        assert parse_to_element(text, alg) == reference_eval(parse_expression(text), alg)

    def test_canonical_text_never_reaches_the_table(self, monkeypatch):
        texts = []
        for name in ("sl2", "so22", "nullplane", "sl2-jbasis"):
            b = preset(name, 4)
            alg = b.presentation
            elements = list(b.casimirs.values()) + list(b.hopf.antipode.values())
            texts += [(alg, render_element(x), x) for x in elements]

        def no_fold(self, terms, word):
            raise AssertionError(f"fold by {word} in {self.name}")

        monkeypatch.setattr(AlgebraPresentation, "fold", no_fold)
        for alg, text, x in texts:
            assert parse_to_element(text, alg) == x, text


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


# -- the front end against the per-token reference -----------------------------
#
# The tokenizer, parser and coefficient renderer that built a (kind, value,
# position) tuple per token, a Fraction per number and two Fractions per
# rendered coefficient.  The front end must give the same trees, the same
# errors at the same positions and the same text.

_REF_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                        r"|(?P<op>[-+*^()])|(?P<bad>\S))")


def reference_tokenize(text):
    out = []
    for m in _REF_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            pos = m.start("bad")
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        val = m.group(kind)
        out.append((kind, val.replace(" ", "") if kind == "num" else val, m.start(kind)))
    out.append(("end", "", len(text)))
    return out


class ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {val!r}", pos)
        return node

    def expr(self):
        kind, val, _ = self.peek()
        negated = kind == "op" and val == "-"
        if negated:
            self.take()
        terms = [(negated, self.term())]
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                break
            self.take()
            terms.append((val == "-", self.term()))
        if len(terms) == 1 and not negated:
            return terms[0][1]
        return ("add", terms)

    def term(self):
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val != "*":
                break
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("mul", factors)

    def factor(self):
        node = self.atom()
        power = None
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val != "^":
                break
            self.take()
            k, v, pos = self.take()
            if k != "num" or "/" in v:
                raise ExpressionSyntaxError("exponent must be an integer", pos)
            if int(v) > MAX_EXPONENT:
                raise ExpressionSyntaxError(
                    f"exponent {v} exceeds the limit {MAX_EXPONENT}", pos)
            power = int(v) if power is None else power * int(v)
            if power > MAX_EXPONENT:
                raise ExpressionSyntaxError(
                    f"power x^{power} exceeds the limit {MAX_EXPONENT}", pos)
        return node if power is None else ("pow", node, power)

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            if "/" in val:
                n, d = val.split("/")
                if int(d) == 0:
                    raise ExpressionSyntaxError("zero denominator", pos)
                return ("num", rat(int(n), int(d)))
            return ("num", rat(int(val)))
        if kind == "name" and val != "exp":
            return ("sym", val)
        if kind == "name":
            self.enter(pos)
            self.expect_op("(")
            inner = ("exp", self.expr())
        elif kind == "op" and val == "(":
            self.enter(pos)
            inner = self.expr()
        else:
            raise ExpressionSyntaxError(
                f"unexpected {val!r}" if val else "unexpected end of input", pos)
        self.expect_op(")")
        self.depth -= 1
        return inner

    def enter(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(f"nesting deeper than the limit {MAX_NESTING}", pos)


def reference_parse(text):
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return ReferenceParser(reference_tokenize(text)).parse()


def reference_fe_str(fe, fmt):
    a, b = fe.a, fe.b
    if fmt == "latex":
        def q(x):
            if x.denominator == 1:
                return str(x)
            s = "-" if x < 0 else ""
            return rf"{s}\frac{{{abs(x.numerator)}}}{{{x.denominator}}}"
        root = r"\sqrt{2}"
    else:
        def q(x):
            return str(x)
        root = "sqrt2"
    if not b:
        return q(a)
    if b == 1:
        bs = root
    elif b == -1:
        bs = f"-{root}"
    else:
        bs = f"{q(b)}*{root}" if fmt != "latex" else f"{q(b)}{root}"
    if not a:
        return bs
    joiner = "+" if b > 0 else ""
    return f"({q(a)}{joiner}{bs})"


def outcome(parse, text):
    """The tree ``parse`` makes of ``text``, or its error's type, message and
    position."""
    try:
        return ("tree", parse(text))
    except ExpressionSyntaxError as e:
        return (type(e), str(e), e.position)


def nums(node):
    """Every number of a tree."""
    if node[0] == "num":
        return [node[1]]
    if node[0] == "add":
        return [x for _, t in node[1] for x in nums(t)]
    if node[0] == "mul":
        return [x for f in node[1] for x in nums(f)]
    return nums(node[1]) if node[0] in ("pow", "exp") else []


ERROR_CORPUS = (
    "²*A", "A^²", "½*A", "٣*A", "A^٣", "١/٢*A", "𝟙*A", "A + $", "A + * $", "( $",
    "A^$", "3 / x", "A/2", "1 / 2*A", "1\t/\t2*A", "1 /\t2 + 3\t/ 4", "A 1 / 2",
    "A 1\t/\t2", "1 / 0", "0/0*A", "A^100^101", "A^100^100", "A^10001", "A^0010001",
    "A^1/2", "A^-1", "A^x", "A^", "A^2^", "A ^ 2", "(" * 101 + "A" + ")" * 101,
    "exp(" * 101 + "z*A" + ")" * 101, "(" * 100 + "A" + ")" * 100, "exp A", "exp(A",
    "exp", "exp()", "()", "(A", "A)", ")", "", "   ", "\t", "A + * B", "A*", "-", "--A",
    "A B", "2 3", "x_1^2", "_", "Aé", "é", "A + B", "\tA\t+\t", "A+", "+A",
    "-A - -B", "sqrt2*z^2*exp(1/2*z*A)", "1/2/3", "1/ 2 /3",
)


class TestFrontEndOracle:
    """Tokenizer, parser and renderer against the per-token reference."""

    @pytest.mark.parametrize("name, order", ORACLE_ALGEBRAS)
    def test_random_corpus_trees_and_elements(self, name, order):
        alg = preset(name, order).presentation
        rng = random.Random(f"{name}-{order}")
        for _ in range(50):
            text, _ = random_expression(rng, alg)
            want = reference_parse(text)
            got = parse_expression(text)
            assert got == want, text
            assert all(type(c) is FieldElem for c in nums(got)), text
            assert parse_to_element(text, alg) == eval_expression(want, alg), text

    @pytest.mark.parametrize("text", ERROR_CORPUS)
    def test_error_corpus(self, text):
        assert outcome(parse_expression, text) == outcome(reference_parse, text)

    def test_random_token_soup(self):
        alphabet = ("A", "B", "z", "sqrt2", "exp", "(", ")", "+", "-", "*", "^", "1",
                    "2/3", " / ", "0", "10001", "$", "²", "٣", "é", " ", "\t", "x_1")
        rng = random.Random(26)
        ok = 0
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            want = outcome(reference_parse, text)
            assert outcome(parse_expression, text) == want, repr(text)
            ok += want[0] == "tree"
        assert 100 < ok < 2900  # both paths are exercised

    def test_rendered_coefficients(self):
        rng = random.Random(26)
        seen = dict.fromkeys(("rational", "a+b*sqrt2", "b*sqrt2", "+-sqrt2", "negative",
                              "p shares d", "q shares d"), 0)
        for _ in range(5000):
            d = rng.choice((1, 1, 2, 3, 4, 6, 9, 12, 35, 210))
            p, q = (rng.choice((0, rng.randint(-300, 300))) for _ in range(2))
            roll = rng.random()
            if roll < 0.1:
                q = rng.choice((d, -d))  # (p/d) +- sqrt2
            elif roll < 0.3 and d > 1:
                # a factor of d shared by p only, or by q only
                f = next(f for f in (2, 3, 5, 7) if d % f == 0)
                p, q = (p * f, q * f + 1) if rng.random() < 0.5 else (p * f + 1, q * f)
            c = FieldElem(rat(p, d), rat(q, d))
            for kind, hit in (("rational", not c.q), ("a+b*sqrt2", c.p and c.q),
                              ("b*sqrt2", not c.p and c.q), ("+-sqrt2", abs(c.q) == c.d),
                              ("negative", c.p < 0 or c.q < 0),
                              ("p shares d", gcd(c.p, c.d) > 1 and gcd(c.q, c.d) == 1),
                              ("q shares d", gcd(c.q, c.d) > 1 and gcd(c.p, c.d) == 1)):
                seen[kind] += bool(hit)
            for fmt in ("text", "latex"):
                assert _scalar_str(c, fmt == "latex") == reference_fe_str(c, fmt), (c, fmt)
        assert min(seen.values()) > 100, seen


# -- numbers and coefficients past the interpreter's int-string limit -------

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="no int-string conversion limit")


@needs_limit
class TestIntStringLimit:
    @pytest.mark.parametrize("text, position", [
        ("1" * (LIMIT + 1) + "*A", 0),
        ("A^" + "1" * (LIMIT + 1), 2),
        ("A + 1/" + "3" * (LIMIT + 1), 4),
        ("(" + "2" * (LIMIT + 1) + " / 3)", 1),
    ])
    def test_long_number_is_a_syntax_error_at_its_position(self, text, position):
        with pytest.raises(ExpressionSyntaxError, match=f"limit of {LIMIT} digits") as e:
            parse_expression(text)
        assert e.value.position == position

    def test_number_at_the_limit_parses(self):
        alg = preset("sl2", 1).presentation
        n = int("7" * LIMIT)
        assert parse_to_element("7" * LIMIT + "*A", alg) == alg.gen("A") * n

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    def test_long_coefficient_is_an_expression_error(self, fmt):
        alg = preset("sl2", 1).presentation
        x = alg.gen("A") * 10 ** LIMIT  # LIMIT + 1 digits
        with pytest.raises(ExpressionError, match=f"limit of {LIMIT} digits"):
            render_element(x, fmt)
        t = ncalg.tensor_pair(x, alg.unit())
        with pytest.raises(ExpressionError, match=f"limit of {LIMIT} digits"):
            render_tensor(t, fmt)
        # one digit fewer prints
        assert render_element(alg.gen("A") * 10 ** (LIMIT - 1), fmt)

    @pytest.mark.parametrize("argv", [
        ["normalize", "1" * (LIMIT + 1) + "*A", "--algebra", "sl2"],
        ["normalize", "A^" + "1" * (LIMIT + 1), "--algebra", "sl2"],
        ["normalize", "(3*A)^10000", "--algebra", "sl2", "--order", "1"],
        ["normalize", "(3*A)^10000", "--algebra", "sl2", "--order", "1", "--format", "json"],
        ["expand", "(3*A)^10000", "--algebra", "sl2", "--order", "1", "--format", "json"],
    ])
    def test_cli_exits_2(self, argv):
        r = subprocess.run([sys.executable, "-m", "hopf_forge", *argv],
                           capture_output=True, text=True)
        assert r.returncode == 2, r.stderr
        assert r.stdout == "" and "Traceback" not in r.stderr
        assert f"limit of {LIMIT} digits" in r.stderr


def expression_trees(names, param):
    """Expression text built from sums, products, powers up to 3 and exp of
    param-scaled generator sums."""
    from hypothesis import strategies as st
    gen_sum = st.lists(st.sampled_from(names), min_size=1, max_size=3).map("+".join)
    leaf = st.one_of(st.sampled_from(names), st.sampled_from(("2", "1/3", param)),
                     gen_sum.map(lambda s: f"exp({param}*({s}))"))

    def grow(inner):
        return st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: "(" + " + ".join(xs) + ")"),
            st.lists(inner, min_size=2, max_size=3).map("*".join),
            st.tuples(inner, st.integers(1, 3)).map(lambda p: f"({p[0]})^{p[1]}"))
    return st.recursive(leaf, grow, max_leaves=5)


class TestGeneratedTrees:
    """Generated trees over sl2, nullplane and so22 at orders 2 and 3."""

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22"])
    def test_render_parse_fixed_point_and_reference_value(self, name, order):
        from hypothesis import given, settings
        alg = preset(name, order).presentation

        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @given(expression_trees(list(alg.generators), alg.param))
        def check(text):
            got = parse_to_element(text, alg)
            assert got == reference_eval(parse_expression(text), alg), text
            once = render_element(got)
            assert render_element(parse_to_element(once, alg)) == once, text

        check()
