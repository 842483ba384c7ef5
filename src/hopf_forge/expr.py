"""Expression mini-language: parser and canonical renderers.

Grammar::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)*
    atom   := NUMBER | NAME | 'exp' '(' expr ')' | '(' expr ')'
    NUMBER := INT ['/' INT]

An exponent above :data:`MAX_EXPONENT` is an error, and so is a chain
``x^a^b`` whose power ``a*b`` is above it.  Parentheses and ``exp(`` nest at
most :data:`MAX_NESTING` deep; the opening token that goes deeper is a syntax
error at its position.

Scalars are rationals, ``sqrt2`` and the deformation parameter; every other
NAME must be a generator of the active presentation.  ``exp`` arguments are
restricted to sums of scalar multiples of single generators whose scalar has
positive valuation in the deformation parameter -- the only exponentials the
deformations use -- so the expansion truncates.

The parser builds flat nodes: a sum is one list of signed terms and a
product one list of factors, so neither the parser nor the evaluator recurses
per summand or per factor.  The evaluator sums the terms of every summand
into one dict of graded terms.  A product term is a left fold that starts from
the unit: a number or ``sqrt2`` scales the accumulator, ``param^e`` shifts
it (dropping powers above the order), and a generator ``g^e`` takes ``g``
``e`` times through the presentation's word-times-generator table
(:meth:`~hopf_forge.ncalg.AlgebraPresentation.fold`), which for a term
already in normal order is a plain append.  Only a compound factor -- a
parenthesized sum or product, ``exp(...)``, or a power of one -- is evaluated
as an element and multiplied in by the element product.  Shifting and
truncating at any point is exact, as every rule term has a power 0 or more.
The step bound counts per product term.

The text renderer emits exactly this language (graded-lex term order), which
is what makes parse/render a round trip on canonical forms.
"""

from __future__ import annotations

import re

from .coeff import FE_ONE, FE_SQRT2, rat
from .ncalg import NCElement, add_term, exp_series

# Largest exponent ``x^n`` accepted.  Powers are formed by repeated squaring,
# and a product folds its right factor one block ``g^e`` at a time, so the cap
# bounds the exponents in the words a power builds.  The rewriting that a power
# of a word out of normal order needs grows about linearly in n:
# ``(F_1*P_minus)^n`` over the null-plane preset at order 2 fills 383, 767 and
# 1535 table entries at n = 200, 400 and 800.
MAX_EXPONENT = 10000

# Deepest nesting of parentheses and ``exp(`` accepted.  The parser and the
# evaluator recurse a few frames deep per level, so the cap keeps both inside
# Python's recursion limit.
MAX_NESTING = 100


class ExpressionError(Exception):
    pass


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(ExpressionError):
    def __init__(self, name):
        super().__init__(f"unknown symbol: {name}")
        self.name = name


# Every character that starts no token is a "bad" match, so the matches tile
# the text up to trailing whitespace.
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^()])|(?P<bad>\S))")


def _tokenize(text):
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            pos = m.start("bad")
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        val = m.group(kind)
        out.append((kind, val.replace(" ", "") if kind == "num" else val, m.start(kind)))
    out.append(("end", "", len(text)))
    return out


# AST nodes are plain tuples: ("num", rational), ("sym", name),
# ("add", [(negated, term), ...]), ("mul", [factor, ...]), ("pow", a, int),
# ("exp", a).  A sum of one unsigned term is that term, a product of one
# factor that factor, and a chain of powers one "pow" node.

class _Parser:
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
            # (x^a)^b is x^(a*b)
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
        """One level deeper, for the opening token at ``pos``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(f"nesting deeper than the limit {MAX_NESTING}", pos)


def parse_expression(text):
    """Parse the mini-language; returns the AST (no algebra needed yet)."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text)).parse()


def eval_expression(node, algebra):
    """Evaluate an AST to an NCElement of the given presentation."""
    return NCElement(algebra, _terms(node, algebra))


_ATOMS = ("num", "sym")


def _terms(node, alg):
    """The graded terms ``{(normal word, k): scalar}`` of a node, in a new dict."""
    kind = node[0]
    if kind == "add":
        out = {}
        for negated, term in node[1]:
            part = _terms(term, alg)
            if not out and not negated:
                out = part
                continue
            for key, c in part.items():
                add_term(out, key, -c if negated else c)
        return out
    if kind == "mul":
        return _product(node[1], alg)
    if kind in _ATOMS or kind == "pow" and node[1][0] in _ATOMS:
        return _product((node,), alg)
    if kind == "exp":
        return exp_element(eval_expression(node[1], alg)).terms
    if kind == "pow":
        return (eval_expression(node[1], alg) ** node[2]).terms
    raise ExpressionError(f"bad AST node {kind!r}")


def _product(factors, alg):
    """Fold a product term's factors into the unit, left to right."""
    one = {((), 0): FE_ONE}
    acc = one
    start = True  # the step bound counts per product term
    for f in factors:
        e = 1
        if f[0] == "pow" and f[1][0] in _ATOMS:
            f, e = f[1], f[2]
        if f[0] == "num":
            c = f[1] ** e
        elif f[0] == "sym":
            name = f[1]
            g = alg.index.get(name)
            if g is not None:
                if e:  # g^0 is the unit
                    acc = alg.fold(acc, ((g, e),), start)
                    start = False
                continue
            if name == alg.param:
                top = alg.order
                acc = {(w, k + e): c for (w, k), c in acc.items() if k + e <= top}
                continue
            if name != "sqrt2":
                raise UnknownSymbol(name)
            c = FE_SQRT2 ** e
        else:
            # the factor and the product by it are bounded on their own
            misses = alg._misses
            x = eval_expression(f, alg)
            acc = x.terms if acc is one else (NCElement(alg, acc) * x).terms
            alg._misses = misses
            continue
        if c != 1:  # a nonzero scalar leaves every term nonzero
            acc = {key: v * c for key, v in acc.items()} if c else {}
    return acc


def exp_element(arg):
    """exp of a sum of scalar multiples of single generators."""
    for w, k in arg.terms:
        degree = sum(e for _, e in w)
        if degree != 1:
            raise ExpressionError(
                "exp argument must be a sum of scalar multiples of single generators")
        if k < 1:
            raise ExpressionError(
                "exp argument scalars need a positive power of the deformation parameter")
    return exp_series(arg.scaled(FE_ONE, -1), arg.algebra.unit())


def parse_to_element(text, algebra):
    return eval_expression(parse_expression(text), algebra)


# -- rendering ---------------------------------------------------------------

def _fe_str(fe, fmt):
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


def _series_str(param, series, fmt):
    """Render one word's coefficient series, ``((k, scalar), ...)``;
    parenthesized when it is a true sum."""
    bits = []
    for k, c in series:
        cs = _fe_str(c, fmt)
        if k == 0:
            bits.append(cs)
        else:
            p = param if k == 1 else (f"{param}^{k}" if fmt != "latex" else f"{param}^{{{k}}}")
            if cs == "1":
                bits.append(p)
            elif cs == "-1":
                bits.append(f"-{p}")
            else:
                sep = "*" if fmt != "latex" else " "
                bits.append(f"{cs}{sep}{p}")
    if not bits:
        return "0"
    if len(bits) == 1:
        return bits[0]
    joined = bits[0]
    for b in bits[1:]:
        joined += f"-{b[1:]}" if b.startswith("-") else f"+{b}"
    return f"({joined})"


def _gen_str(algebra, g, e, fmt):
    name = algebra.generators[g]
    if fmt == "latex":
        name = getattr(algebra, "latex_names", {}).get(name, name)
        return name if e == 1 else f"{name}^{{{e}}}"
    return name if e == 1 else f"{name}^{e}"


def _word_str(algebra, word, fmt):
    if not word:
        return ""
    sep = "*" if fmt != "latex" else " "
    return sep.join(_gen_str(algebra, g, e, fmt) for g, e in word)


def _term_str(param, ws, coeff, fmt):
    """One term: the coefficient series ``coeff`` in front of the rendered
    word ``ws`` (a tensor's joined slots)."""
    cs = _series_str(param, coeff, fmt)
    if not ws:
        return cs
    if cs == "1":
        return ws
    if cs == "-1":
        return f"-{ws}"
    sep = "*" if fmt != "latex" else r" \, "
    return f"{cs}{sep}{ws}"


def _join_terms(parts):
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += f" - {p[1:]}"
        else:
            out += f" + {p}"
    return out


def render_element(elem, fmt="text"):
    if fmt == "json":
        import json
        return json.dumps(elem.to_dict(), sort_keys=True)
    alg = elem.algebra
    parts = [_term_str(alg.param, _word_str(alg, w, fmt), s, fmt) for w, s in elem.by_word()]
    return _join_terms(parts)


def render_tensor(t, fmt="text"):
    if fmt == "json":
        import json
        return json.dumps(t.to_dict(), sort_keys=True)
    otimes = r" \otimes " if fmt == "latex" else "⊗"
    alg = t.algebra
    parts = [_term_str(alg.param, otimes.join(_word_str(alg, w, fmt) or "1" for w in ws), s, fmt)
             for ws, s in t.by_word()]
    return _join_terms(parts)
