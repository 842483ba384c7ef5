"""Expression mini-language: parser and canonical renderers.

Grammar::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)*
    atom   := NUMBER | NAME | 'exp' '(' expr ')' | '(' expr ')'
    NUMBER := INT ['/' INT]

An exponent above :data:`MAX_EXPONENT` is an error.

Scalars are rationals, ``sqrt2`` and the deformation parameter; every other
NAME must be a generator of the active presentation.  ``exp`` arguments are
restricted to sums of scalar multiples of single generators whose scalar has
positive valuation in the deformation parameter -- the only exponentials the
deformations use -- so the expansion truncates.

The text renderer emits exactly this language (graded-lex term order), which
is what makes parse/render a round trip on canonical forms.
"""

from __future__ import annotations

import re

from .coeff import FE_ONE, FE_SQRT2, FieldElem, rat

# Largest exponent ``x^n`` accepted.  Powers are formed by repeated squaring,
# but each product still folds a flat word as long as its factors' words
# together (``A_plus^n`` is one word with n letters), so the cap bounds the
# length of the words a power folds.  It does not bound the rewriting that a
# power of a word out of normal order needs, which grows faster than n.
MAX_EXPONENT = 10000


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


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group("num"):
            out.append(("num", m.group("num").replace(" ", ""), m.start("num")))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# AST nodes are plain tuples: ("num", rational), ("sym", name),
# ("add", [nodes]), ("sub", a, b), ("neg", a), ("mul", [nodes]),
# ("pow", a, int), ("exp", a)

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

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
        negate = False
        if kind == "op" and val == "-":
            self.take()
            negate = True
        node = self.term()
        if negate:
            node = ("neg", node)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = ("add", node, rhs) if val == "+" else ("sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.take()
                k, v, pos = self.take()
                if k != "num" or "/" in v:
                    raise ExpressionSyntaxError("exponent must be an integer", pos)
                if int(v) > MAX_EXPONENT:
                    raise ExpressionSyntaxError(
                        f"exponent {v} exceeds the limit {MAX_EXPONENT}", pos)
                node = ("pow", node, int(v))
            else:
                return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            if "/" in val:
                n, d = val.split("/")
                if int(d) == 0:
                    raise ExpressionSyntaxError("zero denominator", pos)
                return ("num", rat(int(n), int(d)))
            return ("num", rat(int(val)))
        if kind == "name":
            if val == "exp":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return ("exp", inner)
            return ("sym", val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse_expression(text):
    """Parse the mini-language; returns the AST (no algebra needed yet)."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text)).parse()


def eval_expression(node, algebra):
    """Evaluate an AST to an NCElement of the given presentation."""
    kind = node[0]
    if kind == "num":
        return algebra.unit() * FieldElem(node[1])
    if kind == "sym":
        name = node[1]
        if name in algebra.index:
            return algebra.gen(name)
        if name == algebra.param:
            return algebra.scalar(FE_ONE, 1)
        if name == "sqrt2":
            return algebra.unit() * FE_SQRT2
        raise UnknownSymbol(name)
    if kind == "add":
        return eval_expression(node[1], algebra) + eval_expression(node[2], algebra)
    if kind == "sub":
        return eval_expression(node[1], algebra) - eval_expression(node[2], algebra)
    if kind == "neg":
        return -eval_expression(node[1], algebra)
    if kind == "mul":
        return eval_expression(node[1], algebra) * eval_expression(node[2], algebra)
    if kind == "pow":
        return eval_expression(node[1], algebra) ** node[2]
    if kind == "exp":
        arg = eval_expression(node[1], algebra)
        return exp_element(arg)
    raise ExpressionError(f"bad AST node {kind!r}")


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
    alg = arg.algebra
    out = alg.unit()
    term = alg.unit()
    for k in range(1, alg.order + 1):
        term = (term * arg).scaled(rat(1, k))
        if term.is_zero():
            break
        out = out + term
    return out


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
        return "0", False
    if len(bits) == 1:
        return bits[0], False
    joined = bits[0]
    for b in bits[1:]:
        joined += f"-{b[1:]}" if b.startswith("-") else f"+{b}"
    return f"({joined})", True


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


def _term_str(algebra, word, coeff, fmt):
    cs, _ = _series_str(algebra.param, coeff, fmt)
    ws = _word_str(algebra, word, fmt)
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
    if elem.is_zero():
        return "0"
    parts = [_term_str(elem.algebra, w, s, fmt) for w, s in elem.by_word()]
    return _join_terms(parts)


def render_tensor(t, fmt="text"):
    if fmt == "json":
        import json
        return json.dumps(t.to_dict(), sort_keys=True)
    if t.is_zero():
        return "0"
    otimes = r" \otimes " if fmt == "latex" else "⊗"
    parts = []
    for ws, s in t.by_word():
        slots = otimes.join(_word_str(t.algebra, w, fmt) or "1" for w in ws)
        cs, _ = _series_str(t.algebra.param, s, fmt)
        if cs == "1":
            parts.append(slots)
        elif cs == "-1":
            parts.append(f"-{slots}")
        else:
            sep = "*" if fmt != "latex" else r" \, "
            parts.append(f"{cs}{sep}{slots}")
    return _join_terms(parts)
