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
error at its position.  A number longer than the interpreter's limit for
integer conversion (``sys.get_int_max_str_digits()``, 4300 digits by default)
is a syntax error at its position, and a result coefficient longer than that
limit an :class:`ExpressionError` when it is rendered.

Scalars are rationals, ``sqrt2`` and the deformation parameter; every other
NAME must be a generator of the active presentation.  ``exp`` arguments are
restricted to sums of scalar multiples of single generators whose scalar has
positive valuation in the deformation parameter -- the only exponentials the
deformations use -- so the expansion truncates.

The text is split into plain token strings by one ``findall``, and the parser
reads them by index; a token's kind is its first character, exactly as the
token regex chose it (a decimal digit, an ASCII letter or ``_``, an operator,
or any other character, which is an error).  Token positions are recomputed
from the text only when a syntax error is raised.  Each number becomes a
:class:`~hopf_forge.coeff.FieldElem` once, when it is parsed.

The parser builds flat nodes: a sum is one list of signed terms and a
product one list of factors, so neither the parser nor the evaluator recurses
per summand or per factor.  The evaluator sums the terms of every summand
into one dict of graded terms.  A product term is read left to right as one
scalar, one power of the parameter and one normal word for as long as it is
one term: a number or ``sqrt2`` multiplies the scalar, ``param^e`` adds ``e``
to the power, and a generator ``g^e`` at or above the word's last generator
appends to the word (or raises its last exponent).  The first generator below
the word's last one turns the term into a dict of graded terms -- empty when
the scalar is 0 or the power is above the order -- and the rest of the term
is a left fold of that dict: ``g^e`` takes ``g`` ``e`` times through the
presentation's word-times-generator table
(:meth:`~hopf_forge.ncalg.AlgebraPresentation.fold`), a scalar scales it and
``param^e`` shifts it, dropping powers above the order.  A compound factor --
a parenthesized sum or product, ``exp(...)``, or a power of one -- also turns
the term into a dict; it is evaluated as an element and multiplied in by the
element product.  Shifting and truncating at any point is exact, as every
rule term has a power 0 or more.  The step bound counts per product term.

A term of canonical text with one coefficient is a single-term product, and
one with a coefficient series is the series times a normal word, which the
fold only appends to; so re-reading rendered output never consults the
rewriting table.

The text renderer emits exactly this language (graded-lex term order), which
is what makes parse/render a round trip on canonical forms.  It writes each
coefficient from its canonical integer triple.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import islice
from math import gcd

from .coeff import FE_ONE, FE_SQRT2, _canon, _make
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


# One group, so that ``findall`` returns the token strings.  Every character
# that starts no other token is a token of its own, a bad one, so the matches
# tile the text up to trailing whitespace.
_TOKEN = re.compile(r"\s*(\d+(?:\s*/\s*\d+)?|[A-Za-z_][A-Za-z0-9_]*|[-+*^()]|\S)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_OPS = frozenset("-+*^()")
_SIGNS = frozenset("+-")


def _is_bad(token):
    r"""A token the regex matched as ``\S`` only: its first character is no
    ``\d`` (``str.isdecimal``), name start or operator."""
    c = token[:1]
    return bool(c) and not (c.isdecimal() or c in _NAME_START or c in _OPS)


# AST nodes are plain tuples: ("num", FieldElem), ("sym", name),
# ("add", [(negated, term), ...]), ("mul", [factor, ...]), ("pow", a, int),
# ("exp", a).  A sum of one unsigned term is that term, a product of one
# factor that factor, and a chain of powers one "pow" node.

class _Parser:
    """Recursive descent over the token strings: ``tokens[i]`` is the next
    token, and an empty string ends the list."""

    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")
        self.i = 0
        self.depth = 0

    def error(self, message, i):
        """The syntax error at token ``i``.  A bad character anywhere in the
        text is reported instead, at its own position: it is an error whatever
        the grammar makes of the tokens before it."""
        for j, t in enumerate(self.tokens):
            if _is_bad(t):
                message, i = f"unexpected character {t!r}", j
                break
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        return ExpressionSyntaxError(message, m.start(1) if m else len(self.text))

    def integer(self, digits, i):
        """The int of token ``i``'s ``digits``; the one place text becomes an int."""
        try:
            return int(digits)
        except ValueError:  # only a number longer than the conversion limit
            raise self.error(f"number longer than the limit of {sys.get_int_max_str_digits()}"
                             " digits", i) from None

    def parse(self):
        node = self.expr()
        t = self.tokens[self.i]
        if t:
            raise self.error(f"unexpected trailing {t.replace(' ', '')!r}", self.i)
        return node

    def expr(self):
        tokens = self.tokens
        negated = tokens[self.i] == "-"
        if negated:
            self.i += 1
        terms = [(negated, self.term())]
        while tokens[self.i] in _SIGNS:
            sign = tokens[self.i]
            self.i += 1
            terms.append((sign == "-", self.term()))
        if len(terms) == 1 and not negated:
            return terms[0][1]
        return ("add", terms)

    def term(self):
        factors = [self.factor()]
        while self.tokens[self.i] == "*":
            self.i += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("mul", factors)

    def factor(self):
        i = self.i
        tokens = self.tokens
        t = tokens[i]
        self.i = i + 1
        c = t[:1]
        if c in _NAME_START and t != "exp":
            node = ("sym", t)
        elif c.isdecimal():
            node = ("num", self.number(t, i))
        else:
            node = self.group(t, i)
        power = None
        while tokens[self.i] == "^":
            i = self.i + 1
            v = tokens[i]
            self.i = i + 1
            if not v[:1].isdecimal() or "/" in v:
                raise self.error("exponent must be an integer", i)
            n = self.integer(v, i)
            if n > MAX_EXPONENT:
                raise self.error(f"exponent {v} exceeds the limit {MAX_EXPONENT}", i)
            # (x^a)^b is x^(a*b)
            power = n if power is None else power * n
            if power > MAX_EXPONENT:
                raise self.error(f"power x^{power} exceeds the limit {MAX_EXPONENT}", i)
        return node if power is None else ("pow", node, power)

    def number(self, t, i):
        """The numeral ``t``, token ``i``, as a FieldElem."""
        if "/" not in t:
            return _make(self.integer(t, i), 0, 1)
        n, d = t.split("/")
        d = self.integer(d, i)
        if not d:
            raise self.error("zero denominator", i)
        return _canon(self.integer(n, i), 0, d)

    def group(self, t, i):
        """``exp(expr)`` or ``(expr)`` opened by ``t``, token ``i``."""
        if t != "exp" and t != "(":
            raise self.error(f"unexpected {t!r}" if t else "unexpected end of input", i)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than the limit {MAX_NESTING}", i)
        if t == "exp":
            if self.tokens[self.i] != "(":
                raise self.error("expected '('", self.i)
            self.i += 1
            inner = ("exp", self.expr())
        else:
            inner = self.expr()
        if self.tokens[self.i] != ")":
            raise self.error("expected ')'", self.i)
        self.i += 1
        self.depth -= 1
        return inner


def parse_expression(text):
    """Parse the mini-language; returns the AST (no algebra needed yet)."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(text).parse()


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


def _single(c, k, word, top):
    """The graded dict of the one term ``c * param**k * word``: empty when
    ``c`` is zero or ``k`` is above ``top``."""
    return {(word, k): c} if c and k <= top else {}


def _product(factors, alg):
    """A product term's graded terms, its factors taken left to right.

    While it is one term the product is a scalar ``c``, a power ``k`` and a
    normal ``word``; ``acc``, its graded dict, takes over at the first
    generator below the word's last one or the first compound factor."""
    c, k, word, acc = FE_ONE, 0, (), None
    alg._misses = 0  # the step bound counts per product term
    index, top = alg.index, alg.order
    for f in factors:
        kind, e = f[0], 1
        if kind == "pow" and f[1][0] in _ATOMS:
            f, e = f[1], f[2]
            kind = f[0]
        if kind == "sym":
            name = f[1]
            g = index.get(name)
            if g is not None:
                if not e:  # g^0 is the unit
                    continue
                if acc is None:
                    if not word or word[-1][0] < g:
                        word += ((g, e),)
                        continue
                    if word[-1][0] == g:
                        word = word[:-1] + ((g, word[-1][1] + e),)
                        continue
                    acc = _single(c, k, word, top)
                acc = alg.fold(acc, ((g, e),))
                continue
            if name == alg.param:
                if acc is None:
                    k += e
                else:
                    acc = {(w, j + e): v for (w, j), v in acc.items() if j + e <= top}
                continue
            if name != "sqrt2":
                raise UnknownSymbol(name)
            s = FE_SQRT2 if e == 1 else FE_SQRT2 ** e
        elif kind == "num":
            s = f[1] if e == 1 else f[1] ** e
        else:
            # the factor and the product by it are bounded on their own
            misses = alg._misses
            x = eval_expression(f, alg)
            if acc is None and not k and not word and c == 1:
                acc = x.terms  # the unit times x
            else:
                if acc is None:
                    acc = _single(c, k, word, top)
                acc = (NCElement(alg, acc) * x).terms
            alg._misses = misses
            continue
        if acc is None:
            c = c * s
        elif s != 1:  # a nonzero scalar leaves every term nonzero
            acc = {key: v * s for key, v in acc.items()} if s else {}
    return _single(c, k, word, top) if acc is None else acc


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

def _too_long():
    return ExpressionError(f"a coefficient is longer than the limit of "
                           f"{sys.get_int_max_str_digits()} digits for printing an integer")


def _rational_str(n, d, latex):
    """n/d (d > 0) in lowest terms."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    if d == 1:
        return str(n)
    if latex:
        return rf"{'-' if n < 0 else ''}\frac{{{abs(n)}}}{{{d}}}"
    return f"{n}/{d}"


def _scalar_str(c, latex):
    """The FieldElem ``c`` = (p + q*sqrt2)/d, written from its triple."""
    p, q, d = c.p, c.q, c.d
    if not q:
        return str(p) if d == 1 else _rational_str(p, d, latex)
    root = r"\sqrt{2}" if latex else "sqrt2"
    if q == d:
        bs = root
    elif q == -d:
        bs = f"-{root}"
    else:
        bs = f"{_rational_str(q, d, latex)}{'' if latex else '*'}{root}"
    if not p:
        return bs
    return f"({_rational_str(p, d, latex)}{'+' if q > 0 else ''}{bs})"


def _power_str(param, k, c, latex):
    """One coefficient ``c * param**k``."""
    try:  # every text and latex coefficient is written here
        cs = _scalar_str(c, latex)
    except ValueError:  # an int longer than the conversion limit
        raise _too_long() from None
    if k == 0:
        return cs
    p = param if k == 1 else (f"{param}^{{{k}}}" if latex else f"{param}^{k}")
    if cs == "1":
        return p
    if cs == "-1":
        return f"-{p}"
    return f"{cs}{' ' if latex else '*'}{p}"


def _series_str(param, series, latex):
    """A word's coefficient series of more than one power, ``((k, scalar),
    ...)``, as a parenthesized sum."""
    bits = [_power_str(param, k, c, latex) for k, c in series]
    joined = bits[0]
    for b in bits[1:]:
        joined += f"-{b[1:]}" if b.startswith("-") else f"+{b}"
    return f"({joined})"


def _render_rows(param, rows, fmt):
    """The terms ``rows``, one ``(sort key, k, spelled word, scalar)`` each, in
    key order; the terms of one word share its coefficient series."""
    rows.sort()  # (key, k) is unique per term, so no word or scalar is compared
    latex = fmt == "latex"
    sep = r" \, " if latex else "*"
    parts = []
    i, n = 0, len(rows)
    while i < n:
        key, k, ws, c = rows[i]
        j = i + 1
        while j < n and rows[j][0] == key:
            j += 1
        if j == i + 1:
            cs = _power_str(param, k, c, latex)
        else:
            cs = _series_str(param, [(r[1], r[3]) for r in rows[i:j]], latex)
        i = j
        if not ws:
            parts.append(cs)
        elif cs == "1":
            parts.append(ws)
        elif cs == "-1":
            parts.append(f"-{ws}")
        else:
            parts.append(f"{cs}{sep}{ws}")
    return _join_terms(parts)


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


def to_json(doc):
    """``doc`` as sorted-key JSON; a coefficient longer than the interpreter's
    limit for printing an integer is an :class:`ExpressionError`."""
    try:
        return json.dumps(doc, sort_keys=True)
    except ValueError:
        raise _too_long() from None


def render_element(elem, fmt="text"):
    if fmt == "json":
        return to_json(elem.to_dict())
    alg = elem.algebra
    at = 2 if fmt == "latex" else 1  # the spelling's place in a word entry
    entry = alg.word_entry
    rows = []
    for (w, k), c in elem.terms.items():
        e = entry(w)
        rows.append((e[0], k, e[at], c))
    return _render_rows(alg.param, rows, fmt)


def render_tensor(t, fmt="text"):
    if fmt == "json":
        return to_json(t.to_dict())
    otimes = r" \otimes " if fmt == "latex" else "⊗"
    alg = t.algebra
    at = 2 if fmt == "latex" else 1
    entry = alg.word_entry
    rows = []
    for (ws, k), c in t.terms.items():
        es = [entry(w) for w in ws]
        rows.append((tuple(e[0] for e in es), k, otimes.join(e[at] or "1" for e in es), c))
    return _render_rows(alg.param, rows, fmt)
