"""Order budgets: a word image built to ``top`` and a product truncated at
``top`` agree with the full-order ones on every power up to ``top``."""

import random

import pytest

from hopf_forge import diffrep
from hopf_forge.algebras import preset
from hopf_forge.ncalg import TensorElement, WordMap, tensor_pair

PRESETS = ("sl2", "so22", "nullplane", "sl2-jbasis")


def upto(terms, top):
    return {key: c for key, c in terms.items() if key[1] <= top}


def normal_words(n, degree):
    """Every normal word on ``n`` generators of degree 1 to ``degree``."""
    words = [()]
    for g in range(n):
        words = [w + ((g, e),) if e else w for w in words for e in range(degree + 1)]
    return [w for w in words if 0 < sum(e for _, e in w) <= degree]


def fresh_maps(hopf):
    alg = hopf.algebra
    return (WordMap(alg, hopf.delta, TensorElement.unit(alg, 2)),
            WordMap(alg, hopf.antipode, alg.unit(), reverse=True),
            WordMap(alg, {g: alg.scalar(c) for g, c in hopf.counit.items()}, alg.unit()))


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("name", PRESETS)
def test_budgeted_images_agree_below_their_budget(name, order):
    hopf = preset(name, order).hopf
    words = normal_words(len(hopf.algebra.generators), 3)
    for full, budgeted in zip(fresh_maps(hopf), fresh_maps(hopf)):
        for w in words:
            want = full.word(w).terms
            for top in range(order + 1):
                assert upto(budgeted.word(w, top).terms, top) == upto(want, top), (w, top)


@pytest.mark.parametrize("name", PRESETS)
def test_memo_never_hands_a_full_request_a_lower_image(name):
    hopf = preset(name, 3).hopf
    words = normal_words(len(hopf.algebra.generators), 2)
    want = {w: hopf.coproduct_word(w).terms for w in words}
    for tops in (range(4), range(3, -1, -1)):
        m = fresh_maps(hopf)[0]
        for top in tops:
            for w in words:
                assert upto(m.word(w, top).terms, top) == upto(want[w], top)
        assert all(m.word(w).terms == want[w] for w in words)


@pytest.mark.parametrize("name", PRESETS)
def test_call_equals_the_unbudgeted_sum_of_scaled_images(name):
    b = preset(name, 3)
    alg = b.presentation
    elements = [r for r in alg.rules.values() if r is not None] + list(b.casimirs.values())
    for m in fresh_maps(b.hopf):
        for x in elements:
            want = m.zero
            for (w, k), c in x.terms.items():
                want = want + m.word(w).scaled(c, k)
            assert m(x) == want


def random_element(alg, rng):
    n = len(alg.generators)
    out = alg.zero()
    for _ in range(3):
        w = alg.gen(rng.randrange(n)) * alg.gen(rng.randrange(n))
        out = out + w.scaled(rng.choice(list(alg.gen(0).terms.values())), rng.randint(0, 2))
    return out


@pytest.mark.parametrize("name", ("so22", "nullplane"))
def test_mul_into_with_a_budget_is_the_truncated_product(name):
    rng = random.Random(name)
    alg = preset(name, 4).presentation
    for _ in range(4):
        x, y = random_element(alg, rng), random_element(alg, rng)
        s, t = tensor_pair(x, y), tensor_pair(y, x)
        for a, b in ((x, y), (s, t)):
            full = (a * b).terms
            for top in range(5):
                assert a._mul_into(b, {}, top) == upto(full, top)
    rep = diffrep.full_rep(4)
    ops = list(rep.values())
    for a in ops:
        for b in ops:
            full = (a * b).terms
            for top in range(5):
                assert upto(a._mul_into(b, {}, top), top) == upto(full, top)
