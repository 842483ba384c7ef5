"""Maps given on generators: every extension agrees with an explicit product.

Each reference below multiplies the generator images of a word one by one,
left to right (right to left for the antipode), and sums over the terms of
the element; the code under test goes through ``ncalg.WordMap``.
"""

import random

import pytest

from hopf_forge import diffrep, repfrt
from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE, FieldElem
from hopf_forge.hopf import HopfMaps
from hopf_forge.ncalg import (TensorElement, UnmappedGenerator, WordMap, flatten, rule_images,
                              tensor_pair)

PRESETS = ("sl2", "so22", "nullplane")


def random_word(rng, n):
    """A normal word on one or two generators, some exponent above 1."""
    gens = sorted(rng.sample(range(n), rng.choice((1, 2))))
    exps = [rng.randint(1, 2) for _ in gens]
    exps[rng.randrange(len(exps))] = rng.randint(2, 3)
    return tuple(zip(gens, exps))


def random_element(alg, rng, terms=3):
    out = {}
    for _ in range(terms):
        c, k = FieldElem(rng.choice((-2, -1, 1, 3))), rng.randint(0, 1)
        out[(random_word(rng, len(alg.generators)), k)] = c
    return alg.element(out)


def product(unit, images, word, reverse=False):
    factors = [images[g] for g, e in word for _ in range(e)]
    if reverse:
        factors.reverse()
    out = unit
    for f in factors:
        out = out * f
    return out


def linear(zero, x, image_of_word, scalar):
    """Sum of word images, each times its term's scalar element ``scalar(c, k)``."""
    out = zero
    for (w, k), c in x.terms.items():
        out = out + image_of_word(w) * scalar(c, k)
    return out


def tensor_scalar(alg, arity):
    """c * param**k as a tensor of the given arity."""
    return lambda c, k: TensorElement(alg, arity, {(((),) * arity, k): c})


@pytest.mark.parametrize("name", PRESETS)
def test_coproduct_is_the_product_of_generator_coproducts(name):
    rng = random.Random(f"coproduct-{name}")
    hopf = preset(name, 2).hopf
    alg = hopf.algebra
    for _ in range(3):
        x = random_element(alg, rng)
        want = linear(TensorElement.zero(alg, 2), x, lambda w: product(
            TensorElement.unit(alg, 2), hopf.delta, w), tensor_scalar(alg, 2))
        assert hopf.coproduct(x) == want


@pytest.mark.parametrize("name", PRESETS)
def test_antipode_is_the_reversed_product_of_generator_antipodes(name):
    rng = random.Random(f"antipode-{name}")
    hopf = preset(name, 2).hopf
    alg = hopf.algebra
    for _ in range(3):
        x = random_element(alg, rng)
        want = linear(alg.zero(), x,
                      lambda w: product(alg.unit(), hopf.antipode, w, reverse=True),
                      alg.scalar)
        assert hopf.antipode_of(x) == want


@pytest.mark.parametrize("name", PRESETS)
def test_counit_is_the_product_of_generator_counits(name):
    # the presets' counits vanish on generators; any scalars extend the same way
    rng = random.Random(f"counit-{name}")
    alg = preset(name, 2).presentation
    hopf = HopfMaps(alg, preset(name, 2).hopf.delta,
                    {g: FieldElem(rng.choice((-2, 1, 3))) for g in alg.generators})
    for _ in range(3):
        x = random_element(alg, rng)
        want = alg.zero()
        for (w, k), c in x.terms.items():
            want = want + alg.scalar(c * product(FieldElem(1), hopf.counit, w), k)
        assert hopf.counit_of(x) == want


def random_images(alg, rng):
    """Each generator to a small combination of generators and the unit."""
    n = len(alg.generators)
    return {g: alg.gen(g) * FieldElem(rng.choice((1, 2)))
            + alg.gen(rng.randrange(n)) * FieldElem(rng.choice((-1, 1)))
            + alg.unit() * FieldElem(rng.choice((0, 1)))
            for g in range(n)}


@pytest.mark.parametrize("name", PRESETS)
def test_substitute_is_the_product_of_generator_images(name):
    rng = random.Random(f"substitute-{name}")
    alg = preset(name, 2).presentation
    images = random_images(alg, rng)
    named = {alg.generators[g]: e for g, e in images.items()}
    for _ in range(3):
        x = random_element(alg, rng)
        want = linear(alg.zero(), x, lambda w: product(alg.unit(), images, w), alg.scalar)
        assert x.substitute(alg, images) == want
        assert x.substitute(alg, named) == want


def compressed(flat):
    out = []
    for g in flat:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return tuple(out)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", PRESETS)
def test_word_image_is_the_same_whichever_prefix_came_first(name, reverse):
    """A word image extends the cached image of its prefix (its suffix for an
    anti-homomorphism); asked for before or after them, each is the product."""
    rng = random.Random(f"prefix-{name}-{reverse}")
    alg = preset(name, 2).presentation
    images = random_images(alg, rng)
    n = len(alg.generators)
    long = ((0, 2), (1, 1), (n - 1, 2))
    flat = flatten(long)
    shorter = [compressed(flat[i:] if reverse else flat[:-i]) for i in range(1, len(flat))]
    rng.shuffle(shorter)
    want = {w: product(alg.unit(), images, w, reverse) for w in [long] + shorter}
    long_first = WordMap(alg, images, alg.unit(), reverse=reverse)
    assert long_first.word(long) == want[long]
    assert all(long_first.word(w) == want[w] for w in shorter)
    long_last = WordMap(alg, images, alg.unit(), reverse=reverse)
    assert all(long_last.word(w) == want[w] for w in shorter[:2])
    assert long_last.word(long) == want[long]
    assert all(long_last.word(w) == want[w] for w in shorter)


@pytest.mark.parametrize("reverse", [False, True])
def test_long_word_image_needs_no_recursion(reverse):
    alg = preset("sl2", 2).presentation
    m = WordMap(alg, {0: alg.gen(0)}, alg.unit(), reverse=reverse)
    assert m.word(((0, 5000),)) == alg.element({(((0, 5000),), 0): FE_ONE})


@pytest.mark.parametrize("name", PRESETS)
def test_map_leaves_its_word_images_and_zero_alone(name):
    """Word images are summed in place into a new value of the target, so a
    second call sees the same cached images and zero and gives the same."""
    rng = random.Random(f"in-place-{name}")
    alg = preset(name, 2).presentation
    m = WordMap(alg, random_images(alg, rng), alg.unit())
    # the first term is a bare word, whose image a careless sum would take as is
    x = alg.gen(0) + random_element(alg, rng, 3)
    images = {w: dict(m.word(w).terms) for w, _ in x.terms}
    first = m(x)
    assert m(x) == first
    assert all(m.word(w).terms == t for w, t in images.items())
    assert m.zero.is_zero() and m(alg.zero()).is_zero()


@pytest.mark.parametrize("name", PRESETS)
def test_tensor_substitute_is_slotwise_products(name):
    rng = random.Random(f"tensor-substitute-{name}")
    alg = preset(name, 2).presentation
    images = random_images(alg, rng)
    x, y = random_element(alg, rng, 2), random_element(alg, rng, 2)
    t = tensor_pair(x, y)
    want = TensorElement.zero(alg, 2)
    for ((w1, w2), k), c in t.terms.items():
        want = want + tensor_pair(product(alg.unit(), images, w1),
                                  product(alg.unit(), images, w2)) * tensor_scalar(alg, 2)(c, k)
    assert t.substitute(alg, images) == want
    # arity 3: each slot image as a one-slot tensor, multiplied through the kernel
    t3 = t.embed((0, 2))
    want3 = TensorElement.zero(alg, 3)
    for (ws, k), c in t3.terms.items():
        piece = TensorElement.unit(alg, 3)
        for s, w in enumerate(ws):
            img = product(alg.unit(), images, w)
            piece = piece * TensorElement(alg, 3, {
                (tuple(u if j == s else () for j in range(3)), uk): cu
                for (u, uk), cu in img.terms.items()})
        want3 = want3 + piece * tensor_scalar(alg, 3)(c, k)
    assert t3.substitute(alg, images) == want3


def test_rep_of_element_is_the_product_of_operator_images():
    rng = random.Random("diffrep")
    order = 2
    alg = preset("nullplane", order).presentation
    rep = diffrep.full_rep(order)
    images = {alg.index[g]: op for g, op in rep.items()}
    x = random_element(alg, rng, 2)
    want = diffrep.WeylOperator.zero(order)
    for (w, k), c in x.terms.items():
        op = product(diffrep.WeylOperator.identity(order), images, w)
        want = want + op * diffrep.WeylOperator.multiplication(
            order, {k: diffrep.rf(diffrep.MOMENTUM_RING.constant(c))})
    assert diffrep.rep_of_element(rep, x) == want


@pytest.mark.parametrize("unit_order", [2, 4])
def test_images_of_another_order_raise(unit_order):
    # images of order 2 or 4 for the order-3 nullplane, whose rules carry w
    # terms: a lower order would drop the top power from every image
    alg = preset("nullplane", 3).presentation
    assert any(k for x in alg.rules.values() for _, k in x.terms)
    with pytest.raises(ValueError):
        WordMap(alg, repfrt.matrix_rep(), repfrt.identity(4, unit_order))
    with pytest.raises(ValueError):
        WordMap(alg, {}, preset("nullplane", unit_order).presentation.unit())
    assert WordMap(alg, repfrt.matrix_rep(), repfrt.identity(4, 3)).unit.order == 3


def test_missing_image_raises():
    hopf = preset("sl2", 2).hopf
    alg = hopf.algebra
    bialgebra = HopfMaps(alg, hopf.delta, hopf.counit)
    assert bialgebra.antipode_of(alg.unit()) == alg.unit()
    with pytest.raises(UnmappedGenerator):
        bialgebra.antipode_of(alg.gen("A"))
    with pytest.raises(ValueError):
        HopfMaps(alg, hopf.delta, hopf.counit, {"A": alg.gen("A")})


def test_group_coproduct_check_catches_a_dropped_term(monkeypatch):
    real = repfrt.group_coproduct

    def dropped(alg):
        delta = dict(real(alg))
        t = delta[alg.index["a_plus"]]
        terms = dict(t.terms)
        del terms[((((alg.index["a_plus"], 1),), ()), 0)]  # a_plus (x) 1
        delta[alg.index["a_plus"]] = TensorElement(alg, 2, terms)
        return delta

    assert repfrt.check_group_coproduct(2).passed
    monkeypatch.setattr(repfrt, "group_coproduct", dropped)
    rep = repfrt.check_group_coproduct(2)
    labels = [f["input"] for f in rep.failures]
    assert "Delta(a_plus) display" in labels
    assert "coassociativity(a_plus)" in labels
    # a_plus (x) 1 is the only term that x1 eps(x2) reads off Delta(a_plus)
    assert "counit(a_plus (x1 eps(x2)))" in labels
    assert "counit(a_plus (eps(x1)x2))" not in labels


@pytest.mark.parametrize("bad", range(6))
def test_rule_oracle_flags_exactly_the_pairs_of_a_corrupted_image(bad):
    """Coproduct images with one generator's image shifted by y (x) 1, y not
    commuting with any generator: the two sides differ on exactly the rules
    that involve that generator, as a factor of g_j*g_i or in the normal form
    of [g_j, g_i], reported in plan order."""
    hopf = preset("nullplane", 2).hopf
    alg = hopf.algebra
    y = alg.gen("E_1") + alg.gen("K_2") + alg.gen("F_1")
    images = dict(hopf.delta)
    images[bad] = images[bad] + tensor_pair(y, alg.unit())
    plan = [(j, i) for j in range(6) for i in range(j)]
    sides = list(rule_images(WordMap(alg, images, TensorElement.unit(alg, 2))))
    assert [pair for pair, _, _ in sides] == plan
    involved = [(j, i) for j, i in plan if bad in (j, i) or any(
        g == bad for w, _ in alg.gen(j).commutator(alg.gen(i)).terms for g, _ in w)]
    assert [pair for pair, comm, image in sides if not (comm - image).is_zero()] == involved
    assert all((comm - image).is_zero() for _, comm, image in rule_images(hopf.delta_map))
