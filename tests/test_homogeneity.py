"""Every preset is homogeneous under integer generator weights.

With the deformation parameter of weight +1, each term c * param**k * word of
a rewrite rule, coproduct, antipode image, Casimir or universal R has
k + weight(word) equal to the weight of what it represents.  This is why
every normal-form coefficient the presets produce is a single monomial
c * param**k.  The kernel does not rely on it: it stores (word, k) -> scalar
for any element, homogeneous or not.
"""

import pytest

from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE
from hopf_forge.rmat import preset_r

ORDER = 4

WEIGHTS = {
    "sl2": {"A_plus": -1, "A": 0, "A_minus": 1},
    "so22": {"P": -1, "P0_hat": -1, "J_hat": 0, "D": 0, "C_1": 1, "C_2": 1},
    "nullplane": {"P_plus": -1, "P_1": -1, "P_minus": -1, "E_1": 0, "K_2": 0, "F_1": 0},
    "sl2-jbasis": {"J_plus": -1, "J_3": 0, "J_minus": 1},
}

CASIMIR_WEIGHTS = {"C_z": 0, "C1_q": 0, "C2_q": 0, "M_q2": -2, "L_q": -1}


def weight_of(alg, name):
    weight = dict(zip(range(len(alg.generators)),
                      (WEIGHTS[name][g] for g in alg.generators)))

    def of_words(words):
        return sum(weight[g] * e for w in words for g, e in w)
    return weight, of_words


def graded_weights(x, of_words, arity):
    """{k + weight(words)} over the terms of an element (arity 1) or a tensor."""
    out = set()
    for words, k in x.terms:
        out.add(k + of_words(words if arity > 1 else (words,)))
    return out


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_rules_are_homogeneous(name):
    alg = preset(name, ORDER).presentation
    weight, of_words = weight_of(alg, name)
    for (j, i), rhs in alg.rules.items():
        assert graded_weights(rhs, of_words, 1) == {weight[j] + weight[i]}, (j, i)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_coproducts_and_antipodes_are_homogeneous(name):
    bundle = preset(name, ORDER)
    weight, of_words = weight_of(bundle.presentation, name)
    for i, w in weight.items():
        assert graded_weights(bundle.hopf.delta[i], of_words, 2) == {w}, i
        assert graded_weights(bundle.hopf.antipode[i], of_words, 1) == {w}, i


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_casimirs_are_homogeneous(name):
    bundle = preset(name, ORDER)
    _, of_words = weight_of(bundle.presentation, name)
    for label, cas in bundle.casimirs.items():
        assert graded_weights(cas, of_words, 1) == {CASIMIR_WEIGHTS[label]}, label


@pytest.mark.parametrize("name", ["sl2", "so22", "nullplane"])
def test_universal_r_is_homogeneous(name):
    alg = preset(name, ORDER).presentation
    _, of_words = weight_of(alg, name)
    assert graded_weights(preset_r(preset(name, ORDER)), of_words, 2) == {0}


def test_inhomogeneous_input_keeps_every_term():
    alg = preset("nullplane", ORDER).presentation
    x = alg.gen("P_plus") + alg.gen("P_plus").scaled(FE_ONE, 1)
    assert len(x.terms) == 2
    _, of_words = weight_of(alg, "nullplane")
    assert graded_weights(x, of_words, 1) == {-1, 0}
