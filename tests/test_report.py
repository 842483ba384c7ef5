"""CheckReport.expect_zero: the one place a residual becomes a failure."""

import pytest

from hopf_forge.algebras import preset
from hopf_forge.diffrep import MOMENTUM_RING, WeylOperator, rf
from hopf_forge.ncalg import tensor_pair
from hopf_forge.report import CheckReport


def _alg():
    return preset("sl2", 2).presentation


RESIDUALS = {
    "NCElement": lambda alg: (alg.gen("A") * alg.gen("A_plus"), alg.zero()),
    "TensorElement": lambda alg: (tensor_pair(alg.gen("A"), alg.gen("A_minus")),
                                  tensor_pair(alg.gen("A"), alg.zero())),
    "Polynomial": lambda alg: (MOMENTUM_RING.var("p_1") * MOMENTUM_RING.var("m_q2"),
                               MOMENTUM_RING.zero()),
    "WeylOperator": lambda alg: (
        WeylOperator.multiplication(2, {1: rf(MOMENTUM_RING.var("p_plus"))}),
        WeylOperator.zero(2)),
}


def _report():
    return CheckReport(check="probe", algebra="sl2", order=2)


@pytest.mark.parametrize("kind", sorted(RESIDUALS))
def test_zero_residual_records_nothing(kind):
    nonzero, zero = RESIDUALS[kind](_alg())
    assert zero.is_zero() and not nonzero.is_zero()
    rep = _report()
    rep.expect_zero("x", zero)
    rep.expect_zero("y", nonzero - nonzero)
    assert rep.failures == [] and rep.passed


@pytest.mark.parametrize("kind", sorted(RESIDUALS))
def test_nonzero_residual_records_its_repr_once(kind):
    nonzero, _ = RESIDUALS[kind](_alg())
    rep = _report()
    rep.expect_zero("[X,Y]", nonzero)
    assert rep.failures == [{"input": "[X,Y]", "residual": repr(nonzero)}]
    assert rep.status == "fail"
    assert rep.to_dict()["failures"] == rep.failures
