"""Block-by-block reduction in tensor-product algebras against the joint
rewrite system it replaces."""

from fractions import Fraction

import pytest

from qwh.coaction import MixedAlgebra
from qwh.freealg import AlgebraError, NCPoly
from qwh.presentations import TensorAlgebra, builtin
from qwh.quantumgroup import extended_system, hopf_check, hopf_data
from qwh.rewrite import RewriteSystem, build_rules

POINTS = [None, {"u": Fraction(2), "s": Fraction(3)}]
POINT_IDS = ["symbolic", "u=2,s=3"]


def joint_system(tensor, first_relations, second_relations):
    """Each block's relations lifted to the joint table, plus one
    commutation relation per pair of letters from different blocks."""
    table = tensor.table
    relations = [r.relabel(table, tensor.first) for r in first_relations]
    relations += [r.relabel(table, tensor.second) for r in second_relations]
    relations += [
        NCPoly.word(table, (a, b)) - NCPoly.word(table, (b, a))
        for a in tensor.first.values()
        for b in tensor.second.values()
    ]
    return build_rules(relations, table)


@pytest.mark.parametrize("bindings", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("which", ["H8", "H10"])
def test_doubled_normal_form_matches_joint_system(which, bindings):
    data = hopf_data(which, bindings)
    esys = extended_system(which, bindings)
    relations = data.ext.relations
    joint = joint_system(data.doubled, relations, relations)
    for r in relations:
        # the coproduct of each relation (zero in the quotient) and of each
        # of its words (nonzero, so the two normal forms are compared term
        # by term)
        images = [data.coproduct(r)]
        images += [data.coproduct(NCPoly.word(r.table, w)) for w in r.terms]
        for image in images:
            assert data.doubled.normal_form(image, esys, esys) == joint.normal_form(
                image
            )


@pytest.mark.parametrize("bindings", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize(
    "space_name", ["xspace", "xispace", "xspace_generic_q", "ansatz_xi"]
)
def test_coaction_normal_form_matches_joint_system(space_name, bindings):
    group = builtin("TT7", bindings)
    space = builtin(space_name, bindings)
    mixed = MixedAlgebra(group, space)
    space_sys, group_sys = space.rewrite_system(), group.rewrite_system()
    free = joint_system(mixed, (), ())
    space_only = joint_system(mixed, space.relations, ())
    both = joint_system(mixed, space.relations, group.relations)
    for rel in space.relations:
        image = mixed.coact(rel)
        assert mixed.normal_form(image) == free.normal_form(image)
        assert mixed.normal_form(image, space_sys) == space_only.normal_form(image)
        assert mixed.normal_form(image, space_sys, group_sys) == both.normal_form(
            image
        )


def test_normal_form_rejects_a_polynomial_over_another_table():
    data = hopf_data("H8")
    with pytest.raises(AlgebraError, match="different generator table"):
        data.doubled.normal_form(NCPoly.generator(data.ext.table, 0))


def test_a_repeated_hopf_check_reduces_no_part_word_again(monkeypatch):
    """Part-word normal forms live on their rewrite system, and the
    extended systems are memoised, so a second check reuses every one."""
    assert hopf_check("H10").ok
    inside, tensor_calls, part_reductions = [], [], []
    tensor_nf, system_nf = TensorAlgebra.normal_form, RewriteSystem.normal_form

    def counting_tensor_nf(self, *args, **kwargs):
        tensor_calls.append(1)
        inside.append(1)
        try:
            return tensor_nf(self, *args, **kwargs)
        finally:
            inside.pop()

    def counting_system_nf(self, p):
        if inside:
            part_reductions.append(p)
        return system_nf(self, p)

    monkeypatch.setattr(TensorAlgebra, "normal_form", counting_tensor_nf)
    monkeypatch.setattr(RewriteSystem, "normal_form", counting_system_nf)
    assert hopf_check("H10").ok
    assert tensor_calls and not part_reductions
