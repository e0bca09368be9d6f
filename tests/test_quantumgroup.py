"""Quantum matrix groups: RTT relations, determinants, inverses, Hopf axioms."""

from fractions import Fraction
from itertools import product

import pytest

from qwh import memo, quantumgroup
from qwh import scalar as sc
from qwh.exprparse import parse_scalar_text
from qwh.freealg import GenTable, NCPoly
from qwh.linalg import Matrix, pair_to_lin, rhat_builtin
from qwh.presentations import builtin
from qwh.quantumgroup import (
    _rtt_identities,
    adjugate,
    det_commutation_derive,
    determinant,
    extended_system,
    generator_matrix,
    group_presentation,
    group_system,
    hopf_check,
    hopf_data,
    intertwiner_check,
    inverse_check,
    rtt7_span_check,
    rtt9_completion_check,
    rtt_relations,
    subalgebra_check,
)
from qwh.rewrite import build_rules, diamond_check


def test_rtt_with_identity_matrix_gives_commutativity(monkeypatch):
    monkeypatch.setattr(
        quantumgroup, "rhat_builtin", lambda bindings=None: Matrix.identity(9)
    )
    pres = rtt_relations(ngen=9)
    nontrivial = [r for r in pres.relations if not r.is_zero()]
    # every nonzero relation is a plain commutator of two generators
    for r in nontrivial:
        terms = sorted(r.terms.items())
        assert len(terms) == 2
        (w1, c1), (w2, c2) = terms
        assert sorted(w1) == sorted(w2)
        assert c1 + c2 == sc.ZERO


def test_rtt7_span_matches_exchange_relations():
    assert rtt7_span_check().ok


def test_rtt7_generic_q_fails():
    rep = rtt7_span_check(generic_q=True)
    assert rep.status == "FAIL"


def test_rtt9_completes_within_length_three():
    assert rtt9_completion_check().ok


def test_intertwiner_for_both_groups():
    assert intertwiner_check().ok


def test_group_systems_are_confluent():
    for bindings in (None, {"u": Fraction(2), "s": Fraction(3)}):
        for which in ("H8", "H10"):
            assert diamond_check(group_system(which, bindings)).ok, (which, bindings)


def test_determinant_is_group_like_pattern():
    # H8's determinant D7 has two cubic terms, H10's d9 has six
    assert len(determinant("H8").terms) == 2
    assert len(determinant("H10").terms) == 6


def test_adjugate_times_matrix_is_determinant():
    assert inverse_check("H8").ok
    assert inverse_check("H10").ok


def test_determinant_commutation_derived_factors():
    rep7 = det_commutation_derive("H8")
    assert rep7.ok, rep7.render_text()
    rep9 = det_commutation_derive("H10")
    assert rep9.ok, rep9.render_text()


def test_determinants_are_not_central():
    # the noncentrality witness item is part of the derivation report
    for which in ("H8", "H10"):
        rep = det_commutation_derive(which)
        assert any("central" in i.label for i in rep.items)


def test_hopf_axioms():
    assert hopf_check("H8").ok
    assert hopf_check("H10").ok


@pytest.mark.parametrize("which", ["H8", "H10"])
def test_wrong_adjugate_fails_every_inverse_item_and_only_the_antipode_axiom(
    which, monkeypatch
):
    def corner_doubled(w, bindings=None):
        A = adjugate(w, bindings)  # the memoised matrix, left unmutated
        entries = [list(row) for row in A.entries]
        entries[0][0] = A[0, 0] + A[0, 0]
        return Matrix(entries, A.zero)

    monkeypatch.setattr(memo, "_symbolic", {})  # hopf_data is memoised
    monkeypatch.setattr(quantumgroup, "adjugate", corner_doubled)
    assert [i.passed for i in inverse_check(which).items] == [False] * 3
    hopf = hopf_check(which)
    assert [i.passed for i in hopf.items] == [True, True, True, False, True]
    assert hopf.items[3].label.startswith("antipode axiom")
    monkeypatch.undo()
    assert inverse_check(which).ok


def test_coproduct_is_multiplicative_on_relations():
    # Delta extends to the quotient: the coproduct of every defining
    # relation reduces to zero in the two commuting copies
    for which in ("H8", "H10"):
        data = hopf_data(which)
        esys = data.ext.rewrite_system()
        for r in data.ext.relations:
            assert data.doubled.normal_form(data.coproduct(r), esys, esys).is_zero()


def test_hopf_data_is_memoised_and_carries_the_extended_system():
    for which in ("H8", "H10"):
        assert hopf_data(which) is hopf_data(which, {})
        assert hopf_data(which).ext.rewrite_system() is extended_system(which)
        at_point = hopf_data(which, {"u": 2, "s": 3})
        assert at_point.ext.rewrite_system() is extended_system(
            which, {"u": Fraction(2), "s": 3}
        )


def test_doubled_normal_words_put_right_copy_first():
    data = hopf_data("H8")
    esys = data.ext.rewrite_system()
    t11, t12 = (NCPoly.parse(data.ext.table, n) for n in ("T11", "T12"))
    table = data.doubled.table
    nf = data.doubled.normal_form(data.doubled.tensor(t11, t12), esys, esys)
    assert nf == NCPoly.word(table, (table.gen("T12.r"), table.gen("T11.l")))


def test_subalgebra_embedding():
    assert subalgebra_check().ok


def test_seven_generator_determinant_central_at_u_one():
    b = {"u": 1, "s": Fraction(3)}
    ext = group_system("H8", bindings=b)
    det = determinant("H8", bindings=b)
    for name in ("T11", "T12", "T13", "T21", "T22", "T23", "T33"):
        g = NCPoly.parse(ext.table, name)
        lifted = NCPoly(
            ext.table,
            {tuple(ext.table.gen(det.table.name(x)) for x in w): c
             for w, c in det.terms.items()},
        )
        assert ext.normal_form(g * lifted - lifted * g).is_zero()


def test_specialized_group_checks():
    b = {"u": Fraction(5, 2), "s": Fraction(1, 3)}
    assert rtt7_span_check(bindings=b).ok
    assert inverse_check("H8", bindings=b).ok
    assert hopf_check("H8", bindings=b).ok


def test_proportionality_of_zero_unlike_and_scaled_polynomials():
    t = GenTable(["a", "b"])
    zero, p = NCPoly.zero(t), NCPoly.parse(t, "a*b + b*a")
    prop = quantumgroup._proportionality
    assert prop(zero, zero) == sc.ONE
    assert prop(p, zero) is None and prop(zero, p) is None
    assert prop(p, NCPoly.parse(t, "a*b")) is None  # different supports
    assert prop(p, NCPoly.parse(t, "a*b - b*a")) is None  # same support
    assert prop(p.scale(sc.U), p) == sc.U


def test_generator_matrix_is_indexed_from_zero():
    pres = builtin("TT7")
    T = generator_matrix(pres)
    assert T[0, 0] == NCPoly.parse(pres.table, "T11")
    assert T[1, 2] == NCPoly.parse(pres.table, "T23")
    assert T[2, 0].is_zero()
    with pytest.raises(IndexError):
        T[3, 0]


def reference_rtt_identities(R, grid, table):
    """The RTT identities as the index loop that built them before they
    were matrix products: (j, i, m, n) in lexicographic order, 1-based."""

    def T(a, b):
        g = grid[a - 1][b - 1]
        return NCPoly.zero(table) if g is None else NCPoly.generator(table, g)

    for j, i, m, n in product((1, 2, 3), repeat=4):
        rel = NCPoly.zero(table)
        for k, l in product((1, 2, 3), repeat=2):
            c = R[pair_to_lin(j, i), pair_to_lin(k, l)]
            if not c.is_zero():
                rel = rel + (T(k, m) * T(l, n)).scale(c)
            c = R[pair_to_lin(l, k), pair_to_lin(m, n)]
            if not c.is_zero():
                rel = rel - (T(j, l) * T(i, k)).scale(c)
        yield rel


@pytest.mark.parametrize("bindings", [None, {"u": 2, "s": 3}], ids=["symbolic", "u=2,s=3"])
@pytest.mark.parametrize("ngen", [7, 9])
def test_rtt_product_matches_the_index_loop(ngen, bindings):
    pres = rtt_relations(ngen=ngen, bindings=bindings)
    R = rhat_builtin(bindings)
    identities = _rtt_identities(R, generator_matrix(pres))
    assert (identities.rows, identities.cols) == (9, 9)
    got = [rel for row in identities.entries for rel in row]
    assert got == list(reference_rtt_identities(R, pres.matrix, pres.table))
    assert sum(not rel.is_zero() for rel in got) > 20


def reference_dinv_table_factors(ext):
    """Factors r in the loaded relations g*dinv - r*dinv*g, parsed off the
    relations' shape: how det-comm read the printed factors before it read
    them off the extended rewrite system."""
    dinv = ext.table.gen(ext.table.names[-1])
    out = {}
    for rel in ext.relations:
        lead, rest = None, None
        for w, c in rel.terms.items():
            if w[0] != dinv and w[1] == dinv:
                lead = (w, c)
            elif w[0] == dinv:
                rest = (w, c)
        assert lead is not None and rest is not None and len(rel.terms) == 2
        out[ext.table.name(lead[0][0])] = -rest[1] / lead[1]
    return out


@pytest.mark.parametrize(
    "bindings", [None, {"u": 2, "s": 3}, {"u": 1, "s": 3}], ids=["symbolic", "u=2,s=3", "u=1,s=3"]
)
@pytest.mark.parametrize("which", ["H8", "H10"])
def test_det_comm_reads_the_table_factors_of_the_loaded_relations(which, bindings):
    ext = builtin(quantumgroup._EXT[which], bindings)
    expected = reference_dinv_table_factors(ext)
    labels = [i.label for i in det_commutation_derive(which, bindings).items[:-1]]
    gnames = group_presentation(which).table.names
    assert sorted(expected) == sorted(gnames) and len(labels) == len(gnames)
    for label, gname in zip(labels, gnames):
        assert label.startswith(f"{gname}*det = (")
        assert label.endswith(f"; table factor {expected[gname]}")


def test_rtt_shapes_are_the_literal_tables_grids_and_degrees():
    t7 = rtt_relations(ngen=7)
    assert t7.name == "rtt7"
    assert t7.table.names == ["T11", "T12", "T13", "T21", "T22", "T23", "T33"]
    assert [[None if g is None else t7.table.name(g) for g in row] for row in t7.matrix] == [
        ["T11", "T12", "T13"], ["T21", "T22", "T23"], [None, None, "T33"]
    ]
    assert {t7.table.name(g): d for g, d in t7.degree.items()} == {
        "T11": 0, "T12": 2, "T13": 1, "T21": -2, "T22": 0, "T23": -1, "T33": 0
    }
    t9 = rtt_relations(ngen=9)
    assert t9.name == "rtt9"
    names = [f"t{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    assert t9.table.names == names
    assert [[t9.table.name(g) for g in row] for row in t9.matrix] == [
        names[0:3], names[3:6], names[6:9]
    ]
    assert {t9.table.name(g): d for g, d in t9.degree.items()} == {
        "t11": 0, "t12": 2, "t13": 1,
        "t21": -2, "t22": 0, "t23": -1,
        "t31": -1, "t32": 1, "t33": 0,
    }
    with pytest.raises(quantumgroup.QuantumGroupError):
        rtt_relations(ngen=8)
