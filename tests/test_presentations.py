"""Built-in presentations and the presentation DSL."""

import pytest

from qwh.exprparse import ParseError
from qwh.freealg import NCPoly
from qwh.presentations import (
    BUILTIN_NAMES,
    T_DEGREES,
    builtin,
    parse_presentation,
    transcribed_T_constraints,
)
from qwh.rewrite import build_rules, diamond_check


def test_every_builtin_loads_and_is_quadratic_at_most_cubic():
    for name in BUILTIN_NAMES:
        pres = builtin(name)
        assert pres.name == name
        assert pres.relations
        for rel in pres.relations:
            assert rel.max_word_len() <= 3


def test_xspace_has_q_substituted():
    pres = builtin("xspace")
    used = set().union(*[c.params_used() for r in pres.relations for c in r.terms.values()])
    assert "q" not in used
    generic = builtin("xspace_generic_q")
    used_q = set().union(
        *[c.params_used() for r in generic.relations for c in r.terms.values()]
    )
    assert "q" in used_q


def test_TT7_counts():
    pres = builtin("TT7")
    assert len(pres.table) == 7
    assert len(pres.relations) == 21  # one exchange relation per generator pair


def test_degree_homomorphism_consistency():
    # every TT7 relation is homogeneous for the u-weight grading
    pres = builtin("TT7")
    for rel in pres.relations:
        degs = {
            sum(T_DEGREES[pres.table.name(g)] for g in w) for w in rel.terms
        }
        assert len(degs) == 1, rel.render(pres.order)


def test_transcribed_constraints_are_implied_by_TT7():
    # the separately transcribed invariance constraints (which keep the
    # deformation parameter q free) reduce to zero in the exchange-relation
    # presentation once q is tied to u
    from qwh.exprparse import parse_scalar_text

    pres = builtin("TT7")
    sys_ = build_rules(pres.relations, pres.order, pres.table)
    u2 = parse_scalar_text("u^2")
    for rel in transcribed_T_constraints():
        tied = rel.substitute_scalars({"q": u2})
        assert sys_.normal_form(tied).is_zero(), rel.render(pres.order)


def test_substitute_produces_new_presentation():
    pres = builtin("xspace").substitute({"u": 2, "s": 3})
    sys_ = build_rules(pres.relations, pres.order, pres.table)
    out = sys_.normal_form(NCPoly.parse(pres.table, "x1*x2"))
    assert out == NCPoly.parse(pres.table, "4*x2*x1 + 3*x3*x3")


DSL = """
# a two-generator toy algebra
algebra toy
params u
generators a > b
degree a = 1
degree b = -1
rel a*b = u*b*a
"""


def test_dsl_round_trip():
    pres = parse_presentation(DSL)
    assert pres.name == "toy"
    assert [pres.table.name(g) for g in range(len(pres.table))] == ["a", "b"]
    assert len(pres.relations) == 1
    sys_ = build_rules(pres.relations, pres.order, pres.table)
    assert diamond_check(sys_).ok
    out = sys_.normal_form(NCPoly.parse(pres.table, "a*b"))
    assert out == NCPoly.parse(pres.table, "u*b*a")


@pytest.mark.parametrize(
    "bad",
    [
        "generators a > b\nrel a*b = b*a",          # missing algebra line
        "algebra t\nrel a*b = b*a",                 # missing generators
        "algebra t\ngenerators a > b\nrel a*zz",    # unknown generator
        "algebra t\nparams nope\ngenerators a",     # unknown parameter
        "algebra t\ngenerators a\nfrobnicate x",    # unknown directive
        "algebra t\ngenerators a > a",             # duplicate generator
    ],
)
def test_dsl_errors_carry_spans(bad):
    with pytest.raises(ParseError):
        parse_presentation(bad)
