"""Built-in presentations and the presentation DSL."""

import pytest

from qwh.diffcalc import wz_relations
from qwh.exprparse import ParseError
from qwh.freealg import AlgebraError, NCPoly
from qwh.presentations import (
    BUILTIN_NAMES,
    XI_GENS,
    _pres,
    builtin,
    parse_presentation,
    transcribed_T_constraints,
)
from qwh.quantumgroup import rtt_relations
from qwh.rewrite import build_rules, diamond_check


def test_every_builtin_loads_and_is_quadratic_at_most_cubic():
    for name in BUILTIN_NAMES:
        pres = builtin(name)
        assert pres.name == name
        assert pres.relations
        for rel in pres.relations:
            assert max(len(w) for w in rel.terms) <= 3


def _params_used(pres):
    return set().union(*[c.params_used() for r in pres.relations for c in r.terms.values()])


#: the parameters each presentation's relations use, symbolically
PARAMS_USED = {
    "classical_R": {"s"},
    "xspace": {"u", "s"},
    "xispace": {"u"},
    "TT7": {"u", "s"},
    "TDinv": {"u"},
    "tdinv": {"u"},
    "xspace_generic_q": {"u", "s", "q"},
    "ansatz_xi": {"k", "c21", "lam", "lam12", "mu", "mu12"},
    "ansatz_xi3sq_variant": {"lam", "mu"},
    "rtt7": {"u", "s"},
    "rtt9": {"u", "s"},
    "wz": {"u", "s"},
    "wz_generic_q": {"u", "s", "q"},
}


def test_parameter_census():
    built = [builtin(name) for name in BUILTIN_NAMES]
    built += [rtt_relations(7), rtt_relations(9)]
    built += [wz_relations(), wz_relations(generic_q=True)]
    assert {pres.name: _params_used(pres) for pres in built} == PARAMS_USED


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


#: the u-weight grading of the seven matrix entries
T_DEGREES = {"T11": 0, "T12": 2, "T13": 1, "T21": -2, "T22": 0, "T23": -1, "T33": 0}


def test_degree_homomorphism_consistency():
    # every TT7 relation is homogeneous for the u-weight grading
    pres = builtin("TT7")
    assert {pres.table.name(g): d for g, d in pres.degree.items()} == T_DEGREES
    for rel in pres.relations:
        degs = {
            sum(T_DEGREES[pres.table.name(g)] for g in w) for w in rel.terms
        }
        assert len(degs) == 1, rel.render()


def test_transcribed_constraints_are_implied_by_TT7():
    # the separately transcribed invariance constraints (which keep the
    # deformation parameter q free) reduce to zero in the exchange-relation
    # presentation once q is tied to u
    from qwh.exprparse import parse_scalar_text

    pres = builtin("TT7")
    sys_ = build_rules(pres.relations, pres.table)
    u2 = parse_scalar_text("u^2")
    for rel in transcribed_T_constraints():
        tied = rel.substitute_scalars({"q": u2})
        assert sys_.normal_form(tied).is_zero(), rel.render()


def test_substitute_produces_new_presentation():
    pres = builtin("xspace").substitute({"u": 2, "s": 3})
    sys_ = build_rules(pres.relations, pres.table)
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


@pytest.mark.parametrize(
    "precedence",
    [["xi3", "xi2"], ["xi3", "xi2", "xi1", "xi4"], ["xi3", "xi3", "xi1"]],
    ids=["missing", "extra", "repeated"],
)
def test_precedence_must_list_every_generator_once(precedence):
    with pytest.raises(AlgebraError, match="must mention every generator once"):
        _pres("bad", XI_GENS, ["xi1*xi2"], precedence=precedence)


#: the general one-form ansatz, its precedence on the generators line
ANSATZ_DSL = """
algebra ansatz
params k c21 lam lam12 mu mu12
generators xi3 > xi2 > xi1
rel xi1*xi1
rel xi2*xi2
rel xi3*xi3 = k*xi1*xi2
rel xi2*xi1 = c21*xi1*xi2
rel xi3*xi1 = lam*xi1*xi3 + lam12*xi1*xi2
rel xi3*xi2 = mu*xi2*xi3 + mu12*xi1*xi2
"""


def _named_rules(pres):
    table = pres.table
    return [
        ("*".join(table.name(g) for g in r.lhs), r.rhs.render())
        for r in pres.rewrite_system().rules
    ]


def test_dsl_precedence_orders_like_the_builtin_ansatz():
    """A DSL file and a built-in with the same generators line order their
    words alike: the same rules, by name."""
    rules = _named_rules(parse_presentation(ANSATZ_DSL))
    assert rules == _named_rules(builtin("ansatz_xi"))
    assert ("xi3*xi3", "k*xi1*xi2") in rules


def test_dsl_round_trip():
    pres = parse_presentation(DSL)
    assert pres.name == "toy"
    assert [pres.table.name(g) for g in range(len(pres.table))] == ["a", "b"]
    assert len(pres.relations) == 1
    sys_ = build_rules(pres.relations, pres.table)
    assert diamond_check(sys_).ok
    out = sys_.normal_form(NCPoly.parse(pres.table, "a*b"))
    assert out == NCPoly.parse(pres.table, "u*b*a")


#: each malformed text and the line:column its error names
DSL_ERROR_SPANS = {
    "generators a > b\nrel a*b = b*a": "1:1",          # missing algebra line
    "algebra t\nrel a*b = b*a": "1:1",                 # missing generators
    "algebra t\ngenerators a > b\nrel a*zz": "3:7",    # unknown generator
    "algebra t\ngenerators a > b\nrel   a*zz": "3:9",
    "algebra t\ngenerators a > b\nrel a*b = u*zz": "3:13",
    "algebra t\nparams nope\ngenerators a": "2:1",     # unknown parameter
    "algebra t\ngenerators a\nfrobnicate x": "3:1",    # unknown directive
    "algebra t\ngenerators a > a": "2:1",             # duplicate generator
    # a generator no expression can name: 2 reads as an integer
    "algebra t\ngenerators 2 > b\nrel b*b = 2": "2:1",
    "algebra t\ngenerators a-b > c": "2:1",
    "algebra t\n  generators b c > d": "2:3",
    # a generator named like a declared parameter, whichever line comes first
    "algebra t\nparams u\ngenerators u > b\nrel b*u = u*b*b": "3:1",
    "algebra t\ngenerators u > b\nparams u\nrel b*u = u*b*b": "2:1",
    # algebra, params and generators occur once, and each degree once
    "algebra t\nalgebra s\ngenerators a": "2:1",
    "algebra t\nparams u\nparams s\ngenerators a": "3:1",
    "algebra t\ngenerators a > b\n generators c > d": "3:2",
    "algebra t\ngenerators a\ndegree a = 1\ndegree a = 1": "4:1",
    # relation-level errors point at the relation's first column
    "algebra t\ngenerators a > b\ndegree a = 1\nrel a*b = b": "4:5",
    "algebra t\nparams u\ngenerators a > b\n  rel a*b = s*b*a": "4:7",
}


@pytest.mark.parametrize("bad", list(DSL_ERROR_SPANS))
def test_dsl_errors_carry_spans(bad):
    with pytest.raises(ParseError) as exc:
        parse_presentation(bad)
    assert str(exc.value.span) == f"<presentation>:{DSL_ERROR_SPANS[bad]}"
