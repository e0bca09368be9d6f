"""Rewriting: normal forms, confluence via the diamond lemma, completion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import scalar as sc
from qwh.freealg import GenTable, MonomialOrder, NCPoly
from qwh.diffcalc import wz_system
from qwh.presentations import builtin
from qwh.quantumgroup import extended_system, group_system
from qwh.rewrite import (
    CompletionFailure,
    RewriteRule,
    RewriteSystem,
    build_rules,
    complete,
    diamond_check,
    interreduce_relations,
    overlaps,
)
from qwh.scalar import Scalar


def _system(name):
    pres = builtin(name)
    return pres, build_rules(pres.relations, pres.order, pres.table)


XS, XSYS = _system("xspace")

words = st.lists(st.integers(0, 2), max_size=5).map(tuple)
coeffs = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
).map(Scalar.from_fraction)


@st.composite
def xpolys(draw):
    terms = draw(st.dictionaries(words, coeffs, max_size=3))
    p = NCPoly.zero(XS.table)
    for w, c in terms.items():
        p = p + NCPoly.word(XS.table, w, c)
    return p


@settings(max_examples=40, deadline=None)
@given(xpolys())
def test_normal_form_idempotent(p):
    nf = XSYS.normal_form(p)
    assert XSYS.normal_form(nf) == nf


@settings(max_examples=40, deadline=None)
@given(xpolys(), xpolys())
def test_normal_form_linear(p, q):
    assert XSYS.normal_form(p + q) == XSYS.normal_form(p) + XSYS.normal_form(q)


@settings(max_examples=40, deadline=None)
@given(xpolys())
def test_normal_form_annihilates_the_ideal(p):
    for rel in XS.relations:
        assert XSYS.normal_form(rel * p).is_zero()
        assert XSYS.normal_form(p * rel).is_zero()


@settings(max_examples=30, deadline=None)
@given(xpolys(), xpolys())
def test_leftmost_and_rightmost_strategies_agree(p, q):
    # confluence makes the reduction strategy irrelevant
    prod = p * q
    assert XSYS.normal_form(prod) == XSYS.normal_form(prod, rightmost=True)


def test_normal_words_avoid_leading_words():
    for rule in XSYS.rules:
        assert not XSYS.is_normal_word(rule.lhs)
    assert XSYS.is_normal_word(())


def test_builtin_space_systems_are_confluent():
    for name in ("classical_R", "xspace", "xispace", "TT7"):
        pres = builtin(name)
        sys_ = build_rules(pres.relations, pres.order, pres.table)
        rep = diamond_check(sys_)
        assert rep.ok, rep.render_text()


def test_generic_q_coordinate_system_is_confluent():
    # with q free the coordinate algebra alone is still confluent ...
    pres = builtin("xspace_generic_q")
    sys_ = build_rules(pres.relations, pres.order, pres.table)
    assert diamond_check(sys_).ok


def test_interreduce_drops_redundant_relations():
    t = GenTable(["a", "b"])
    o = MonomialOrder.default(t)
    r1 = NCPoly.parse(t, "a*b - b*a")
    rows = interreduce_relations([r1, r1.scale(Scalar.from_int(2)), r1 - r1], o)
    assert len(rows) == 1
    assert rows[0].leading_term(o)[1].is_one()


def test_completion_adds_the_missing_rule():
    # a*b -> b*a and a*c -> c*b overlap on a*b*? ... use a genuinely
    # non-confluent pair: a^2 -> b and a*b -> c force b*a vs a*c relations.
    t = GenTable(["a", "b", "c"])
    o = MonomialOrder.default(t)
    rels = [
        NCPoly.parse(t, "a*a - b"),
        NCPoly.parse(t, "a*b - b*a"),
    ]
    sys_ = build_rules(rels, o, t)
    if not diamond_check(sys_).ok:
        done = complete(sys_, max_word_len=6)
        assert isinstance(done, RewriteSystem)
        assert diamond_check(done).ok


def test_completion_failure_is_reported():
    # a*b -> b*a*a doubles the word length forever: completion must give up
    t = GenTable(["a", "b"])
    o = MonomialOrder.from_precedence(t, ["a", "b"])
    rels = [NCPoly.parse(t, "a*a - a*b*a")]
    sys_ = build_rules(rels, o, t)
    out = complete(sys_, max_word_len=4)
    if isinstance(out, CompletionFailure):
        assert not out.ok
    else:
        assert diamond_check(out).ok


def test_overlap_enumeration_matches_rule_pairs():
    ovs = overlaps(XSYS)
    # every overlap references valid rules and a genuine shared word
    for ov in ovs:
        assert 0 <= ov.rule_a < len(XSYS.rules)
        assert 0 <= ov.rule_b < len(XSYS.rules)
        la = XSYS.rules[ov.rule_a].lhs
        lb = XSYS.rules[ov.rule_b].lhs
        assert ov.word[ov.pos_a:ov.pos_a + len(la)] == la
        assert ov.word[ov.pos_b:ov.pos_b + len(lb)] == lb


# -- flatness: normal words per degree match the classical counts ---------

def _normal_word_counts(system, top):
    """Normal words of each length 0..top.  A prefix of a normal word is
    normal, so each length extends the normal words of the one below."""
    layer, counts = [()], [1]
    for _ in range(top):
        layer = [
            w + (g,) for w in layer for g in range(len(system.table))
            if system.is_normal_word(w + (g,))
        ]
        counts.append(len(layer))
    return counts


CLASSICAL = {"u": Fraction(1), "s": Fraction(0)}


@pytest.mark.parametrize("bindings", [None, CLASSICAL], ids=["symbolic", "u1_s0"])
@pytest.mark.parametrize(
    "name, counts",
    [
        ("xspace", [1, 3, 6, 10, 15, 21]),
        ("xispace", [1, 3, 3, 1, 0]),
        ("H8", [1, 7, 28, 84, 210]),
        ("H10", [1, 9, 45, 165, 495]),
    ],
    ids=["xspace", "xispace", "H8", "H10"],
)
def test_normal_word_counts_are_flat(name, counts, bindings):
    """By the diamond lemma the normal words of a confluent system are a
    basis, so a flat deformation has the classical count in each degree:
    polynomials in 3, 7 and 9 commuting letters, and the exterior algebra
    on 3."""
    if name.startswith("H"):
        system = group_system(name, bindings)
    else:
        system = builtin(name, bindings).rewrite_system()
    assert _normal_word_counts(system, len(counts) - 1) == counts


# -- redex lookup: the lhs index against a scan over every rule -------------

def _scanned_redex(system, w):
    """Leftmost position holding some lhs, and there the longest matching
    lhs of lowest rule index, found by trying every rule."""
    for pos in range(len(w)):
        hits = [
            (-len(r.lhs), i)
            for i, r in enumerate(system.rules)
            if w[pos : pos + len(r.lhs)] == r.lhs
        ]
        if hits:
            return pos, min(hits)[1]
    return None


REDEX_SYSTEMS = {
    "wz": wz_system(),
    "TT7": builtin("TT7").rewrite_system(),
    "tdinv": extended_system("H10"),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(REDEX_SYSTEMS)), st.data())
def test_find_redex_matches_a_scan_over_all_rules(name, data):
    system = REDEX_SYSTEMS[name]
    letters = st.integers(0, len(system.table) - 1)
    w = data.draw(st.lists(letters, max_size=8).map(tuple))
    assert system.find_redex(w) == _scanned_redex(system, w)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(REDEX_SYSTEMS)), st.data())
def test_find_redex_prefers_the_longest_then_the_first_rule(name, data):
    """Left-hand sides of mixed lengths, repeats included, over the same
    alphabets (the built systems' lhs are all of length 2)."""
    table = REDEX_SYSTEMS[name].table
    letters = st.integers(0, len(table) - 1)
    lhs = st.lists(letters, min_size=1, max_size=3).map(tuple)
    lhss = data.draw(st.lists(lhs, min_size=1, max_size=12))
    system = RewriteSystem(
        table,
        MonomialOrder.default(table),
        [RewriteRule(lhs, NCPoly.zero(table)) for lhs in lhss],
    )
    w = data.draw(st.lists(letters, max_size=8).map(tuple))
    assert system.find_redex(w) == _scanned_redex(system, w)
