"""Rewriting: normal forms, confluence via the diamond lemma, completion."""

import functools
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwh import memo, quantumgroup, rewrite
from qwh import scalar as sc
from qwh.cli import _SUITES, run_suite
from qwh.freealg import GenTable, NCPoly, deglex_key
from qwh.diffcalc import wz_system
from qwh.presentations import builtin, parse_presentation
from qwh.quantumgroup import extended_system, group_system
from qwh.rewrite import (
    Overlap,
    RewriteError,
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
    return pres, build_rules(pres.relations, pres.table)


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
    assert XSYS.normal_form(prod) == _rightmost_normal_form(XSYS, prod)


def _rightmost_normal_form(system, p):
    """Exhaustive reduction that always rewrites the rightmost redex, found
    by a scan over every rule."""
    out = NCPoly.zero(system.table)
    for w, c in p.terms.items():
        m = _scanned_redex(system, w, rightmost=True)
        if m is None:
            out = out + NCPoly.word(system.table, w, c)
        else:
            out = out + _rightmost_normal_form(system, system.rewrite_word_once(w, *m) * c)
    return out


def test_normal_words_avoid_leading_words():
    for rule in XSYS.rules:
        assert XSYS.find_redex(rule.lhs) is not None
    assert XSYS.find_redex(()) is None


def test_builtin_space_systems_are_confluent():
    for name in ("classical_R", "xspace", "xispace", "TT7"):
        pres = builtin(name)
        sys_ = build_rules(pres.relations, pres.table)
        rep = diamond_check(sys_)
        assert rep.ok, rep.render_text()


def test_generic_q_coordinate_system_is_confluent():
    # with q free the coordinate algebra alone is still confluent ...
    pres = builtin("xspace_generic_q")
    sys_ = build_rules(pres.relations, pres.table)
    assert diamond_check(sys_).ok


def test_interreduce_drops_redundant_relations():
    t = GenTable(["a", "b"])
    r1 = NCPoly.parse(t, "a*b - b*a")
    rows = interreduce_relations([r1, r1.scale(Scalar.from_int(2)), r1 - r1])
    assert len(rows) == 1
    assert rows[0].leading_term()[1] == sc.ONE


def test_completion_adds_the_missing_rule():
    # a*b -> c and b*a -> c overlap on a*b*a (c*a against a*c) and on
    # b*a*b (c*b against b*c): the system is not confluent until
    # completion adds a rule for each
    t = GenTable(["a", "b", "c"])
    rels = [NCPoly.parse(t, "a*b - c"), NCPoly.parse(t, "b*a - c")]
    sys_ = build_rules(rels, t)
    assert len(sys_.rules) == 2
    assert not diamond_check(sys_).ok
    done = complete(sys_, max_word_len=4)
    assert isinstance(done, RewriteSystem)
    assert len(done.rules) == 4
    assert diamond_check(done).ok


def test_completion_failure_is_reported():
    # a*b -> b*a*a doubles the word length forever: completion must give up
    t = GenTable(["a", "b"])
    rels = [NCPoly.parse(t, "a*a - a*b*a")]
    sys_ = build_rules(rels, t)
    with pytest.raises(RewriteError, match="longer than 4 letters left: 1"):
        complete(sys_, max_word_len=4)


def test_overlap_enumeration_matches_rule_pairs():
    ovs = overlaps(XSYS)
    # every overlap references valid rules and a genuine shared word
    for ov in ovs:
        assert 0 <= ov.rule_a < len(XSYS.rules)
        assert 0 <= ov.rule_b < len(XSYS.rules)
        la = XSYS.rules[ov.rule_a].lhs
        lb = XSYS.rules[ov.rule_b].lhs
        assert ov.word[:len(la)] == la
        assert ov.word[ov.pos_b:ov.pos_b + len(lb)] == lb


def test_a_left_hand_side_inside_a_longer_one_is_an_overlap():
    # b*c lies strictly inside a*b*c: a*b*c rewrites to c*c*c, or to a*c*b,
    # which no rule reduces further
    t = GenTable(["a", "b", "c"])
    rels = [NCPoly.parse(t, "a*b*c - c*c*c"), NCPoly.parse(t, "b*c - c*b")]
    sys_ = build_rules(rels, t)
    assert overlaps(sys_) == [Overlap(rule_a=0, rule_b=1, word=(0, 1, 2), pos_b=1)]
    rep = diamond_check(sys_)
    assert [(i.passed, i.residual) for i in rep.items] == [(False, "-a*c*b + c*c*c")]


def test_an_empty_relation_list_builds_a_system_without_rules():
    t = GenTable(["a", "b"])
    sys_ = build_rules([], t)
    assert sys_.rules == []
    assert sys_.normal_form(NCPoly.parse(t, "b*a")) == NCPoly.parse(t, "b*a")


# -- flatness: normal words per degree match the classical counts ---------

def _normal_word_counts(system, top):
    """Normal words of each length 0..top.  A prefix of a normal word is
    normal, so each length extends the normal words of the one below."""
    layer, counts = [()], [1]
    for _ in range(top):
        layer = [
            w + (g,) for w in layer for g in range(len(system.table))
            if system.find_redex(w + (g,)) is None
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

def _scanned_redex(system, w, rightmost=False):
    """Leftmost (or rightmost) position holding some lhs, and there the
    longest matching lhs of lowest rule index, found by trying every rule."""
    for pos in reversed(range(len(w))) if rightmost else range(len(w)):
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
    system = RewriteSystem(table, [RewriteRule(lhs, NCPoly.zero(table)) for lhs in lhss])
    w = data.draw(st.lists(letters, max_size=8).map(tuple))
    assert system.find_redex(w) == _scanned_redex(system, w)


# -- the shared elimination against the row-by-row paths it replaced -------

def reference_interreduce(relations):
    """The row-by-row reference: reduce each relation by the pivots so far
    until no pivot word is left in it, make it monic, and clear its leading
    word from the earlier pivots."""
    pivots = {}

    def reduce_row(p):
        changed = True
        while changed:
            changed = False
            for w in list(p.terms):
                piv = pivots.get(w)
                if piv is not None:
                    p = p - piv.scale(p.terms[w])
                    changed = True
        return p

    for rel in relations:
        p = reduce_row(rel)
        if p.is_zero():
            continue
        lw, lc = p.leading_term()
        p = p.scale(sc.ONE / lc)
        for w, piv in list(pivots.items()):
            if lw in piv.terms:
                pivots[w] = piv - p.scale(piv.terms[lw])
        pivots[lw] = p
    return [pivots[w] for w in sorted(pivots, key=deglex_key, reverse=True)]


def reference_build_rules(relations, table):
    """The reference orientation: reference rows, then every rhs normalised
    in the current system, round after round, until no rhs changes."""
    rows = reference_interreduce([r for r in relations if not r.is_zero()])
    rules = []
    for p in rows:
        lw, _ = p.leading_term()
        rules.append(RewriteRule(lw, NCPoly.word(table, lw) - p))
    for _ in range(100):
        cur = RewriteSystem(table, rules)
        new_rules = [RewriteRule(r.lhs, cur.normal_form(r.rhs)) for r in rules]
        if all(a.rhs.terms == b.rhs.terms for a, b in zip(rules, new_rules)):
            return RewriteSystem(table, new_rules)
        rules = new_rules
    raise AssertionError("rhs inter-reduction did not stabilize")


def _assert_same_system(got, want):
    assert [r.lhs for r in got.rules] == [r.lhs for r in want.rules]
    assert [r.rhs for r in got.rules] == [r.rhs for r in want.rules]


U2_S3 = {"u": Fraction(2), "s": Fraction(3)}


def _record_calls(mp, real, calls):
    """Replace `real` under every name that binds it in a qwh module by a
    wrapper that appends (argument list, result) of each call to `calls`."""

    def wrapper(*args):
        out = real(*args)
        calls.append((list(args), out))
        return out

    for module in [m for name, m in sys.modules.items() if name.startswith("qwh")]:
        if getattr(module, real.__name__, None) is real:
            mp.setattr(module, real.__name__, wrapper)
    return wrapper


def _run_all_suites(mp, bindings):
    """The 18 suites and the generic-q variants, from an empty memo, so that
    every system is built while they run."""
    mp.setattr(memo, "_symbolic", {})
    mp.setattr(memo, "_point", {})
    mp.setattr(memo, "_point_key", ())
    for name, (_, supports_gq) in _SUITES.items():
        for generic_q in (False, True) if supports_gq else (False,):
            run_suite(name, bindings, generic_q)


@pytest.mark.parametrize("bindings", [None, U2_S3], ids=["symbolic", "u=2,s=3"])
def test_elimination_matches_the_row_by_row_paths_on_every_suite_input(
    bindings, monkeypatch
):
    """Every relation list interreduced, and every system built, while the
    18 suites and the generic-q variants run."""
    interreduced, built = [], []
    wrapper = _record_calls(monkeypatch, rewrite.interreduce_relations, interreduced)
    _record_calls(monkeypatch, rewrite.build_rules, built)
    assert quantumgroup.interreduce_relations is wrapper
    _run_all_suites(monkeypatch, bindings)
    assert len(interreduced) > len(built) > 10
    for (relations,), out in interreduced:
        assert out == reference_interreduce(relations)
    for (relations, table), system in built:
        _assert_same_system(system, reference_build_rules(relations, table))


# -- the merged reduction against the stack loop it replaced ----------------

def reference_normal_form(system, p):
    """The stack loop the merged reduction replaced: each term is popped,
    rewritten at its leftmost-outermost redex, and its images pushed back
    unmerged, so a word reached along several paths is rewritten each
    time it is reached."""
    out = {}
    work = list(p.terms.items())
    while work:
        w, c = work.pop()
        m = system.find_redex(w)
        if m is None:
            out[w] = out.get(w, sc.ZERO) + c
        else:
            pos, i = m
            rule = system.rules[i]
            prefix, suffix = w[:pos], w[pos + len(rule.lhs) :]
            for rw, rc in rule.rhs.terms.items():
                work.append((prefix + rw + suffix, c * rc))
    return NCPoly(system.table, out)


@functools.lru_cache(maxsize=None)
def _suite_systems():
    """Every system built while the suites and the generic-q variants run,
    symbolically and at u=2,s=3, the calculus with q free among them; it
    is not confluent, so only the same redex choices give the same map."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        _record_calls(mp, rewrite.build_rules, built)
        for bindings in (None, U2_S3):
            _run_all_suites(mp, bindings)
        generic_q = wz_system(generic_q=True)
    systems = [system for _, system in built]
    assert any(system is generic_q for system in systems)
    assert not diamond_check(generic_q).ok
    return systems


suite_coeffs = st.one_of(coeffs, coeffs.map(lambda c: c * sc.U), coeffs.map(lambda c: c * sc.S))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_merged_reduction_matches_the_stack_loop_on_every_suite_system(data):
    for system in _suite_systems():
        letters = st.integers(0, len(system.table) - 1)
        terms = st.dictionaries(
            st.lists(letters, max_size=5).map(tuple), suite_coeffs, max_size=3
        )
        p = NCPoly(system.table, data.draw(terms))
        assert system.normal_form(p) == reference_normal_form(system, p)


def _free_ends(system):
    """The letters that end no left-hand side."""
    return frozenset(range(len(system.table))) - {r.lhs[-1] for r in system.rules}


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_dropping_trailing_letters_matches_the_full_normal_form(data):
    # the normal form modulo the left ideal of some letters that end no lhs
    # is the whole normal form without the words that end in them; the
    # calculus, whose derivative letters are such letters, is among these
    # systems, the one with q free too
    systems = [s for s in _suite_systems() if _free_ends(s)]
    assert any(s.table.lookup("d1") is not None for s in systems)
    for system in systems:
        free = sorted(_free_ends(system))
        trailing = data.draw(st.sets(st.sampled_from(free), min_size=1))
        letters = st.integers(0, len(system.table) - 1)
        terms = st.dictionaries(
            st.lists(letters, max_size=5).map(tuple), suite_coeffs, max_size=3
        )
        p = NCPoly(system.table, data.draw(terms))
        full = system.normal_form(p)
        kept = {w: c for w, c in full.terms.items() if not (w and w[-1] in trailing)}
        assert system.normal_form(p, trailing=trailing) == NCPoly(system.table, kept)


def test_a_dropped_letter_must_end_no_left_hand_side():
    # b*a -> a*b rewrites at a trailing a: b*a does not end in a once
    # normal, so dropping the words that end in a would lose it
    pres = parse_presentation("algebra t\ngenerators b > a\nrel b*a = a*b\n")
    system = pres.rewrite_system()
    p = NCPoly.parse(pres.table, "b*a*a + a*a + 2*a")
    with pytest.raises(RewriteError, match="a letter to drop ends a left-hand side"):
        system.normal_form(p, trailing={pres.table.gen("a")})
    # b moves to the end, so every word with a b drops
    assert system.normal_form(p) == NCPoly.parse(pres.table, "a*a*b + a*a + 2*a")
    assert system.normal_form(p, trailing={pres.table.gen("b")}) == NCPoly.parse(
        pres.table, "a*a + 2*a"
    )


def test_each_word_is_searched_once_per_call(monkeypatch):
    """Within one normal_form call, find_redex never sees a word twice: a
    word reached along several paths is rewritten once, with its merged
    coefficient.  The stack loop searches it once per path."""
    seen = []
    real = RewriteSystem.find_redex

    def spy(self, w):
        seen.append(w)
        return real(self, w)

    monkeypatch.setattr(RewriteSystem, "find_redex", spy)
    for system in (XSYS, group_system("H8"), wz_system(generic_q=True)):
        for w in itertools.product(range(len(system.table)), repeat=3):
            seen.clear()
            system.normal_form(NCPoly.word(system.table, w))
            assert len(seen) == len(set(seen)), (system.table, w)


ABC = GenTable(["a", "b", "c"])
abc_words = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)
abc_coeffs = st.one_of(
    coeffs,
    st.tuples(coeffs, st.integers(-2, 2)).map(lambda t: t[0] * sc.U ** t[1] + sc.S),
)


@st.composite
def relation_lists(draw):
    """Relations over words of lengths 1 to 3, with a zero row and a
    combination of two others among them."""
    rels = [
        NCPoly(ABC, draw(st.dictionaries(abc_words, abc_coeffs, min_size=1, max_size=4)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    i, j = draw(st.integers(0, len(rels) - 1)), draw(st.integers(0, len(rels) - 1))
    a, b = draw(abc_coeffs), draw(abc_coeffs)
    rels.append(rels[i].scale(a) + rels[j].scale(b))
    rels.append(NCPoly.zero(ABC))
    return draw(st.permutations(rels))


@settings(max_examples=40, deadline=None)
@given(relation_lists(), st.randoms(use_true_random=False))
def test_interreduced_rows_are_canonical(relations, random):
    """The reduced echelon form of a span does not depend on the order of
    its spanning list, and the row-by-row reference finds the same rows."""
    rows = interreduce_relations(relations)
    shuffled = list(relations)
    random.shuffle(shuffled)
    assert interreduce_relations(shuffled) == rows
    assert reference_interreduce(relations) == rows
    leading = [p.leading_term() for p in rows]
    assert [w for w, _ in leading] == sorted(
        (w for w, _ in leading), key=deglex_key, reverse=True
    )
    for (w, c), p in zip(leading, rows):
        assert c == sc.ONE
        assert all(w not in q.terms for q in rows if q is not p)


@settings(max_examples=40, deadline=None)
@given(relation_lists())
def test_one_rhs_pass_matches_the_rounds_until_stable(relations):
    """Left-hand sides of mixed lengths, so that an rhs can hold a word with
    another rule's lhs inside it."""
    _assert_same_system(
        build_rules(relations, ABC),
        reference_build_rules(relations, ABC),
    )
