"""Oriented rewriting in the free algebra: normal forms, overlap
enumeration, diamond-lemma confluence checks, bounded completion."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Dict, Hashable, Iterable, List, Optional, Tuple

from . import scalar as sc
from .freealg import AlgebraError, GenTable, NCPoly, Word, deglex_key
from .report import CheckItem, CheckReport


class RewriteError(Exception):
    pass


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: NCPoly  # every word strictly smaller than lhs; lhs coefficient 1


@dataclass(frozen=True)
class Overlap:
    rule_a: int
    rule_b: int
    word: Word  # starts with lhs_a
    pos_b: int  # position of lhs_b inside word


class RewriteSystem:
    def __init__(self, table: GenTable, rules: List[RewriteRule]):
        self.table = table
        self.rules = list(rules)
        # each lhs to its lowest rule index, probed longest lhs first
        self._by_lhs: Dict[Word, int] = {}
        for i, r in enumerate(self.rules):
            self._by_lhs.setdefault(r.lhs, i)
        self._lengths = sorted({len(lhs) for lhs in self._by_lhs}, reverse=True)
        #: the last letters of the left-hand sides; a word ending in any
        #: other letter ends in it after every rewrite
        self._lhs_ends = frozenset(lhs[-1] for lhs in self._by_lhs if lhs)
        #: one-word normal forms, word -> {normal word: coefficient}, filled
        #: by `TensorAlgebra.normal_form` for as long as the system lives
        self.word_forms: Dict[Word, Dict[Word, sc.Scalar]] = {}

    def __len__(self):
        return len(self.rules)

    # -- matching ---------------------------------------------------------

    def _match_at(self, w: Word, pos: int) -> Optional[int]:
        """Longest-lhs rule matching w at pos (ties broken by rule index)."""
        rest = len(w) - pos
        for n in self._lengths:
            if n <= rest:
                i = self._by_lhs.get(w[pos : pos + n])
                if i is not None:
                    return i
        return None

    def find_redex(self, w: Word) -> Optional[Tuple[int, int]]:
        """Leftmost-outermost redex: (position, rule index) or None."""
        for pos in range(len(w)):
            i = self._match_at(w, pos)
            if i is not None:
                return pos, i
        return None

    def rewrite_word_once(self, w: Word, pos: int, rule_idx: int) -> NCPoly:
        rule = self.rules[rule_idx]
        prefix, suffix = w[:pos], w[pos + len(rule.lhs) :]
        terms = rule.rhs.terms.items()
        return NCPoly(self.table, {prefix + rw + suffix: rc for rw, rc in terms})

    def normal_form(self, p: NCPoly, trailing: AbstractSet[int] = frozenset()) -> NCPoly:
        """Exhaustive reduction, each word rewritten at its leftmost-outermost
        redex, so the result is the same linear map in a system that is not
        confluent.

        Pending words wait with their merged coefficients, and the largest in
        the deg-lex order is taken first.  Every rule's rhs is strictly
        smaller than its lhs, and the order is compatible with concatenation,
        so every word a rewrite makes is smaller than the word taken: a word
        taken never comes back, and a word reached along several paths is
        rewritten once.  This also proves termination.

        `trailing` is a set of letters that no lhs ends with.  A word ending
        in one of them is dropped where it arises, so the result is the
        normal form modulo the left ideal those letters generate: no rewrite
        touches such a last letter, so every word the dropped one reduces to
        ends in it too, and the words kept come out as without `trailing`.
        """
        if p.table != self.table:
            raise AlgebraError("polynomial over a different generator table")
        if not self._lhs_ends.isdisjoint(trailing):
            raise RewriteError("a letter to drop ends a left-hand side")
        pending = {w: c for w, c in p.terms.items() if not (w and w[-1] in trailing)}
        # the least entry is the largest word: the longest, then of least ids
        heap = [(-len(w), w) for w in pending]
        heapq.heapify(heap)
        out: Dict[Word, sc.Scalar] = {}
        while heap:
            w = heapq.heappop(heap)[1]
            c = pending.pop(w)
            if c.is_zero():
                continue
            m = self.find_redex(w)
            if m is None:
                out[w] = c  # w never comes back, so nothing is added to it later
                continue
            pos, i = m
            rule = self.rules[i]
            prefix, suffix = w[:pos], w[pos + len(rule.lhs) :]
            # w does not end in a trailing letter, so only a redex at its end
            # can make a word that does
            cut = trailing and not suffix
            for rw, rc in rule.rhs.terms.items():
                v = prefix + rw + suffix
                if cut and v and v[-1] in trailing:
                    continue
                old = pending.get(v)
                if old is None:
                    pending[v] = c * rc
                    heapq.heappush(heap, (-len(v), v))
                else:
                    pending[v] = old + c * rc
        return NCPoly(self.table, out)


# ---------------------------------------------------------------------------
# building systems from relation lists
# ---------------------------------------------------------------------------

def eliminate_rows(
    rows: List[Dict[Hashable, sc.Scalar]], columns: Iterable[Hashable]
) -> List[Hashable]:
    """Reduced row echelon form of sparse rows {column: nonzero entry}, in
    place, and its pivot columns.  Pivots go in the order of `columns`; each
    column's pivot row is the candidate of least term count, the first on
    ties.  The pivot rows end up first, monic and in pivot order, and the
    rows after them empty."""
    pivots = []
    for c in columns:
        r = len(pivots)
        candidates = [i for i in range(r, len(rows)) if c in rows[i]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: rows[i][c].term_count())
        rows[r], rows[best] = rows[best], rows[r]
        inv = sc.ONE / rows[r][c]
        pivot = rows[r] = {j: e * inv for j, e in rows[r].items()}
        for row in rows:
            f = row.get(c)
            if f is None or row is pivot:
                continue
            for j, b in pivot.items():
                e = row.get(j, sc.ZERO) - f * b
                if e.is_zero():
                    del row[j]
                else:
                    row[j] = e
        pivots.append(c)
    return pivots


def interreduce_relations(relations: List[NCPoly]) -> List[NCPoly]:
    """Reduced echelon form of the Scalar-linear span of the relations, the
    words in descending monomial order as columns: monic polynomials by
    descending leading word, no leading word occurring in another row."""
    rows = [dict(p.terms) for p in relations]
    words = sorted({w for p in relations for w in p.terms}, key=deglex_key, reverse=True)
    rank = len(eliminate_rows(rows, words))
    return [NCPoly(relations[0].table, row) for row in rows[:rank]]


def build_rules(relations: List[NCPoly], table: GenTable) -> RewriteSystem:
    """Orient a relation span into a rewrite system with normal rhs.

    Each rhs is reduced once, in the system before any rhs is: whether a
    word is normal depends only on the left-hand sides, which that pass
    keeps."""
    for r in relations:
        if r.table != table:
            raise AlgebraError("mismatched generator tables")
    rules = []
    for p in interreduce_relations([r for r in relations if not r.is_zero()]):
        lw, _ = p.leading_term()
        if lw == ():
            raise RewriteError("inconsistent presentation: ideal contains the unit")
        rules.append(RewriteRule(lw, NCPoly.word(table, lw) - p))
    unreduced = RewriteSystem(table, rules)
    return RewriteSystem(
        table, [RewriteRule(r.lhs, unreduced.normal_form(r.rhs)) for r in rules]
    )


# ---------------------------------------------------------------------------
# overlaps and confluence
# ---------------------------------------------------------------------------

def overlaps(sys: RewriteSystem) -> List[Overlap]:
    out = []
    rules = sys.rules
    for a, ra in enumerate(rules):
        for b, rb in enumerate(rules):
            la, lb = ra.lhs, rb.lhs
            # proper overlap: nonempty suffix of la = prefix of lb
            max_k = min(len(la), len(lb))
            for k in range(1, max_k):
                if la[len(la) - k :] == lb[:k]:
                    word = la + lb[k:]
                    out.append(Overlap(a, b, word, len(la) - k))
            # containment: lb strictly inside la
            if a != b and len(lb) < len(la):
                for pos in range(len(la) - len(lb) + 1):
                    if la[pos : pos + len(lb)] == lb:
                        out.append(Overlap(a, b, la, pos))
    # deterministic order
    out.sort(key=lambda o: (deglex_key(o.word), o.rule_a, o.rule_b, o.pos_b))
    return out


def overlap_residual(sys: RewriteSystem, ov: Overlap) -> NCPoly:
    p1 = sys.rewrite_word_once(ov.word, 0, ov.rule_a)
    p2 = sys.rewrite_word_once(ov.word, ov.pos_b, ov.rule_b)
    return sys.normal_form(p1) - sys.normal_form(p2)


def _overlap_label(sys: RewriteSystem, ov: Overlap) -> str:
    word = "*".join(sys.table.name(g) for g in ov.word)
    return f"overlap {word} (rules {ov.rule_a},{ov.rule_b})"


def diamond_check(sys: RewriteSystem, suite: str = "diamond") -> CheckReport:
    items = [
        CheckItem.all_zero(_overlap_label(sys, ov), [overlap_residual(sys, ov)])
        for ov in overlaps(sys)
    ]
    return CheckReport.from_items(suite, items)


def complete(sys: RewriteSystem, max_word_len: int) -> RewriteSystem:
    """Bounded Knuth-Bendix style completion.

    Returns a confluent RewriteSystem, after a round in which every overlap
    resolved, or raises RewriteError when an overlap or a rule longer than
    the word-length bound is left.
    """
    if max_word_len < 3:
        raise RewriteError("max_word_len must be at least 3")
    cur = sys
    for _ in range(200):
        found = overlaps(cur)
        new_relations = [
            res
            for ov in found
            if len(ov.word) <= max_word_len
            and not (res := overlap_residual(cur, ov)).is_zero()
        ]
        if not new_relations:
            pending = sum(len(ov.word) > max_word_len for ov in found)
            if pending:
                raise RewriteError(
                    f"overlaps longer than {max_word_len} letters left: {pending}"
                )
            return cur
        all_rel = [
            NCPoly.word(cur.table, r.lhs) - r.rhs for r in cur.rules
        ] + new_relations
        cur = build_rules(all_rel, cur.table)
        if any(len(r.lhs) > max_word_len for r in cur.rules):
            raise RewriteError(f"a rule longer than {max_word_len} letters")
    raise RewriteError("completion did not stabilize")
