"""Free associative algebra: generator tables, words, deg-lex order, NCPoly,
and AlgebraMap, the algebra map fixed by the images of the generators (the
coactions and the coproduct, counit and antipode of the quantum groups)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import scalar as sc
from .scalar import Scalar

Word = Tuple[int, ...]
EMPTY_WORD: Word = ()


class AlgebraError(Exception):
    pass


class GenTable:
    """Ordered table of named generators; a generator's position is its
    rank in the monomial order (earlier entries are larger, `deglex_key`)."""

    def __init__(self, names):
        names = list(names)
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate generator names in {names}")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    def lookup(self, name) -> Optional[int]:
        return self.index.get(name)

    def gen(self, name) -> int:
        i = self.index.get(name)
        if i is None:
            raise AlgebraError(f"unknown generator {name!r}")
        return i

    def name(self, gid: int) -> str:
        return self.names[gid]

    def gid_map(self, dst: "GenTable", rename=None) -> Dict[int, int]:
        """Each generator's id in `dst` under the same name, or under
        `rename(name)`; generators whose name `dst` lacks are left out."""
        out = {}
        for gid, name in enumerate(self.names):
            target = dst.lookup(rename(name) if rename else name)
            if target is not None:
                out[gid] = target
        return out

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, GenTable) and self.names == other.names

    def __hash__(self):
        return hash(tuple(self.names))

    def __repr__(self):
        return f"GenTable({self.names})"


def deglex_key(w: Word):
    """Sort key of the degree-lexicographic order, in which a generator's
    table position is its rank: ascending key = ascending order, and
    generator id 0 is the largest letter."""
    return (len(w), tuple(-g for g in w))


def _add_scaled(out: Dict[Word, Scalar], terms: Dict[Word, Scalar], c: Scalar):
    """out += terms * c, in place, term by term."""
    for v, d in terms.items():
        d = d * c
        out[v] = out[v] + d if v in out else d


class NCPoly:
    """Finite Scalar-linear combination of words over a fixed table.  The
    constructor drops zero coefficients; it is the one place that does."""

    __slots__ = ("table", "terms")

    def __init__(self, table: GenTable, terms: Dict[Word, Scalar]):
        self.table = table
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(table) -> "NCPoly":
        return NCPoly(table, {})

    @staticmethod
    def one(table) -> "NCPoly":
        return NCPoly(table, {EMPTY_WORD: sc.ONE})

    @staticmethod
    def constant(table, c: Scalar) -> "NCPoly":
        return NCPoly(table, {EMPTY_WORD: c})

    @staticmethod
    def generator(table, gid: int) -> "NCPoly":
        return NCPoly(table, {(gid,): sc.ONE})

    @staticmethod
    def word(table, w: Word, c: Scalar = sc.ONE) -> "NCPoly":
        return NCPoly(table, {tuple(w): c})

    @staticmethod
    def parse(table, text: str) -> "NCPoly":
        from .exprparse import parse_poly_text

        return parse_poly_text(text, table)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_scalar(self) -> Optional[Scalar]:
        """The coefficient of the unit word, or None if non-scalar terms exist."""
        if not self.terms:
            return sc.ZERO
        if len(self.terms) == 1 and EMPTY_WORD in self.terms:
            return self.terms[EMPTY_WORD]
        return None

    def _check(self, other):
        if self.table != other.table:
            raise AlgebraError("mismatched generator tables")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, sc.ZERO) + c
        return NCPoly(self.table, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, sc.ZERO) - c
        return NCPoly(self.table, out)

    def __neg__(self):
        return NCPoly(self.table, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        out: Dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, sc.ZERO) + c1 * c2
        return NCPoly(self.table, out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "NCPoly":
        if c.is_zero():
            return NCPoly.zero(self.table)
        return NCPoly(self.table, {w: cc * c for w, cc in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    # -- structure --------------------------------------------------------

    def leading_term(self) -> Tuple[Word, Scalar]:
        if not self.terms:
            raise AlgebraError("leading term of the zero polynomial")
        w = max(self.terms, key=deglex_key)
        return w, self.terms[w]

    def substitute_scalars(self, bindings) -> "NCPoly":
        return NCPoly(
            self.table, {w: c.substitute(bindings) for w, c in self.terms.items()}
        )

    def relabel(self, dst: GenTable, gid_map: Dict[int, int]) -> "NCPoly":
        """The same combination over `dst`, each letter g replaced by
        gid_map[g].  A word with a letter missing from gid_map is dropped;
        words that become equal add their coefficients."""
        out: Dict[Word, Scalar] = {}
        for w, c in self.terms.items():
            try:
                image = tuple(gid_map[g] for g in w)
            except KeyError:
                continue
            out[image] = out[image] + c if image in out else c
        return NCPoly(dst, out)

    def map_words(self, table, fn) -> "NCPoly":
        """Linear extension of a word map fn: Word -> NCPoly over `table`.
        Every term d*v of fn(w), for every term c*w, adds d*c to v in one
        accumulator dict, and the result is the one NCPoly built from it."""
        out: Dict[Word, Scalar] = {}
        for w, c in self.terms.items():
            image = fn(w)
            if image.table is not table and image.table != table:
                raise AlgebraError("mismatched generator tables")
            _add_scaled(out, image.terms, c)
        return NCPoly(table, out)

    # -- rendering --------------------------------------------------------

    def render(self, order=deglex_key) -> str:
        """The terms by descending `order`, a sort key on words."""
        if not self.terms:
            return "0"
        pieces = []
        for w in sorted(self.terms, key=order, reverse=True):
            c = self.terms[w]
            cs = str(c)
            neg = False
            if cs.startswith("-") and "+" not in cs and " - " not in cs:
                neg = True
                cs = str(-c)
            need_paren = ("+" in cs) or (" - " in cs)
            if need_paren:
                cs = f"({cs})"
            if w == EMPTY_WORD:
                body = cs
            else:
                names = "*".join(self.table.name(g) for g in w)
                body = names if cs == "1" else f"{cs}*{names}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"NCPoly({self.render()})"


#: the terms of 1, the image of the empty word under any algebra map
_UNIT: Dict[Word, Scalar] = {EMPTY_WORD: sc.ONE}


class AlgebraMap:
    """The algebra map from the free algebra on `source` to the one on
    `table` that sends generator g to images[g], an NCPoly over `table`;
    with anti, the anti-homomorphism, which sends g1*...*gn to
    images[gn]*...*images[g1].  A counit maps into the ground table, the
    one with no generators.  The map descends to a quotient of the source
    when every relation maps into the target's ideal."""

    def __init__(self, source: GenTable, table: GenTable, images, anti=False):
        images = list(images)
        if len(images) != len(source):
            raise AlgebraError(f"{len(images)} images for {len(source)} generators")
        if any(im.table != table for im in images):
            raise AlgebraError("mismatched generator tables")
        self.source, self.table, self.images, self.anti = source, table, images, anti
        self._terms = [im.terms for im in images]

    def __call__(self, p: NCPoly) -> NCPoly:
        """p's image.  Each word's product of images is expanded factor by
        factor in plain dicts and added into one accumulator, as in
        `NCPoly.map_words`: no NCPoly is built per factor or per word."""
        if p.table is not self.source and p.table != self.source:
            raise AlgebraError("polynomial is not over the map's source table")
        images = self._terms
        out: Dict[Word, Scalar] = {}
        for w, c in p.terms.items():
            if self.anti:
                w = w[::-1]
            prod = images[w[0]] if w else _UNIT
            for g in w[1:]:
                factor = images[g].items()
                step: Dict[Word, Scalar] = {}
                for w1, c1 in prod.items():
                    for w2, c2 in factor:
                        v = w1 + w2
                        d = c1 * c2
                        step[v] = step[v] + d if v in step else d
                prod = step
            _add_scaled(out, prod, c)
        return NCPoly(self.table, out)
