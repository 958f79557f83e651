"""Set-partition diagrams on two rows of r vertices and their product.

A diagram of rank r is a set partition of the 2r vertices
{1..r} (top row) and {1'..r'} (bottom row); internally top vertex a is
numbered a-1 and bottom vertex a' is numbered r+a-1.  The product stacks
one diagram over another and removes interior connected components; the
removed-component count k is kept symbolic (the scalar delta^k) so that
products are independent of any coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass


class Diagram:
    """Canonical set partition of the 2r-vertex set.

    Blocks are stored sorted by least vertex with ascending vertices inside
    each block, so equality and hashing are structural.
    """

    __slots__ = ("r", "blocks")

    def __init__(self, r, blocks):
        self.r = r
        seen = set()
        canon = []
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise ValueError("empty block")
            canon.append(b)
            for v in b:
                if v in seen or not 0 <= v < 2 * r:
                    raise ValueError("blocks must partition the vertex set")
                seen.add(v)
        if len(seen) != 2 * r:
            raise ValueError("blocks must cover all 2r vertices")
        self.blocks = tuple(sorted(canon))

    def __eq__(self, other):
        return (
            isinstance(other, Diagram)
            and self.r == other.r
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.r, self.blocks))

    def __repr__(self):
        return "Diagram(%r)" % self.format()

    def format(self):
        """Text form "{1,3,3',4'}|{2,1'}|{4}|{5,2',5'}"."""
        parts = []
        for b in self.blocks:
            names = []
            for v in b:
                if v < self.r:
                    names.append(str(v + 1))
                else:
                    names.append("%d'" % (v - self.r + 1))
            parts.append("{%s}" % ",".join(names))
        return "|".join(parts)

    @staticmethod
    def parse(text):
        """Round-trip inverse of :meth:`format`; the rank is inferred."""
        raw_blocks = []
        names = []
        for part in text.strip().split("|"):
            part = part.strip()
            if not (part.startswith("{") and part.endswith("}")):
                raise ValueError("malformed block %r" % part)
            entries = [e.strip() for e in part[1:-1].split(",") if e.strip()]
            raw_blocks.append(entries)
            names.extend(entries)
        r2 = len(names)
        if r2 % 2 != 0:
            raise ValueError("diagram must have an even vertex count")
        r = r2 // 2
        blocks = []
        for entries in raw_blocks:
            block = []
            for e in entries:
                if e.endswith("'"):
                    block.append(r + int(e[:-1]) - 1)
                else:
                    block.append(int(e) - 1)
            blocks.append(block)
        return Diagram(r, blocks)


@dataclass(frozen=True)
class ScaledDiagram:
    """delta^k times a diagram, with the exponent k kept symbolic."""

    exponent: int
    diagram: Diagram


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def identity_diagram(r):
    return Diagram(r, [(a, r + a) for a in range(r)])


def generator_p(r, alpha):
    """Singletons {alpha}, {alpha'}; vertical strands elsewhere."""
    if not 1 <= alpha <= r:
        raise ValueError("alpha out of range")
    blocks = [(alpha - 1,), (r + alpha - 1,)]
    blocks += [(a, r + a) for a in range(r) if a != alpha - 1]
    return Diagram(r, blocks)


def generator_pp(r, alpha, beta):
    """One block {alpha, beta, alpha', beta'}; vertical strands elsewhere."""
    if not 1 <= alpha < beta <= r:
        raise ValueError("need 1 <= alpha < beta <= r")
    a, b = alpha - 1, beta - 1
    blocks = [(a, b, r + a, r + b)]
    blocks += [(c, r + c) for c in range(r) if c not in (a, b)]
    return Diagram(r, blocks)


def generator_s(r, alpha, beta):
    """The transposition crossing: {alpha, beta'}, {beta, alpha'}."""
    if not 1 <= alpha < beta <= r:
        raise ValueError("need 1 <= alpha < beta <= r")
    a, b = alpha - 1, beta - 1
    blocks = [(a, r + b), (b, r + a)]
    blocks += [(c, r + c) for c in range(r) if c not in (a, b)]
    return Diagram(r, blocks)


def permutation_diagram(w):
    """Diagram of a place permutation: top a joined to bottom w(a)'."""
    r = len(w)
    return Diagram(r, [(a, r + w[a] - 1) for a in range(r)])


# ---------------------------------------------------------------------------
# Multiplication by stacking
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def multiply(d1, d2):
    """Stack d1 above d2 and remove interior components.

    Vertex space of the stack: outer top 0..r-1, middle r..2r-1 (d1's bottom
    row identified with d2's top row), outer bottom 2r..3r-1.  Returns
    ``ScaledDiagram(k, d3)`` where k counts the removed middle-only
    components.
    """
    if d1.r != d2.r:
        raise ValueError("rank mismatch")
    r = d1.r
    uf = _UnionFind(3 * r)
    for block in d1.blocks:
        anchor = block[0]
        for v in block[1:]:
            uf.union(anchor, v)  # top stays, bottom a -> middle r+a
    for block in d2.blocks:
        anchor = block[0] + r  # d2 top a -> middle r+a, bottom a' -> 2r+a
        for v in block[1:]:
            uf.union(anchor, v + r)
    components = {}
    for v in range(3 * r):
        components.setdefault(uf.find(v), []).append(v)
    k = 0
    blocks = []
    for comp in components.values():
        outer = [v if v < r else v - r for v in comp if v < r or v >= 2 * r]
        if outer:
            blocks.append(outer)
        else:
            k += 1
    return ScaledDiagram(k, Diagram(r, blocks))


# ---------------------------------------------------------------------------
# Enumeration and the half algebra
# ---------------------------------------------------------------------------


def restricted_growth_words(length, letters):
    """The words of the given length in at most ``letters`` letters 0, 1,
    ..., each at most one more than the largest before it, in lexicographic
    order.  Such a word names the set partition with v in block word[v]:
    at length 2r in 2r letters the diagrams of rank r, and at length 2r in
    n letters, read as i + j, the diagonal W_n orbits on I(n,r) x I(n,r).
    """
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words
                 for a in range(min(max(w, default=-1) + 2, letters))]
    return words


def enumerate_diagrams(r):
    """All B(2r) diagrams of rank r, in the order of their restricted-growth
    words."""
    diagrams = []
    for word in restricted_growth_words(2 * r, 2 * r):
        blocks = []
        for v, b in enumerate(word):
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(v)
        diagrams.append(Diagram(r, blocks))
    return diagrams


def is_half_algebra_member(d):
    """True when top vertex r and bottom vertex r' share a block.

    Diagrams of rank r+1 with this property span the half partition algebra
    sitting inside the rank-(r+1) algebra.
    """
    return any(d.r - 1 in b and 2 * d.r - 1 in b for b in d.blocks)
