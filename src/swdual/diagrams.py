"""Set-partition diagrams on two rows of r vertices.

A diagram of rank r is a set partition of the 2r vertices
{1..r} (top row) and {1'..r'} (bottom row); internally top vertex a is
numbered a-1 and bottom vertex a' is numbered r+a-1.  The diagrams of a
rank are enumerated as restricted-growth words, the one set-partition
generator of the package, which also names the diagonal W_n orbits; the
half partition algebra is cut out by :func:`is_half_algebra_member`.
The library reads a diagram only through its blocks; the stacking
product and the generator diagrams, oracles of the representation laws,
live with the tests' reference code.
"""

from __future__ import annotations

from . import indices as ix


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


# ---------------------------------------------------------------------------
# Enumeration and the half algebra
# ---------------------------------------------------------------------------


def restricted_growth_words(length, letters):
    """The words of the given length in at most ``letters`` letters 0, 1,
    ..., each at most one more than the largest before it, in lexicographic
    order.  Such a word names the set partition with v in block word[v]:
    at length 2r in 2r letters the diagrams of rank r, and at length 2r in
    n letters, read as i + j, the diagonal W_n orbits on I(n,r) x I(n,r).
    More than MAX_HELD words are refused before any is built (at odd
    length 2r + 1, the diagrams of rank r + 1/2).
    """
    ix.hold_at_most(word_counts(length, letters),
                    "rank %d%s" % (length // 2, "+1/2" * (length % 2)),
                    "diagrams" if letters >= length else "diagrams of at most %d blocks" % letters)
    words = [()]
    for _ in range(length):
        words = [w + (a,) for w in words
                 for a in range(min(max(w, default=-1) + 2, letters))]
    return words


def word_counts(length, letters):
    """The numbers of restricted-growth words of length m = 1, ...,
    ``length`` in at most ``letters`` letters: sums of Stirling numbers."""
    row = [1]  # S(m, k) for k = 0..min(m, letters), from m = 0
    for m in range(1, length + 1):
        row = [0] + [k * row[k] + row[k - 1] if k < len(row) else row[k - 1]
                     for k in range(1, min(m, letters) + 1)]
        yield sum(row)


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
