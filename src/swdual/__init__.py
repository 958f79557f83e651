"""Exact-arithmetic partition-algebra actions on tensor space.

Diagram calculus, the commuting permutation and diagram representations,
centraliser membership and structure maps, division-free extension and
decomposition of invariants driven by free patterns, Gibson's
permutation-matrix basis of the generalised doubly-stochastic matrices,
and dimension oracles verifying that the permutation powers span the
centraliser over any commutative coefficient ring.
"""

from .rings import Ring

__all__ = ["Ring"]
__version__ = "0.1.0"
