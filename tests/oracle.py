"""Independent field oracle for the extension problem.

Builds the slice-sum and place-permutation linear system on the entries
with both indices injective, everything else being pinned by the
tuple-level initialisation of ``reference``, and solves it exactly over a
field.  This is deliberately separate from the construction path in
swdual.extension: it never touches free patterns, colourings, the copy
table, or the block recursion.
"""

import itertools

import reference as ref

from swdual import indices as ix
from swdual.rings import _back_substitute, _nullspace_basis, _reduced_value, sparse_echelon


def extension_system(b):
    """(variables, rows, rhs) of the linear system for extensions of b.

    Variables are the pairs of injective indices at degree b.r + 1; the
    right-hand sides fold in the initialised entries.
    """
    ring = b.ring
    n, r = b.n, b.r + 1
    init = ref.initialise(b)
    size = n**r
    inj = ix.injective_indices(n, r)
    var_of = {}
    for i in inj:
        for j in inj:
            var_of[(i, j)] = len(var_of)
    n_vars = len(var_of)
    rows, rhs = [], []

    def add_slice_equation(entries, target):
        row = [ring.zero] * n_vars
        const = ring.zero
        for (i, j) in entries:
            var = var_of.get((i, j))
            if var is None:
                const = ring.add(const, init[ix.index_rank(n, i) * size + ix.index_rank(n, j)])
            else:
                row[var] = ring.add(row[var], ring.one)
        rows.append(row)
        rhs.append(ring.sub(target, const))

    lower_inj = ix.injective_indices(n, r - 1)
    for alpha in range(1, r + 1):
        for p in lower_inj:
            for q in lower_inj:
                target = b.get(p, q)
                for i in range(1, n + 1):
                    if i in p:
                        continue  # row not injective: constants only
                    row_index = p[: alpha - 1] + (i,) + p[alpha - 1 :]
                    entries = [
                        (row_index, q[: alpha - 1] + (j,) + q[alpha - 1 :])
                        for j in range(1, n + 1)
                    ]
                    add_slice_equation(entries, target)
                for j in range(1, n + 1):
                    if j in q:
                        continue
                    col_index = q[: alpha - 1] + (j,) + q[alpha - 1 :]
                    entries = [
                        (p[: alpha - 1] + (i,) + p[alpha - 1 :], col_index)
                        for i in range(1, n + 1)
                    ]
                    add_slice_equation(entries, target)

    sigmas = [tuple(s) for s in itertools.permutations(range(1, r + 1))]
    for i in inj:
        for j in inj:
            for sigma in sigmas:
                i2, j2 = ref.act_right(i, sigma), ref.act_right(j, sigma)
                if (i2, j2) <= (i, j):
                    continue
                row = [ring.zero] * n_vars
                row[var_of[(i, j)]] = ring.one
                row[var_of[(i2, j2)]] = ring.from_int(-1)
                rows.append(row)
                rhs.append(ring.zero)
    return var_of, rows, rhs


def solve_extension(b, f=None):
    """All extensions of b over a field: (particular, nullspace, var_of).

    With ``f`` given, the pattern entries are pinned to its values and the
    solution must be unique (empty nullspace).
    """
    ring = b.ring
    var_of, rows, rhs = extension_system(b)
    if not var_of:
        return [], [], var_of  # no injective index: every entry is pinned
    if f:
        n_vars = len(var_of)
        for key, value in f.items():
            row = [ring.zero] * n_vars
            row[var_of[key]] = ring.one
            rows.append(row)
            rhs.append(value)
    solution = solve_linear_system_over_field(ring, rows, rhs)
    if solution is None:
        return None
    particular, basis = solution
    return particular, basis, var_of


def solve_linear_system_over_field(ring, a_rows, b):
    """Solve A x = b exactly over a field, on the sparse engine.

    Returns ``None`` when inconsistent, else a pair
    ``(particular_solution, nullspace_basis)``; free variables of the
    particular solution are set to zero.
    """
    if not ring.is_field():
        raise ValueError("solve requires a field")
    if len(a_rows) != len(b):
        raise ValueError("dimension mismatch")
    if not a_rows:
        raise ValueError("empty system")
    n_cols = len(a_rows[0])
    aug = [{c: v for c, v in enumerate(row) if v} for row in a_rows]
    for row, rhs in zip(aug, b):
        if rhs:
            row[n_cols] = rhs
    pivots = sparse_echelon(ring, aug)
    if n_cols in pivots:
        return None  # pivot in the augmented column
    _back_substitute(ring, pivots)
    particular = [ring.zero] * n_cols
    for pc, (lead, tail) in pivots.items():
        if n_cols in tail:
            particular[pc] = _reduced_value(ring, tail[n_cols], lead)
    return particular, _nullspace_basis(ring, pivots, n_cols)


def matrix_entries_from_solution(b, particular, var_of):
    """Full degree r+1 entry data from a solution vector."""
    n, r = b.n, b.r + 1
    size = n**r
    init = ref.initialise(b)
    data = list(init)
    for (i, j), var in var_of.items():
        data[ix.index_rank(n, i) * size + ix.index_rank(n, j)] = particular[var]
    return data
