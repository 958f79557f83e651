"""The one basis path: every block row and column carried to the last one.

The keys that ``swd free-pattern --basis B`` emits must be exactly the keys
that ``decompose(..., basis=B)`` and ``extend_with_prescription(...,
basis=B)`` read, in every basis; the basis maps must agree with the
matmul conjugation of ``reference`` and be involutions; the summands
that ``decompose`` inflates straight into a basis must be the relabelled
last-row summands of ``reference``, and a fault in their tables must fail
the sum check; malformed basis names must be rejected in the library and
by the command line.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref

from swdual import cli
from swdual import extension as ex
from swdual import indices as ix
from swdual import invariants as iv
from swdual import patterns as pt
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import Ring

RINGS = [Ring.parse(name) for name in ("q", "z/6")]

PROPERTY = settings(
    max_examples=3,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bases(n):
    return ["last-row"] + ["row:%d" % i for i in range(1, n + 1)] + [
        "col:%d" % j for j in range(1, n + 1)
    ]


CASES = [(n, 2, basis) for n in (4, 5) for basis in bases(n)]
RING_CASES = [case + (ring,) for case in CASES for ring in RINGS]
RING_IDS = ["%d-%d-%s-%s" % (n, r, basis, ring.name) for n, r, basis, ring in RING_CASES]


def line_of(basis, n):
    """(is a block column, line number) of a valid basis name."""
    if basis == "last-row":
        return False, n
    side, line = basis.split(":")
    return side == "col", int(line)


def swap(n, line):
    return tuple(n if t == line else line if t == n else t for t in range(1, n + 1))


def transpose(a):
    data = [a.data[j * a.size + i] for i in range(a.size) for j in range(a.size)]
    return tn.TensorMatrix(a.n, a.r, a.ring, data)


def to_last_row(a, basis):
    """The matrix seen from the last block row: the entry at (i, j) moves
    to (tau.i, tau.j), then a block column is transposed."""
    column, line = line_of(basis, a.n)
    tau = swap(a.n, line)
    out = tn.TensorMatrix(a.n, a.r, a.ring)
    for i in ix.all_indices(a.n, a.r):
        for j in ix.all_indices(a.n, a.r):
            pos = ix.index_rank(a.n, ix.act_left(tau, i)) * a.size
            out.data[pos + ix.index_rank(a.n, ix.act_left(tau, j))] = ref.get(a, i, j)
    return transpose(out) if column else out


@lru_cache(maxsize=None)
def emitted(n, r, basis, flavour):
    """The entries of ``swd free-pattern`` as tuples."""
    out = io.StringIO()
    argv = ["free-pattern", "--n", str(n), "--r", str(r), "--basis", basis,
            "--flavour", flavour]
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    doc = json.loads(out.getvalue())
    if flavour == "decomposition":
        return tuple((int(k), ix.parse_index(p), ix.parse_index(q))
                     for k, p, q in doc["entries"])
    return tuple((ix.parse_index(u), ix.parse_index(v)) for u, v in doc["entries"])


@st.composite
def invariants(draw, n, r, ring):
    """A combination of up to four permutation powers."""
    perms = draw(st.lists(st.sampled_from(ix.all_permutations(n)), min_size=1, max_size=4))
    coeffs = {w: ring.from_int(draw(st.integers(-3, 3))) for w in perms}
    return ref.reconstruct(n, r, ring, coeffs)


@pytest.mark.parametrize("n, r, basis, ring", RING_CASES, ids=RING_IDS)
@PROPERTY
@given(data=st.data())
def test_decomposition_keys_are_read_back(n, r, basis, ring, data):
    a = data.draw(invariants(n, r, ring))
    keys = emitted(n, r, basis, "decomposition")
    assert len(keys) == len(pt.build_d(n, r)) > 0
    f = {key: ring.from_int(data.draw(st.integers(-4, 4))) for key in keys}
    parts = ex.decompose(a, f, basis=basis)
    for (k, p, q), value in f.items():
        assert parts[k - 1].get(p, q) == value
    assert tn.matrix_sum(parts) == a
    column, line = line_of(basis, n)
    for k, part in enumerate(parts, start=1):
        assert ref.is_special(part, *((k, line) if column else (line, k)))


INFLATION_CELLS = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (3, 4)]
INFLATION_RINGS = [Ring.parse(name) for name in ("z/6", "z", "q")]


@pytest.mark.parametrize("ring", INFLATION_RINGS, ids=lambda ring: ring.name)
@pytest.mark.parametrize("n, r", INFLATION_CELLS)
def test_summands_inflated_into_the_basis_are_the_relabelled_ones(n, r, ring):
    rng = random.Random(1000 * n + r)
    a = vf.random_invariant(n, r, ring, rng)
    if ring.kind == "q":  # entries over 1, 2, 3 and 6
        b = vf.random_invariant(n, r, ring, rng)
        a = a.add(tn.TensorMatrix(n, r, ring, [x * Fraction(1, 6) for x in b.data]))
    for basis in bases(n)[1:]:
        keys = pt.parse_basis(basis, n).pattern(pt.build_d(n, r)).entries
        f = {key: ring.from_int(rng.randint(-4, 4)) for key in keys}
        for values in ({}, f):
            assert ex.decompose(a, values, basis=basis) == ref.decompose_by_relabel(
                a, values, basis), (basis, len(values))


def test_a_corrupted_column_table_fails_the_sum_check(monkeypatch):
    n, r, basis = 4, 3, "col:2"
    ring = Ring.parse("z/6")
    a = vf.random_invariant(n, r, ring, random.Random(7))
    based = pt.parse_basis(basis, n)
    summands = ex.decompose(a, basis=basis)  # builds every operator and table
    # summand k = 1 comes from block column tau(1) of the last block row;
    # its first nonzero entry (u, v) reads pointer columns[v] of row u
    key = (n, r, n, based.value(1), based.tau, True)
    rows = iv._theta_rows(*key)
    pos = next(pos for pos, x in enumerate(summands[0].data) if x != ring.zero)
    u, v = divmod(pos, a.size)
    columns = rows[u][2]
    assert columns[v] != 0
    bad = columns[:v] + (0,) + columns[v + 1 :]  # reads the leading zero
    corrupted = tuple((k, window, bad if cols is columns else cols)
                      for k, window, cols in rows)
    theta_rows = iv._theta_rows
    monkeypatch.setattr(iv, "_theta_rows",
                        lambda *args: corrupted if args == key else theta_rows(*args))
    with pytest.raises(ex.ConstructionFailure, match="do not add up"):
        ex.decompose(a, basis=basis)


def to_last_row_key(key, basis, n):
    """An extension key (u, v) seen from the last block row."""
    column, line = line_of(basis, n)
    tau = swap(n, line)
    u, v = ix.act_left(tau, key[0]), ix.act_left(tau, key[1])
    return (v, u) if column else (u, v)


@pytest.mark.parametrize("n, r, basis", CASES)
def test_extension_keys_are_the_carried_pattern(n, r, basis):
    keys = emitted(n, r, basis, "extension")
    carried = {to_last_row_key(key, basis, n) for key in keys}
    assert len(carried) == len(keys)
    assert carried == set(pt.build_f(n, r).entries)


@pytest.mark.parametrize("n, r, basis, ring", RING_CASES, ids=RING_IDS)
@PROPERTY
@given(data=st.data())
def test_extension_keys_are_read_back(n, r, basis, ring, data):
    """Values on the emitted keys of some lines inside the basis line,
    zero elsewhere, give one extension; prescribing those lines returns it
    and its values."""
    b = data.draw(invariants(n, r - 1, ring))
    column, line = line_of(basis, n)
    place = 1 if column else 0  # the key's index on the prescribed line
    keys = emitted(n, r, basis, "extension")
    lines = sorted({key[place] for key in keys if key[place][0] == line})
    chosen = data.draw(st.lists(st.sampled_from(lines), min_size=1, max_size=3, unique=True))
    f = {
        key: ring.from_int(data.draw(st.integers(-4, 4)))
        for key in keys
        if key[place] in chosen
    }
    moved = {to_last_row_key(key, basis, n): value for key, value in f.items()}
    target = to_last_row(ex.extend(to_last_row(b, basis), moved), basis)
    prescribed = {
        u: ref.column(target, u) if column else target.row(u) for u in chosen
    }
    a = ex.extend_with_prescription(b, prescribed, basis=basis)
    assert a == target
    for key, value in f.items():
        assert a.get(*key) == value


@settings(PROPERTY, max_examples=20)
@given(data=st.data())
def test_basis_maps_are_the_conjugation_and_involutions(data):
    n, r = data.draw(st.sampled_from([(3, 2), (4, 2), (3, 3)]))
    a = data.draw(invariants(n, r, data.draw(st.sampled_from(RINGS))))
    basis = data.draw(st.sampled_from(bases(n)))
    based = pt.parse_basis(basis, n)
    column, line = line_of(basis, n)
    conjugated = ref.conjugate(a, swap(n, line))
    assert based.matrix(a) == to_last_row(a, basis)
    assert based.matrix(a) == (transpose(conjugated) if column else conjugated)
    assert based.matrix(based.matrix(a)) == a
    for pattern in (pt.build_f(n, r), pt.build_d(n, r)):
        assert based.pattern(based.pattern(pattern)).entries == pattern.entries
    u = data.draw(st.sampled_from(ix.all_indices(n, r)))
    vector = a.row(u)
    assert based.vector(based.vector(vector, r), r) == vector


def test_default_basis_copies_nothing():
    a = tn.TensorMatrix.identity(4, 2, RINGS[0])
    for basis in ("last-row", "row:4"):
        based = pt.parse_basis(basis, 4)
        assert based.matrix(a) is a
        assert based.pattern(pt.build_f(4, 2)) is pt.build_f(4, 2)
        assert based.name == "row:4"
    assert pt.parse_basis("col:2", 4).tags() == [(k, 2) for k in range(1, 5)]


def test_column_basis_decomposition_table_is_labelled_by_i():
    pattern = pt.parse_basis("col:2", 5).pattern(pt.build_d(5, 2))
    text = pt.render_decomposition_pattern(pattern)
    assert text.startswith("i=") and "j=" not in text


BAD_NAMES = ["row:0", "row:5", "col:-1", "row:", "row:x", "diagonal"]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_bad_basis_is_a_value_error(name):
    n = 4
    with pytest.raises(ValueError):
        pt.parse_basis(name, n)
    with pytest.raises(ValueError):
        ex.decompose(tn.TensorMatrix.identity(n, 2, RINGS[0]), basis=name)
    with pytest.raises(ValueError):
        ex.extend_with_prescription(tn.TensorMatrix.identity(n, 1, RINGS[0]), {}, basis=name)


@pytest.mark.parametrize("name", BAD_NAMES)
def test_bad_basis_exits_2_without_traceback(name, tmp_path):
    a = tn.TensorMatrix.identity(4, 2, RINGS[0])
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"matrix": tn.matrix_to_json(a)}))
    for argv in (
        ["free-pattern", "--n", "4", "--r", "2", "--basis", name],
        ["free-pattern", "--n", "4", "--r", "2", "--basis", name, "--flavour", "decomposition"],
        ["decompose", "--in", str(path), "--basis", name],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "swdual.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2, argv
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "basis" in result.stderr
