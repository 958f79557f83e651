import hashlib
import json
import math
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref

from swdual import extension as ex
from swdual import indices as ix
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import Ring
from test_operators import corrupted
from test_q_integers import large_denominators, past_the_bound_off_the_mismatches

Q = Ring.rationals()


def run_swd(*args, timeout=300, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "swdual.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        **kwargs,
    )


def test_verify_json_output():
    result = run_swd("verify", "--n", "3", "--r", "2", "--ring", "q")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["schema"] == "swd/1"
    assert doc["surjective_phi"] is True
    assert doc["dim_span_w"] == doc["dim_centraliser"] == 6


def test_verify_half_flag():
    result = run_swd("verify", "--n", "3", "--r", "1", "--ring", "q", "--half")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["r"] == "1+1/2" and doc["dim_centraliser"] == 2


def test_dims_subcommand():
    result = run_swd("dims", "--n", "4", "--r", "2", "--ring", "q")
    doc = json.loads(result.stdout)
    assert doc["centraliser"] == doc["span_w"] == 23
    assert doc["free_pattern"] == 13


def test_free_pattern_table_matches_fixture():
    import os

    result = run_swd(
        "free-pattern", "--n", "4", "--r", "2", "--basis", "last-row",
        "--format", "table", "--columns", "all",
    )
    assert result.returncode == 0
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "table_f42.txt")
    with open(fixture) as fh:
        assert result.stdout == fh.read()


def test_free_pattern_json():
    result = run_swd("free-pattern", "--n", "3", "--r", "2")
    doc = json.loads(result.stdout)
    assert doc["entries"] == [["32", "32"]]


def test_colouring_subcommand():
    result = run_swd("colouring", "--n", "5", "--r", "2", "--block-j", "2")
    doc = json.loads(result.stdout)
    assert doc["ones"] == ["54"]


@pytest.mark.parametrize("block_j", ["0", "-1", "6"])
def test_block_j_outside_one_to_n_is_a_usage_error(capsys, block_j):
    from swdual import cli

    assert cli.main(["colouring", "--n", "5", "--r", "2", "--block-j", block_j]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: block column j must lie in 1..5, got %s\n" % block_j


def test_block_j_at_one_and_n_prints_a_colouring(capsys):
    from swdual import cli

    for block_j in ("1", "5"):
        assert cli.main(["colouring", "--n", "5", "--r", "2", "--block-j", block_j]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["schema"] == "swd/1"


def test_gibson_subcommand():
    result = run_swd("gibson", "--n", "4")
    doc = json.loads(result.stdout)
    assert doc["rank"] == 10
    assert len(doc["elements"]) == 10
    labels = [e["label"] for e in doc["elements"]]
    assert labels[-2:] == ["Q", "I"]


def test_enumerate_diagrams_subcommand():
    result = run_swd("enumerate-diagrams", "--r", "2")
    doc = json.loads(result.stdout)
    assert doc["count"] == 15
    assert len(set(doc["diagrams"])) == 15


def test_check_membership_files(tmp_path):
    good = tn.phi((2, 1, 3), 3, 2, Q)
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"schema": "swd/1", "matrix": tn.matrix_to_json(good)}))
    result = run_swd("check-membership", "--in", str(path))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["in_E"] is True

    bad = tn.TensorMatrix(2, 2, Q, [Q.from_int(k) for k in range(16)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": tn.matrix_to_json(bad)}))
    result = run_swd("check-membership", "--in", str(path))
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["in_E"] is False and doc["first_violation"] is not None


def test_extend_and_decompose_files(tmp_path):
    b = tn.phi((2, 3, 1), 3, 1, Q)
    doc = {
        "schema": "swd/1",
        "matrix": tn.matrix_to_json(b),
        "values": {"(32,32)": "5"},
    }
    inpath = tmp_path / "extend.json"
    inpath.write_text(json.dumps(doc))
    outpath = tmp_path / "extended.json"
    result = run_swd("extend", "--in", str(inpath), "--out", str(outpath))
    assert result.returncode == 0, result.stderr
    out = json.loads(outpath.read_text())
    a = tn.matrix_from_json(out["matrix"])
    assert a.get((3, 2), (3, 2)) == Q.from_int(5)

    dec_in = tmp_path / "decompose.json"
    dec_in.write_text(json.dumps({"schema": "swd/1", "matrix": out["matrix"]}))
    result = run_swd("decompose", "--in", str(dec_in))
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert [s["tag"]["j"] for s in doc["summands"]] == [1, 2, 3]
    total = tn.matrix_from_json(doc["summands"][0]["matrix"])
    for s in doc["summands"][1:]:
        total = total.add(tn.matrix_from_json(s["matrix"]))
    assert total == a


def test_decompose_column_basis(tmp_path):
    a = tn.phi((2, 3, 1), 3, 2, Q)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"schema": "swd/1", "matrix": tn.matrix_to_json(a)}))
    result = run_swd("decompose", "--in", str(path), "--basis", "col:1")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["basis"] == "col:1"
    assert [s["tag"]["i"] for s in doc["summands"]] == [1, 2, 3]
    total = tn.matrix_from_json(doc["summands"][0]["matrix"])
    for s in doc["summands"][1:]:
        total = total.add(tn.matrix_from_json(s["matrix"]))
    assert total == a


def test_usage_errors_exit_2():
    result = run_swd("verify", "--n", "3")
    assert result.returncode == 2
    result = run_swd("no-such-command")
    assert result.returncode == 2
    result = run_swd("verify", "--n", "3", "--r", "2", "--ring", "gf(9)")
    assert result.returncode == 2
    result = run_swd("extend")  # missing --in
    assert result.returncode == 2


def test_non_invariant_input_is_a_usage_error(tmp_path):
    diag = tn.TensorMatrix(3, 1, Ring.modular(6), [1, 0, 0, 0, 0, 0, 0, 0, 0])
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"matrix": tn.matrix_to_json(diag)}))
    for command in ("extend", "decompose"):
        result = run_swd(command, "--in", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("error: input is not an invariant; first violation:")
        assert '"kind": "G"' in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("ring", ["z/6", "z", "q"])
def test_n_zero_is_a_usage_error_on_every_ring(ring):
    result = run_swd("verify", "--n", "0", "--r", "2", "--ring", ring)
    assert result.returncode == 2
    assert result.stderr == "error: n must be positive, got 0\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "command,where",
    [("check-membership", "matrix"), ("extend", "matrix"), ("extend", "values"),
     ("decompose", "matrix"), ("decompose", "values")],
)
def test_zero_denominator_is_a_usage_error(tmp_path, command, where):
    a = tn.phi((2, 3, 1), 3, 1 if command == "extend" else 2, Q)
    doc = {"matrix": tn.matrix_to_json(a)}
    if where == "matrix":
        doc["matrix"]["rows"][0][0] = "1/0"
    else:
        doc["values"] = {"(32,32)" if command == "extend" else "(3,2,2)": "1/0"}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    result = run_swd(command, "--in", str(path))
    assert result.returncode == 2
    assert result.stderr == "error: zero denominator in '1/0'\n"
    assert result.stdout == ""


def _coprime_denominators_file(tmp_path, values):
    """A (4,3) matrix over Q of 4,096 ``values`` whose common denominator is
    past the bound of ``rings.clear_denominators``."""
    rows = [list(map(str, values[k : k + 64])) for k in range(0, 4096, 64)]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": {"n": 4, "r": 3, "ring": "q", "rows": rows}}))
    return path


@pytest.mark.parametrize("command", ["decompose"])
def test_common_denominator_past_the_bound_is_a_usage_error(tmp_path, command):
    # the input passes H, which decompose decides before the conversion
    path = _coprime_denominators_file(tmp_path, past_the_bound_off_the_mismatches())
    result = run_swd(command, "--in", str(path))
    assert result.returncode == 2
    assert result.stderr == "error: common denominator of 4096 values over 65536 bits\n"
    assert result.stdout == ""


def test_membership_past_the_common_denominator_bound_is_a_report(tmp_path):
    # H and S read the values as they are, G clears no denominator where H
    # fails, and where S fails G reads the values as they are once L is
    # past the bound
    h_failing = [Fraction(1, d) for d in large_denominators(4096)]
    for values, kind in ((h_failing, "H"), (past_the_bound_off_the_mismatches(), "S")):
        result = run_swd("check-membership", "--in", str(_coprime_denominators_file(tmp_path, values)))
        assert result.returncode == 1, result.stderr
        doc = json.loads(result.stdout)
        assert doc["in_E"] is False and doc["in_H"] is (kind == "S") and doc["in_S"] is False
        assert doc["first_violation"]["kind"] == kind


def test_negative_n_is_a_usage_error():
    for args in (("dims", "--n", "-1", "--r", "3", "--ring", "q"),
                 ("verify", "--n", "-1", "--r", "2", "--ring", "q"),
                 ("verify", "--n", "-1", "--r", "2", "--ring", "z/6"),
                 ("dims", "--n", "-1", "--r", "0"), ("free-pattern", "--n", "-1", "--r", "2"),
                 ("colouring", "--n", "-1", "--r", "2"), ("gibson", "--n", "-1")):
        result = run_swd(*args)
        assert result.returncode == 2
        assert result.stderr == "error: n must be non-negative, got -1\n"


def test_a_basis_at_zero_n_is_a_usage_error():
    for flavour in ("extension", "decomposition"):
        result = run_swd("free-pattern", "--n", "0", "--r", "1", "--flavour", flavour)
        assert result.returncode == 2
        assert result.stderr == "error: n must be positive, got 0\n"
        assert result.stdout == ""


def test_zero_n_is_a_usage_error_from_rank_one():
    for args in (("dims", "--n", "0", "--r", "1", "--ring", "q"),
                 ("dims", "--n", "0", "--r", "3", "--ring", "z/3"),
                 ("verify", "--n", "0", "--r", "1", "--ring", "q")):
        result = run_swd(*args)
        assert result.returncode == 2
        assert result.stderr == "error: n must be positive, got 0\n"
    result = run_swd("dims", "--n", "0", "--r", "0", "--ring", "q")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["centraliser"] == 1


# sha256 of the output of enumerate-diagrams --r 0..4 in each format
ENUMERATION_DIGESTS = {
    "json": ["f6d9b49e7eb1546b6e1d8f3cd24257c312f4ef362e06b0908cd2c75ad96eb110",
             "6061a5ea741356830dd0d2f6798c3d764b089bfe1d3a44b4f348cece89650370",
             "15fc52375d6f8394ee48c19582143fb40cb9f8a638576f5973398020205537a5",
             "fbe3dfc7769f6ef954df5dda76d754c718ae6f3d2fdfbc658e181325fc88afc1",
             "a6fee8a0fc2c21d3d9e307cf298a4d090293909e328c41912d1ec3b5f883d65a"],
    "table": ["01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
              "9f7cfce90afd26b1118835bc7709cba47694a8a75c38e64677357698a8c1d6ba",
              "ab36b7f93bb72414692f388d49d9c96a91d4bcc3f1855183946e52db2311e5a4",
              "8c347f4a0cc68806c531e5ad481041d18ff6e8c4c3175b4c274c292eba631902",
              "4a16f877ddbc1cc00bcb7cc57c87e81079877035b112745942833e2805b0593f"],
}


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_enumerate_diagrams_output_is_pinned(capsys, fmt):
    from swdual import cli

    for r, digest in enumerate(ENUMERATION_DIGESTS[fmt]):
        assert cli.main(["enumerate-diagrams", "--r", str(r), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, r)


# sha256 of the output of gibson --n 2..7 in each format, the same on every ring
GIBSON_DIGESTS = {
    "json": ["6b8c723ee71bb9e3fc2b5002c22b277cc594050640bfc3eaada0a5313b546071",
             "28a02e7613f45291d78185befd075801785d603a1d77d78c761d16be938c4571",
             "d6e6708a133c407c4d4977987ef068e2c322e41d04f8c1732a9487fcf3c62dbb",
             "11fffa0828aa3afffae1479846ada5e5983b72c1480f43297e1f7f30c22aac6a",
             "d0702d62091c3843f9ec3dfcea8b6007df5cdc71d009ecc55dd5508e9fcd6ecd",
             "35edca5e5cede437db916872e5c4bb4dea2d8b1330a9e5efa44eb6b39ebf8bc1"],
    "table": ["425424983f5dbf4295140fc70b102f0df5ba902f2068478fd1a44d78f7bf5547",
              "ee86b48c60376556dfa1c4797673f4170650a9fe4af30850a55bd6b24ef4694e",
              "cf65da18d61a791a64691677679735571148b826db0e1e89d848d800403d2b86",
              "e4c241f79f55e1aed2d8ab9c008dfe0797e7c3fc7fa29a457f85e84f9c97179a",
              "b5519077072551030c0280520b5e0db3afa2ee74978eaf2dd550dc0eff5b8cd4",
              "eb672f24147a6082512e428f52ceddc4873499f55026e3c88cc2530be41a31f7"],
}


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_gibson_output_is_pinned(capsys, fmt):
    from swdual import cli

    for ring in ("q", "z", "z/6"):
        for n, digest in enumerate(GIBSON_DIGESTS[fmt], start=2):
            assert cli.main(["gibson", "--n", str(n), "--ring", ring, "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, ring, n)


def _pattern_grid_runs(command, n, r):
    """Every option combination of ``swd colouring`` (both policies and
    formats, with and without each --block-j and --no-l-closure) or of
    ``swd free-pattern --format table`` (each flavour, --columns and basis)
    at one cell."""
    cell = ["--n", str(n), "--r", str(r)]
    if command == "colouring":
        for policy in ("largest", "smallest"):
            for fmt in ("json", "table"):
                base = ["colouring", *cell, "--policy", policy, "--format", fmt]
                yield base
                for j in range(1, n + 1):
                    yield base + ["--block-j", str(j)]
                    yield base + ["--block-j", str(j), "--no-l-closure"]
        return
    for flavour in ("extension", "decomposition"):
        for columns in ("used", "all"):
            for basis in ("last-row", "row:1", "col:1", "col:%d" % n):
                yield ["free-pattern", *cell, "--flavour", flavour, "--columns", columns,
                       "--basis", basis, "--format", "table"]


# sha256 of the stdout of every run of _pattern_grid_runs at (n, r), n = 1..6
# and r = 1..3 in row-major order, joined in run order
PATTERN_GRID_DIGESTS = {
    "colouring": [
        "31fdb436da75c5cfda85702eaf88ed7814d61ee7079cdee810876c8f390be963",
        "5e17378a87369e13e11ff99c96c15fa9104ad31489fb3b6e98cf3739874d82bf",
        "c50743436da7251454d5e26ac3940875d3c0d86357ba8f0e7d9e25436f940b08",
        "e95553cc095d2a1a421789bb2089ea1a9f10d0aa949af75e7cdf869ff40a2c22",
        "3c730a07cadfff545c80124be5e38653a8ecddfc860617ee36225fe37b9cff02",
        "04138345b1477bdb202a999abb09b80f18d56e49ef1bdfa17aedf8d44981ec17",
        "2be59a27df8aa6a34a77e60ac16cd6f669f664e7acef63ea10b1dd882ad038a3",
        "1c39a9f7ae281a68910135d1947054e333ab17088eb876f8c59af91c78435223",
        "cfc6f2f372cf6077995ddde9cf3394f81e2a9d9e006db964d687afc125d7c9e5",
        "65f534675368a49233358941bed3e8ab89f9cfd020ab67e6833cbf033efe3359",
        "9e74d97b16e0611cfc2e8431407adb0ad7a2720ac911daae18b7acc232fc1d3c",
        "1ca0c177279e01a5364376525afb6ad1618c96dff2febd539c19d4c2a55a2090",
        "6364003c0a861345d3836538a3a09a0316aac28a02f86eb3ab36098805027d58",
        "f77cf55a14f15a5d05aa2a6bd725a1bec3fab34dea9ccc0ac061163bfdee794d",
        "d3b0ae4914e7313f19d0006ee027a989c0cc85b7ae05b039ab9d9d695d8d6d1a",
        "199b8d715560f2a2763c7af05b3ed6a463fd6733c2271008829c64503ace6cd5",
        "d76ea9360bbaca65b857272d6c2d9d14f5cea3bf7d0354481454c091995714c1",
        "a3ea17b9361b79d4ba046f116c5ec7def018bada9df49e1b89ef56a8533237fe",
    ],
    "free-pattern": [
        "af6808617b7e5134e001af28e52c9f22bacaca722e06cea3ed22120fea85426d",
        "d66fef87c0f962f116952b4fc318d76686d5625b8d43cf22d608bb20f79638ae",
        "d66fef87c0f962f116952b4fc318d76686d5625b8d43cf22d608bb20f79638ae",
        "7873b2d0d57e155ce7651d1571964a13d99705e2687f500ca13df45488c49896",
        "c3942b24f8682bf603114fe2ad0c341bc60484cc0ef0c482dd4e51b95bb06504",
        "d66fef87c0f962f116952b4fc318d76686d5625b8d43cf22d608bb20f79638ae",
        "12d44f5f7e3f456492a6db44234404260aa0305d376b3b258ce0b981962be271",
        "d399bc0aba9b785a1f7d1bab3049890438f8bf173026f08fcf70a68a291ed028",
        "1de9904e297bf06b095874903cf38ec522f8bb3ecd156d3343d211abb5c2fc84",
        "a7c74cac5d69f7b519ee0650177bbd5863527ed412b65d366dba57438a3e2453",
        "f906dc4be9fc5c29cd748c7d8f430ba96bdb97094a22c1513c1400bd5658d494",
        "d99216c2a106d780ae49b28f756810ecb97abc5ebb38ffd981a65e9c369e4491",
        "19cb4199d431c69ac4bdc011954090c00070b358daa9d80884609f0ba6ef16a8",
        "4b4e095a6e11b967f30561256a41d48beb9463f06abe4b61dfbe075590d23878",
        "ea74093633689542c9be8b93eae4cc99da932d98193733da277117366557c07b",
        "75e417a8044f0c1bd9bdc21a2c358e19a6196eb18af0f35891b3735e9a29b7ed",
        "6d48e487eb46f9fb1e96bad57c4af2df79fa6cf68040335494483f826f28f888",
        "68e3fed3ead6fa2e6ad57c3bb21ece604c00c284e1ba6b4e836938b9cd057d98",
    ],
}


@pytest.mark.parametrize("command", ["colouring", "free-pattern"])
def test_colouring_and_pattern_grids_are_pinned(capsys, command):
    from swdual import cli

    cells = [(n, r) for n in range(1, 7) for r in range(1, 4)]
    for (n, r), digest in zip(cells, PATTERN_GRID_DIGESTS[command], strict=True):
        h = hashlib.sha256()
        for argv in _pattern_grid_runs(command, n, r):
            assert cli.main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert err == ""
            h.update(out.encode())
        assert h.hexdigest() == digest, (command, n, r)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_empty_patterns_and_colourings_render(capsys, fmt):
    from swdual import cli

    # F(n, r) is empty for n <= r, where the extension is unique; at n < r
    # no index is injective, so the colouring has no columns
    runs = [("free-pattern", "--n", str(n), "--r", str(r))
            for n, r in [(1, 1), (2, 2), (2, 3), (3, 3)]]
    runs += [("free-pattern", "--n", "2", "--r", "2", "--columns", "all"),
             ("colouring", "--n", "2", "--r", "3"), ("colouring", "--n", "1", "--r", "2")]
    for argv in runs:
        assert cli.main([*argv, "--format", fmt]) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        if fmt == "table":  # at most a header: no row, no mark
            assert "|" not in out and "x" not in out
        else:
            doc = json.loads(out)
            assert doc["entries" if argv[0] == "free-pattern" else "ones"] == []


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_negative_r_is_a_usage_error(capsys, fmt):
    from swdual import cli

    for argv in (["verify", "--n", "3", "--ring", "z/6"], ["verify", "--n", "3", "--ring", "q"],
                 ["dims", "--n", "3"], ["free-pattern", "--n", "3"], ["colouring", "--n", "3"],
                 ["enumerate-diagrams"]):
        assert cli.main([*argv, "--r", "-1", "--format", fmt]) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument --r: must be non-negative, got -1\n"), argv


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_gibson_at_n_one_is_a_usage_error(fmt):
    for n in ("1", "0"):
        result = run_swd("gibson", "--n", n, "--format", fmt)
        assert result.returncode == 2
        assert result.stderr == "error: need n >= 2\n"
        assert result.stdout == ""


def test_cap_guard_reported_as_usage_error():
    result = run_swd("dims", "--n", "5", "--r", "5", "--ring", "q")
    assert result.returncode == 2
    assert "cap" in result.stderr


def test_json_input_over_the_cap_is_a_usage_error(tmp_path):
    rows = [[]] * (math.isqrt(ix.MAX_HELD) + 1)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"matrix": {"n": 2, "r": 10**9, "ring": "q", "rows": rows}}))
    for command in ("check-membership", "extend", "decompose"):
        result = run_swd(command, "--in", str(path))
        assert result.returncode == 2
        assert "cap" in result.stderr and "--unsafe-large" in result.stderr


def test_unsafe_large_reaches_the_json_boundary(tmp_path, monkeypatch, capsys):
    from swdual import cli

    # 3^2 > 8 entries: every input below passes the row cap only with
    # --unsafe-large, and the work behind it holds at most 8 items
    monkeypatch.setattr(ix, "MAX_HELD", 8)
    cases = [
        ("check-membership", tn.phi((2, 1, 3), 3, 2, Q)),
        ("extend", tn.phi((2, 3, 1), 3, 1, Q)),
        ("decompose", tn.phi((2, 3, 1), 3, 2, Q)),
    ]
    for command, m in cases:
        path = tmp_path / ("%s.json" % command)
        path.write_text(json.dumps({"matrix": tn.matrix_to_json(m)}))
        assert cli.main([command, "--in", str(path)]) == 2
        assert "--unsafe-large" in capsys.readouterr().err
        assert cli.main([command, "--in", str(path), "--unsafe-large"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "swd/1"


def test_huge_r_hits_the_cap_at_once():
    result = run_swd("dims", "--n", "3", "--r", "100000000", "--ring", "q", timeout=30)
    assert result.returncode == 2
    assert "cap" in result.stderr and "Traceback" not in result.stderr


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.mark.parametrize("n,r,expected", [(2, 10, 2), (1, 12, 1), (1, 1000000, 1)])
def test_dims_at_large_r_within_time_and_memory(n, r, expected):
    # the orbit table is built without walking the r! place permutations
    result = run_swd(
        "dims", "--n", str(n), "--r", str(r), "--ring", "q",
        timeout=60, preexec_fn=_limit_address_space,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert expected == vf.closed_form_centraliser_dimension(n, r)
    assert doc["centraliser"] == doc["span_w"] == expected
    assert doc["free_pattern"] == 0


@pytest.mark.parametrize("n", [0, 1])
def test_r_above_its_bound_is_a_usage_error_at_small_n(n):
    result = run_swd(
        "dims", "--n", str(n), "--r", "100000000", "--ring", "q",
        timeout=60, preexec_fn=_limit_address_space,
    )
    assert result.returncode == 2
    assert "r must be at most 1000000" in result.stderr
    assert "Traceback" not in result.stderr


def test_decompose_at_n_one_returns_the_input(tmp_path):
    ring = Ring.modular(6)
    m = ref.scale(tn.TensorMatrix.identity(1, 2, ring), ring.from_int(5))
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"matrix": tn.matrix_to_json(m)}))
    result = run_swd("decompose", "--in", str(path))
    assert result.returncode == 0, result.stderr
    summands = json.loads(result.stdout)["summands"]
    assert summands == [{"tag": {"i": 1, "j": 1}, "matrix": tn.matrix_to_json(m)}]


def test_options_a_subcommand_does_not_read_are_refused(tmp_path, capsys):
    from swdual import cli

    path = tmp_path / "b.json"
    path.write_text(json.dumps({"matrix": tn.matrix_to_json(tn.phi((2, 3, 1), 3, 1, Q))}))
    base = {
        "dims": ["dims", "--n", "3", "--r", "1"],
        "free-pattern": ["free-pattern", "--n", "3", "--r", "2"],
        "colouring": ["colouring", "--n", "3", "--r", "2"],
        "gibson": ["gibson", "--n", "3"],
        "enumerate-diagrams": ["enumerate-diagrams", "--r", "1"],
        "check-membership": ["check-membership", "--in", str(path)],
        "extend": ["extend", "--in", str(path)],
        "decompose": ["decompose", "--in", str(path)],
    }
    refused = [(name, ["--seed", "1"]) for name in base] + [
        (name, ["--unsafe-large"])
        for name in ("free-pattern", "colouring", "gibson", "enumerate-diagrams")
    ] + [(name, ["--format", "table"]) for name in ("extend", "decompose")]
    assert len(refused) == 14
    for name, extra in refused:
        assert cli.main(base[name] + extra) == 2, (name, extra)
    capsys.readouterr()
    for name, argv in base.items():
        assert cli.main(argv) == 0, name


def test_an_internal_failure_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    from swdual import cli

    a = tn.TensorMatrix.identity(5, 2, Ring.integers())
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"matrix": tn.matrix_to_json(a)}))
    bad = corrupted(ex._decompose_operator(5, 2))
    monkeypatch.setattr(ex, "_decompose_operator", lambda n, r: bad)
    assert cli.main(["decompose", "--in", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal failure: ") and err.count("\n") == 1


def test_a_decomposition_key_is_named_as_the_file_wrote_it(tmp_path, capsys):
    # under col:1 the first key was an IndexError traceback, and the second
    # was named after its relabelling, (1, (3, 2), (3, 2))
    from swdual import cli

    a = tn.TensorMatrix.identity(4, 2, Ring.modular(6))
    path = tmp_path / "a.json"
    for key, named in (("(9,32,32)", "(9, (3, 2), (3, 2))"), ("(4,32,32)", "(4, (3, 2), (3, 2))")):
        path.write_text(json.dumps({"matrix": tn.matrix_to_json(a), "values": {key: "1"}}))
        assert cli.main(["decompose", "--basis", "col:1", "--in", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: assignment key %s is not a decomposition-pattern entry\n" % named)


def _matrix_doc(**changes):
    doc = {"n": 1, "r": 1, "ring": "q", "rows": [["1"]]}
    doc.update(changes)
    return {"matrix": doc}


@pytest.mark.parametrize(
    "doc,message",
    [
        (_matrix_doc(rows=[[3]]), "matrix entries must be strings"),
        (_matrix_doc(rows=[[None]]), "matrix entries must be strings"),
        (_matrix_doc(rows=[[1.5]]), "matrix entries must be strings"),
        (_matrix_doc(ring=3), 'a matrix needs "ring", a string'),
        (_matrix_doc(rows=None), 'a matrix needs "rows", a list of lists'),
        ([["1"]], "the input file must hold a JSON object"),
        ({"matrix": [["1"]]}, 'a matrix needs "rows", a list of lists'),
        (_matrix_doc(rows=["3"]), 'a matrix needs "rows", a list of lists'),
        (_matrix_doc(n=2, rows=["12", "34"]), 'a matrix needs "rows", a list of lists'),
        (_matrix_doc(n=True), "row data does not match n^r"),
        (_matrix_doc(rows=[["1/2/3"]]), "more than one '/' in '1/2/3'"),
        ({"matrix": {"r": 1, "ring": "q", "rows": [["1"]]}}, 'a matrix needs "n", an integer'),
        ({"matrix": {"n": 1, "ring": "q", "rows": [["1"]]}}, 'a matrix needs "r", an integer'),
        (_matrix_doc(ring="z/x"), "cannot parse ring descriptor 'z/x'"),
        (_matrix_doc(ring="z", rows=[["x"]]), "cannot parse 'x' as an element of z"),
        (_matrix_doc(ring="z/6", rows=[["x"]]), "cannot parse 'x' as an element of z/6"),
        (_matrix_doc(rows=[["1/x"]]), "cannot parse '1/x' as an element of q"),
    ],
    ids=["number", "null", "float", "ring-number", "rows-null", "top-level-list",
         "matrix-list", "row-string", "rows-strings-n2", "n-boolean", "two-slashes",
         "no-n", "no-r", "ring-modulus", "z-entry", "zm-entry", "q-denominator"],
)
def test_a_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, doc, message):
    from swdual import cli

    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check-membership", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("command", ["extend", "decompose"])
def test_a_file_without_a_matrix_is_a_usage_error(tmp_path, capsys, command):
    from swdual import cli

    path = tmp_path / "in.json"
    path.write_text(json.dumps({"values": {}}))
    assert cli.main([command, "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == 'error: the input needs "matrix", a matrix object\n'


@pytest.mark.parametrize(
    "rows,message",
    [
        ([["x", "0"], ["0", [1]]], "cannot parse 'x' as an element of q"),
        ([[[1], "0"], ["0", "x"]], "matrix entries must be strings"),
        ([["0", {}], [None, "x"]], "matrix entries must be strings"),
        ([["0", "1"], ["y", "x"]], "cannot parse 'y' as an element of q"),
    ],
    ids=["bad-string-first", "list-first", "object-first", "second-row"],
)
def test_the_first_bad_entry_in_row_major_order_decides_the_message(tmp_path, capsys, rows, message):
    from swdual import cli

    path = tmp_path / "in.json"
    path.write_text(json.dumps(_matrix_doc(n=2, rows=rows)))
    assert cli.main(["check-membership", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "values,message",
    [
        ([["(32,32)", "1"]], '"values" must be an object'),
        ([], '"values" must be an object'),
        ({"(32,32)": 1}, "value of (32,32) must be a string, got 1"),
        ({"(32,32)": None}, "value of (32,32) must be a string, got null"),
        ({"(32,x)": "1"}, "malformed assignment key '(32,x)'"),
        ({"(32,32)": "y"}, "cannot parse 'y' as an element of q"),
        ({"(32,32,1)": "1"}, "extension keys need (row,col): '(32,32,1)'"),
    ],
    ids=["list", "empty-list", "number", "null", "key-column", "value", "key-length"],
)
def test_malformed_values_are_a_usage_error(tmp_path, capsys, values, message):
    from swdual import cli

    path = tmp_path / "in.json"
    doc = {"matrix": tn.matrix_to_json(tn.phi((2, 3, 1), 3, 1, Q)), "values": values}
    path.write_text(json.dumps(doc))
    assert cli.main(["extend", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "values,message",
    [
        ({"(x,1,1)": "1"}, "malformed assignment key '(x,1,1)'"),
        ({"(1,3x,1)": "1"}, "malformed assignment key '(1,3x,1)'"),
        ({"(2,3,1)": "y"}, "cannot parse 'y' as an element of z/6"),
        ({"(3,1)": "1"}, "decomposition keys need (j,row,col): '(3,1)'"),
    ],
    ids=["key-block", "key-row", "value", "key-length"],
)
def test_malformed_decomposition_values_are_a_usage_error(tmp_path, capsys, values, message):
    from swdual import cli

    path = tmp_path / "in.json"
    doc = {"matrix": tn.matrix_to_json(tn.TensorMatrix.identity(3, 1, Ring.modular(6))),
           "values": values}
    path.write_text(json.dumps(doc))
    assert cli.main(["decompose", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("command", ["verify", "dims"])
def test_an_unparsable_ring_names_the_descriptor(capsys, command):
    from swdual import cli

    assert cli.main([command, "--n", "2", "--r", "1", "--ring", "z/x"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot parse ring descriptor 'z/x'\n"


# the first refused size of each command: B(12) diagrams at rank 6, at
# r = 2 the first n with n (n - 1) > 2^20 injective indices, the first n
# with ((n - 1)^2 + 1) n^2 > 2^20 Gibson basis entries, and the first n
# with n! > 2^20 permutations for the commands that walk all of W_n
@pytest.mark.parametrize(
    "argv,message",
    [(["enumerate-diagrams", "--r", "6"], "rank 6 has more than 1048576 diagrams"),
     (["colouring", "--n", "1025", "--r", "2"],
      "I'(1025,2) has more than 1048576 injective indices"),
     (["colouring", "--n", "1025", "--r", "2", "--block-j", "1"],
      "I'(1025,2) has more than 1048576 injective indices"),
     (["free-pattern", "--n", "1025", "--r", "2", "--flavour", "decomposition"],
      "I'(1025,2) has more than 1048576 injective indices"),
     (["gibson", "--n", "33"], "Gibson's basis at n = 33 has more than 1048576 entries"),
     (["verify", "--n", "10", "--r", "1", "--ring", "q"],
      "W_10 has more than 1048576 permutations"),
     (["verify", "--n", "10", "--r", "1", "--ring", "z/6"],
      "W_10 has more than 1048576 permutations"),
     (["verify", "--n", "10", "--r", "0", "--half"], "W_10 has more than 1048576 permutations"),
     (["dims", "--n", "10", "--r", "1"], "W_10 has more than 1048576 permutations")],
    ids=["enumerate-diagrams", "colouring", "colouring-block-j", "free-pattern", "gibson",
         "verify-q", "verify-z6", "verify-half", "dims"],
)
def test_an_invocation_past_the_size_bound_is_a_usage_error(capsys, argv, message):
    from swdual import cli

    assert cli.main([*argv, "--format", "table"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s, the most one invocation may hold\n" % message


# n |F(n-1, 2)| per-block labels: 930,260 at n = 20 (admitted, checked by
# count in test_indices.py), 1,220,961 at n = 21
@pytest.mark.parametrize("n", [21, 60])
def test_free_pattern_past_its_labels_is_refused_at_once(capsys, n):
    from swdual import cli

    start = time.perf_counter()
    assert cli.main(["free-pattern", "--n", str(n), "--r", "2"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: pattern (%d,2) has more than 1048576 entries, the most one "
                   "invocation may hold\n" % n)


@pytest.mark.parametrize(
    "argv", [["verify"], ["verify", "--half"], ["dims"]], ids=["verify", "verify-half", "dims"]
)
def test_a_walk_over_w_n_is_refused_before_any_elimination(capsys, argv):
    from swdual import cli

    start = time.perf_counter()
    assert cli.main([*argv, "--n", "10", "--r", "3"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: W_10 has more than 1048576 permutations")


def test_the_size_bound_is_exact_and_costs_nothing_at_large_r(capsys):
    from swdual import cli

    assert ix.MAX_HELD == 2**20
    ix.hold_at_most(ix.injective_counts(1024, 2), "x", "y")  # 1,047,552: at the bound
    ix.hold_at_most(ix.injective_counts(12, 6), "x", "y")  # 665,280; r = 7 would be 3,991,680
    assert math.factorial(9) <= ix.MAX_HELD < math.factorial(10)  # 362,880 and 3,628,800
    assert cli.main(["gibson", "--n", "32"]) == 0  # 962 elements of 1,024 entries
    assert json.loads(capsys.readouterr().out)["rank"] == 962
    ix.hold_at_most([2**20], "x", "y")
    with pytest.raises(ix.CapExceeded):
        ix.hold_at_most([2**20 + 1], "x", "y")
    # I'(n, r) is empty for r > n, and huge counts stop at the bound
    for argv in (["colouring", "--n", "3", "--r", "40"], ["free-pattern", "--n", "3", "--r", "40"]):
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ones" if argv[0] == "colouring" else "entries"] == []
    assert cli.main(["enumerate-diagrams", "--r", str(10**12)]) == 2
    assert cli.main(["colouring", "--n", str(10**12), "--r", str(10**12)]) == 2
    assert cli.main(["verify", "--n", str(10**12), "--r", "1"]) == 2
    assert cli.main(["gibson", "--n", str(10**12)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["verify", "--ring", "q"], ["verify", "--ring", "z/6"], ["dims"]],
    ids=["verify-q", "verify-z6", "dims"],
)
def test_degree_zero_walks_no_permutations_and_passes_the_bound(capsys, argv):
    from swdual import cli

    assert cli.main([*argv, "--n", "10", "--r", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] if argv[0] == "verify" else doc["centraliser"] == doc["span_w"] == 1


def test_every_printed_free_entry_at_n_ten_is_read_back(tmp_path, capsys):
    """Indices with a value of 10 or more: "(10,10)" is ((10,), (10,)) at
    r = 1, not ((1, 0), (1, 0))."""
    from swdual import cli

    assert cli.main(["free-pattern", "--n", "10", "--r", "1"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert ["10", "10"] in entries
    values = {"(%s,%s)" % (u, v): str(k) for k, (u, v) in enumerate(entries)}
    path = tmp_path / "in.json"
    b = tn.TensorMatrix.scalar(10, Q, Q.from_int(3))
    path.write_text(json.dumps({"matrix": tn.matrix_to_json(b), "values": values}))
    assert cli.main(["extend", "--in", str(path)]) == 0
    a = tn.matrix_from_json(json.loads(capsys.readouterr().out)["matrix"])
    for k, (u, v) in enumerate(entries):
        assert a.get((int(u),), (int(v),)) == Q.from_int(k)


@pytest.mark.parametrize(
    "key,n,r,decomposition,read",
    [("(10,10)", 10, 1, False, ((10,), (10,))),
     ("(32,21)", 3, 2, False, ((3, 2), (2, 1))),
     ("(10,1,2,3)", 10, 2, False, ((10, 1), (2, 3))),
     ("(10,1,23)", 10, 2, False, ((10, 1), (2, 3))),
     ("(23,10,1)", 10, 2, False, ((2, 3), (10, 1))),
     ("( 4 , 13,2 ,432)", 13, 3, False, ((4, 13, 2), (4, 3, 2))),
     ("(2,10,1,2,3)", 10, 2, True, (2, (10, 1), (2, 3))),
     ("(11,3,11,2)", 11, 1, True, None),
     ("(12,3,45)", 50, 2, False, "reads two ways"),
     ("(12,3,45)", 11, 2, False, None)],
)
def test_assignment_keys_are_read_against_n_and_r(key, n, r, decomposition, read):
    from swdual import cli

    values = {key: "7"}
    if isinstance(read, tuple):
        assert cli._parse_assignment(Q, values, n, r, decomposition) == {read: Q.from_int(7)}
    else:
        with pytest.raises(cli.UsageError, match=read or "keys need"):
            cli._parse_assignment(Q, values, n, r, decomposition)


@pytest.mark.parametrize(
    "argv",
    [["--n", "3", "--r", "2", "--ring", "q"], ["--n", "3", "--r", "2", "--ring", "z/6"],
     ["--n", "3", "--r", "1", "--half"]],
    ids=["field", "non-field", "half"],
)
def test_verify_timings_go_to_stderr_and_leave_stdout_alone(capsys, argv):
    from swdual import cli

    assert cli.main(["verify", *argv]) == 0
    plain, err = capsys.readouterr()
    assert err == ""
    assert cli.main(["verify", *argv, "--timings"]) == 0
    out, err = capsys.readouterr()
    assert out == plain
    assert err.startswith("timings: ") and err.count("\n") == 1
    timings = json.loads(err[len("timings: "):])
    assert "total" in timings and all(t >= 0 for t in timings.values())
    if argv[-1] == "q":
        assert set(timings) == {"span", "centraliser", "psi", "total"}
    if argv[-1] == "z/6":
        assert set(timings) == {"extend", "express", "total"}


json_strings = st.text() | st.text(st.sampled_from('a"\\/\b\n\t\x00\x7f\xe9\u20ac\u2028\ud800\U0001f600'))
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80)
                | st.floats(allow_nan=False) | json_strings)
json_documents = st.recursive(
    json_scalars | st.lists(json_strings),
    lambda inner: st.lists(inner) | st.dictionaries(json_strings, inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_documents)
def test_the_writer_equals_indented_sorted_json_dumps(doc):
    from swdual import cli

    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _seeded_runs(ring, seed):
    """(argv without --in, input document, exit code) at (4, 3): extend
    from (4, 2) with one free value, both decompositions and membership of
    an invariant with seeded coefficients (fractions over Q), and
    membership of a copy broken at (112, 112), which breaks S."""
    rng = random.Random(seed)

    def coefficient():
        x = rng.randrange(-5, 6)
        return Fraction(x, rng.randrange(1, 7)) if ring == Q else ring.from_int(x)

    def invariant(r):
        return tn.phi_sum({w: coefficient() for w in ix.all_permutations(4)}, 4, r, ring)

    b, a = invariant(2), invariant(3)
    broken = list(a.data)
    k = ix.index_rank(4, (1, 1, 2))
    broken[k * 64 + k] = ring.add(broken[k * 64 + k], ring.one)
    values = {"(432,432)": ring.format_value(coefficient())}
    a_doc = {"matrix": tn.matrix_to_json(a)}
    return [
        (["extend"], {"matrix": tn.matrix_to_json(b), "values": values}, 0),
        (["decompose"], a_doc, 0),
        (["decompose", "--basis", "col:1"], a_doc, 0),
        (["check-membership"], a_doc, 0),
        (["check-membership"], {"matrix": tn.matrix_to_json(tn.TensorMatrix(4, 3, ring, broken))}, 1),
    ]


# sha256 of each swd/1 output on _seeded_runs(ring, 7), as
# json.dumps(doc, indent=2, sort_keys=True) wrote it
SEEDED_DIGESTS = {
    "z/6": ["7f4b4e0500d2ab98c5e9933e73296d78e9c1628063636810f73ad5420eaf0b4c",
            "d8b55a19f815ebe28610ca6081cb89e4ea9452fd78cd89c638298842e38fa70d",
            "799a4ce034f8bd7e974994e67511c0b34c7ed71ab67dfe2e10919fe452dcd72b",
            "e211f896fb86862a80070bd1e86ef76a04e76595a06f641c1058e296609f4219",
            "9a29d6677850ceaaea02505c29e6429fb93a924fdd9aff92b3270186eec8d8c0"],
    "q": ["af7af2d91888d6834257dc827296aa531a36c15df9d2f82bdcbfdd883c7a16a8",
          "3e4f304e19fe8bd9f67f15d6f51e7410f38055adf172ed80582c697fac3e01bc",
          "41b014f9254094c8e78df266874076aa600420d0db7484a3f54986a529390e01",
          "e211f896fb86862a80070bd1e86ef76a04e76595a06f641c1058e296609f4219",
          "9a29d6677850ceaaea02505c29e6429fb93a924fdd9aff92b3270186eec8d8c0"],
}


@pytest.mark.parametrize("ring", ["z/6", "q"])
def test_seeded_outputs_are_pinned(tmp_path, capsys, ring):
    from swdual import cli

    path = tmp_path / "in.json"
    digests = []
    for argv, doc, code in _seeded_runs(Ring.parse(ring), 7):
        path.write_text(json.dumps(doc))
        assert cli.main([*argv, "--in", str(path)]) == code
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == SEEDED_DIGESTS[ring]


# the digest the CI step "Installed swd command" pins for the same file
FIXTURE_DECOMPOSE_DIGEST = "b636f32a37cd990604dea88c8a93e80fffae218c699a22300905772e87afe404"


def test_decompose_of_the_q_fixture_is_pinned(capsys):
    from swdual import cli

    fixture = Path(__file__).parent / "fixtures" / "decompose_q32.json"
    assert cli.main(["decompose", "--in", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURE_DECOMPOSE_DIGEST


# the digest the CI step "Installed swd command" pins for a (5,3) invariant
# over Z with values of about 2^41, past the packed columns' digit bound,
# so every operator the call applies takes the row loop
FIXTURE_DECOMPOSE_Z53_DIGEST = "cc442bf30f6740c9ac05ddbd9a0bb7177047a8762d2889ce1d41a809853585d2"


def test_decompose_of_the_z_fixture_past_the_digit_bound_is_pinned(capsys):
    from swdual import cli

    fixture = Path(__file__).parent / "fixtures" / "decompose_z53.json"
    a = tn.matrix_from_json(json.loads(fixture.read_text())["matrix"])
    assert max(map(abs, ex._tower(a))) * ex._decompose_operator(5, 3).norm >= 1 << 31
    assert cli.main(["decompose", "--in", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURE_DECOMPOSE_Z53_DIGEST


# the digests the CI step "Installed swd command" pins for the same file
# decomposed along block column 1 and block row 1, whose summands are
# inflated straight into the basis
FIXTURE_DECOMPOSE_BASIS_DIGESTS = {
    "col:1": "184a7ecb33579d65915718e37fe403b56d04cf2818adc4bf7d89d724685296d7",
    "row:1": "ea8b121495fd25065a2e779678eb7d0ae2217f31d6c9ead2b25becf50aa7833e",
}


@pytest.mark.parametrize("basis", sorted(FIXTURE_DECOMPOSE_BASIS_DIGESTS))
def test_decompose_of_the_q_fixture_in_another_basis_is_pinned(capsys, basis):
    from swdual import cli

    fixture = Path(__file__).parent / "fixtures" / "decompose_q32.json"
    assert cli.main(["decompose", "--in", str(fixture), "--basis", basis]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURE_DECOMPOSE_BASIS_DIGESTS[basis]


# the digests the CI step "Installed swd command" pins for the same files:
# extend from degree zero, and from degree one at n = 4 over Z/6; and
# extend from degree zero at n = 200, which that step runs under a timeout
FIXTURE_EXTEND_DIGESTS = {
    "extend_z6_40.json": "0fa1df20c6f45396510b45b48bb16877e5a7d52ff4130af35af8d08e38aadbd7",
    "extend_z6_41.json": "1ab7d53467bdb0d176fa40c8bef81d55f1be0984a941728c896f3f634d4a96a7",
    "extend_z6_2000.json": "c2cd668251ff6d66d89d69fc95c76c56ca3e5c4b72e2383f94a654253bf0b599",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_EXTEND_DIGESTS))
def test_extend_of_the_z6_fixtures_is_pinned(capsys, name):
    from swdual import cli

    assert cli.main(["extend", "--in", str(Path(__file__).parent / "fixtures" / name)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURE_EXTEND_DIGESTS[name]


def test_the_parser_is_built_once_and_parses_as_a_fresh_one(capsys, monkeypatch):
    from swdual import cli

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    runs = [
        ["verify", "--n", "3", "--r", "2"],
        ["dims", "--n", "3", "--r", "2", "--ring", "z/3"],
        ["verify", "--n", "3", "--r", "1", "--half"],
        ["free-pattern", "--n", "4", "--r", "2", "--format", "table"],
        ["verify", "--n", "3"],  # usage errors: a missing option, a negative r,
        ["dims", "--n", "3", "--r", "-1"],  # an unknown subcommand
        ["nosuch"],
        ["--help"],
        ["extend", "--help"],
        ["verify", "--n", "3", "--r", "2"],
    ]

    def outputs():
        out = []
        for argv in runs:
            code = cli.main(list(argv))
            out.append((code, *capsys.readouterr()))
        return out

    cli.build_parser.cache_clear()
    kept = outputs()
    assert cli.build_parser.cache_info()[:2] == (len(runs) - 1, 1)  # hits, misses
    assert [code for code, _, _ in kept] == [0, 0, 0, 0, 2, 2, 2, 0, 0, 0]
    fresh = cli.build_parser.__wrapped__
    monkeypatch.setattr(cli, "build_parser", lambda: fresh())  # one parser per call
    assert outputs() == kept
