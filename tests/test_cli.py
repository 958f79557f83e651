import json
import resource
import subprocess
import sys
from array import array

import pytest

from swdual import extension as ex
from swdual import tensor as tn
from swdual import verify as vf
from swdual.rings import Ring
from test_q_integers import large_denominators

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


@pytest.mark.parametrize("command", ["check-membership", "decompose"])
def test_common_denominator_past_the_bound_is_a_usage_error(tmp_path, command):
    rows = [["1/%d" % d for d in large_denominators(4096)[k : k + 64]]
            for k in range(0, 4096, 64)]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": {"n": 4, "r": 3, "ring": "q", "rows": rows}}))
    result = run_swd(command, "--in", str(path))
    assert result.returncode == 2
    assert result.stderr == "error: common denominator of 4096 values over 65536 bits\n"
    assert result.stdout == ""


def test_negative_n_is_a_usage_error():
    for args in (("dims", "--n", "-1", "--r", "3", "--ring", "q"),
                 ("verify", "--n", "-1", "--r", "2", "--ring", "q"),
                 ("verify", "--n", "-1", "--r", "2", "--ring", "z/6"),
                 ("dims", "--n", "-1", "--r", "0"), ("free-pattern", "--n", "-1", "--r", "2"),
                 ("colouring", "--n", "-1", "--r", "2"), ("gibson", "--n", "-1")):
        result = run_swd(*args)
        assert result.returncode == 2
        assert result.stderr == "error: n must be non-negative, got -1\n"


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
    rows = [[]] * (tn.DEFAULT_SIZE_CAP + 1)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"matrix": {"n": 2, "r": 10**9, "ring": "q", "rows": rows}}))
    for command in ("check-membership", "extend", "decompose"):
        result = run_swd(command, "--in", str(path))
        assert result.returncode == 2
        assert "cap" in result.stderr and "--unsafe-large" in result.stderr


def test_unsafe_large_reaches_the_json_boundary(tmp_path, monkeypatch, capsys):
    from swdual import cli

    monkeypatch.setattr(tn, "DEFAULT_SIZE_CAP", 2)
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
    m = tn.TensorMatrix.identity(1, 2, ring).scale(ring.from_int(5))
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
    op = ex._decompose_operator(5, 2)
    coefs = array(op.coefs.typecode, op.coefs)
    coefs[list(op.cols).index(0)] += 1  # a coefficient of the scalar rho^r, 1 for the identity
    monkeypatch.setattr(ex, "_decompose_operator", lambda n, r: ex._Operator(op.starts, op.cols, coefs))
    assert cli.main(["decompose", "--in", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal failure: ") and err.count("\n") == 1
