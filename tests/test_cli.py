"""CLI surface: subcommands, exit codes, and report stability."""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthokit import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_then_verify_phi(tmp_path, capsys):
    out = str(tmp_path / "b.json")
    code, _, _ = run(capsys, "construct", "phi-family", "--q", "2", "--r", "5",
                     "--w", "3", "--n", "5", "--out", out)
    assert code == 0
    code, stdout, _ = run(capsys, "verify", out)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["verdicts"]["holds"] is True
    assert rep["inputs"]["spaces"] == 6


def test_construct_phi_family_negative_n_exit_2(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, stdout, err = run(capsys, "construct", "phi-family", "--q", "2",
                            "--r", "5", "--w", "3", "--n", "-1",
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "--n" in err and not out.exists()


def test_construct_phi_family_non_coprime_w_exit_2(tmp_path, capsys):
    # the spaces are built from their forms, and the exponent check that
    # refuses w = 2 against 3^3 - 1 = 26 comes first
    out = tmp_path / "b.json"
    code, stdout, err = run(capsys, "construct", "phi-family", "--q", "3",
                            "--r", "3", "--w", "2", "--n", "2",
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "NOT_COPRIME" in err and "Traceback" not in err
    assert not out.exists()


def test_construct_catalog_and_char_p(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    assert run(capsys, "construct", "catalog", "--name", "PG3_F3_X2",
               "--out", out)[0] == 0
    assert run(capsys, "verify", out)[0] == 0
    out2 = str(tmp_path / "p.json")
    assert run(capsys, "construct", "char-p", "--p", "2", "--n", "3",
               "--k", "3", "--out", out2)[0] == 0
    assert run(capsys, "verify", out2)[0] == 0


@pytest.mark.parametrize("n", ["0", "-1"])
def test_construct_char_p_degree_below_one_exit_2(tmp_path, capsys, n):
    out = tmp_path / "c.json"
    code, stdout, err = run(capsys, "construct", "char-p", "--p", "2",
                            "--n", n, "--k", "2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert f"n >= 1, got n = {n}" in err and "prime power" not in err
    assert not out.exists()


def test_construct_char_p_refuses_a_huge_degree_by_the_cap(tmp_path, capsys):
    # 3^10000 has 4,772 digits: refused before it is computed or printed
    out = tmp_path / "c.json"
    code, stdout, err = run(capsys, "construct", "char-p", "--p", "3",
                            "--n", "10000", "--k", "2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "BAD_DIMENSION" in err and "enumeration cap" in err
    assert not out.exists()


def test_out_of_memory_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    # exit 1 would read as "property fails"
    from orthokit import bundle, check, geom
    # three spaces, two of no form, so the family check packs its triple
    # index (a family of two goes to the pair decider, which packs none)
    g = geom.affine(2, 3)
    path = str(tmp_path / "family.json")
    bundle.write_bundle(path, [check.standard(g),
                               check.from_map(g, [0, 1, 3, 2, 4, 7, 6, 8, 5]),
                               check.from_map(g, [0, 2, 1, 3, 4, 5, 6, 7, 8])])

    def no_memory(*args):
        raise MemoryError("Unable to allocate 21.5 GiB")
    # the catalog, whose families are checked when it loads, loads unpatched
    cli.build_parser()
    monkeypatch.setattr(check, "packed_triples", no_memory)
    code, stdout, err = run(capsys, "verify", path)
    assert (code, stdout) == (2, "")
    assert err == "error [OUT_OF_MEMORY]: Unable to allocate 21.5 GiB\n"
    assert "Traceback" not in err


def test_one_parser_serves_every_call(tmp_path, capsys):
    cli.build_parser.cache_clear()
    first = ("bound", "--kind", "affine", "--dim", "3", "--q", "3")
    runs = [run(capsys, *argv) for argv in
            (first, ("bound", "--kind", "affine"), ("--version",), first)]
    assert runs[0] == runs[3] and runs[0][0] == 0 and runs[0][1]
    assert runs[1][0] == 2 and "--dim" in runs[1][2]
    assert runs[2] == (0, cli.__version__ + "\n", "")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("size", [2, 3])
def test_verify_family_with_two_point_lines(tmp_path, capsys, d, size):
    # lines of AG(d, 2) hold no triple, so k = 2 holds on any family
    import numpy as np
    from orthokit import bundle, geom
    from orthokit.check import from_map
    g = geom.affine(d, 2)
    rng = np.random.default_rng(size)
    path = str(tmp_path / "ag2.json")
    bundle.write_bundle(path, [from_map(g, rng.permutation(g.point_count))
                               for _ in range(size)])
    code, stdout, _ = run(capsys, "verify", path)
    assert code == 0
    assert json.loads(stdout)["verdicts"]["holds"] is True


def test_verify_askew_property(tmp_path, capsys):
    out = str(tmp_path / "a.json")
    assert run(capsys, "construct", "askew", "--k", "4", "--q", "2",
               "--out", out)[0] == 0
    assert run(capsys, "verify", out, "--property", "askew")[0] == 0


def test_verify_duplicate_space_fails_with_witness(tmp_path, capsys):
    from orthokit import bundle, geom
    from orthokit.check import standard, from_map
    g = geom.affine(2, 3)
    path = str(tmp_path / "dup.json")
    bundle.write_bundle(path, [standard(g), from_map(g, list(range(9)))])
    code, stdout, _ = run(capsys, "verify", path)
    assert code == 1
    rep = json.loads(stdout)
    assert rep["verdicts"]["holds"] is False
    assert "triple" in rep["witnesses"]["witness"]


def test_verify_negative_k_is_a_usage_error(tmp_path, capsys):
    # no two lines share fewer than 0 points, so k < 0 has no witness
    from orthokit import bundle, check, geom
    g = geom.affine(2, 3)
    path = str(tmp_path / "pair.json")
    bundle.write_bundle(path, [check.standard(g),
                               check.from_map(g, [0, 1, 3, 2, 4, 7, 6, 8, 5])])
    code, stdout, err = run(capsys, "verify", path, "--k", "-1")
    assert (code, stdout) == (2, "")
    assert "k must be >= 0" in err


def test_verify_half_dim_over_flat_cap_is_refused(tmp_path, capsys):
    from orthokit import bundle, check, geom
    g = geom.projective(6, 3)
    path = str(tmp_path / "pg63.json")
    shift = list(range(1, g.point_count)) + [0]  # a Singer shift
    bundle.write_bundle(path, [check.standard(g), check.from_map(g, shift)])
    code, _, err = run(capsys, "verify", path, "--property", "half-dim")
    assert code == 2
    assert "BAD_DIMENSION" in err and "flat enumeration cap" in err


@pytest.mark.parametrize("prop", ["k-orthogoval", "askew", "half-dim"])
def test_verify_one_space_is_a_usage_error(tmp_path, capsys, prop):
    from orthokit import bundle, geom
    from orthokit.check import standard
    path = str(tmp_path / "one.json")
    bundle.write_bundle(path, [standard(geom.projective(2, 2))])
    code, stdout, err = run(capsys, "verify", path, "--property", prop)
    assert (code, stdout) == (2, "")
    assert "need at least 2 spaces" in err


def test_verify_malformed_bundle(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1}')
    assert run(capsys, "verify", str(path))[0] == 3
    path2 = tmp_path / "worse.json"
    path2.write_text("not json")
    assert run(capsys, "verify", str(path2))[0] == 3
    assert run(capsys, "verify", str(tmp_path / "missing.json"))[0] == 3


def test_verify_refuses_a_header_primitive_the_field_does_not_have(
        tmp_path, capsys):
    import json
    path = tmp_path / "c.json"
    assert run(capsys, "construct", "char-p", "--p", "3", "--n", "2",
               "--k", "3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    assert doc["header"]["field"]["primitive"] == [0, 1]
    doc["header"]["field"]["primitive"] = [0, 5]
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "verify", str(path), "--k", "3")
    assert (code, stdout) == (3, "")
    assert "MALFORMED_BUNDLE" in err and "primitive" in err
    assert "Traceback" not in err


def test_verify_non_utf8_bundle_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format_version": 1, "name": "\xe9"}')
    code, stdout, err = run(capsys, "verify", str(path))
    assert (code, stdout) == (3, "")
    assert "MALFORMED_BUNDLE" in err


def test_verify_a_directory_exits_3(tmp_path, capsys):
    code, stdout, err = run(capsys, "verify", str(tmp_path))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and str(tmp_path) in err


def test_checkpoint_dir_naming_a_file_exits_3(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(taken))
    code, stdout, err = run(capsys, "search", "half-dim", "--dim", "2",
                            "--q", "3")
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and str(taken) in err


def test_construct_out_below_a_file_exits_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, stdout, err = run(capsys, "construct", "catalog", "--name",
                            "PG3_F3_X2", "--out", str(taken / "x.json"))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and str(taken) in err


DEEP = "[" * 200_000


@pytest.mark.parametrize("argv", [
    ("verify", "{}"),
    ("bound", "--kind", "affine", "--dim", "2", "--q", "3", "{}"),
], ids=["verify", "bound"])
def test_bundle_nested_past_the_recursion_limit_exits_3(tmp_path, capsys,
                                                        argv):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, stdout, err = run(capsys, *(a.format(path) for a in argv))
    assert (code, stdout) == (3, "")
    assert "MALFORMED_BUNDLE" in err and "Traceback" not in err


def test_checkpoint_nested_past_the_recursion_limit_exits_3(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    (tmp_path / "half-dim-2-3.json").write_text(DEEP)
    code, stdout, err = run(capsys, "search", "half-dim", "--dim", "2",
                            "--q", "3")
    assert (code, stdout) == (3, "")
    assert "MALFORMED_CHECKPOINT" in err and "Traceback" not in err


@pytest.mark.parametrize("kind,key,value", [
    ("projective", "dim", "4"),
    ("projective", "dim", 0),
    ("projective", "dim", 2.0),
    ("projective", "q", 3),
    ("projective", "basis", [1, 2]),
    ("projective", "labeling", {"modulus": [1, 0, 1]}),
    ("projective", "field", {"p": 4, "n": 1, "modulus": [1, 1]}),
    ("affine", "dim", 40),
    ("affine", "field", {"p": 3, "n": 1}),
    ("projective", "basis", [1, 1, 1]),
])
def test_malformed_header_exits_3(tmp_path, capsys, kind, key, value):
    from orthokit import bundle, geom
    from orthokit.check import standard
    g = geom.projective(2, 2) if kind == "projective" else geom.affine(2, 3)
    doc = bundle.bundle_dict([standard(g)])
    doc["header"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "verify", str(path))
    assert (code, stdout) == (3, "")
    assert "MALFORMED_BUNDLE" in err


@pytest.mark.parametrize("name", [{"a": 1}, 7, None])
def test_non_string_space_name_exits_3(tmp_path, capsys, name):
    from orthokit import bundle
    from orthokit.build import build_phi_family
    doc = bundle.bundle_dict(build_phi_family(2, 5, 3, 5))
    doc["spaces"][2]["name"] = name
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "verify", str(path))
    assert (code, stdout) == (3, "")
    assert "MALFORMED_BUNDLE" in err and "space 2" in err


def test_construct_invalid_params_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    code, _, err = run(capsys, "construct", "askew", "--k", "3", "--q", "2",
                       "--out", out)
    assert code == 2
    assert "prime" in err.lower() or "K_PLUS_1" in err


def test_construct_char_p_refuses_a_non_prime_p(tmp_path, capsys):
    out = tmp_path / "p4.json"
    code, stdout, err = run(capsys, "construct", "char-p", "--p", "4",
                            "--n", "1", "--k", "2", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "NOT_PRIME" in err
    assert not out.exists()


def test_bound_command(tmp_path, capsys):
    code, stdout, _ = run(capsys, "bound", "--kind", "affine",
                          "--dim", "2", "--q", "3")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["verdicts"]["triple_bound"] == 7
    assert rep["verdicts"]["johnson_bound"] == 7
    # affine q=2 is refused as a usage error
    assert run(capsys, "bound", "--kind", "affine", "--dim", "2", "--q", "2")[0] == 2


def test_bound_with_certificate(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    run(capsys, "construct", "catalog", "--name", "AG2_F3_X7", "--out", out)
    code, stdout, _ = run(capsys, "bound", "--kind", "affine",
                          "--dim", "2", "--q", "3", out)
    rep = json.loads(stdout)
    assert code == 0
    assert rep["verdicts"]["achieved"] == 7
    assert rep["verdicts"]["slack"] == 0


def test_bound_rejects_a_family_from_another_geometry(tmp_path, capsys):
    out = str(tmp_path / "pg42.json")
    assert run(capsys, "construct", "phi-family", "--q", "2", "--r", "5",
               "--w", "3", "--n", "5", "--out", out)[0] == 0
    code, stdout, err = run(capsys, "bound", "--kind", "affine",
                            "--dim", "2", "--q", "3", out)
    assert (code, stdout) == (2, "")
    assert "GEOMETRY_MISMATCH" in err


def test_bound_accepts_another_basis_and_labelling(tmp_path, capsys):
    # PG3_F3_X2 uses the desc basis and labelling modulus [2, 0, 0, 2, 1]
    out = str(tmp_path / "pg33.json")
    assert run(capsys, "construct", "catalog", "--name", "PG3_F3_X2",
               "--out", out)[0] == 0
    code, stdout, _ = run(capsys, "bound", "--kind", "projective",
                          "--dim", "3", "--q", "3", out)
    assert code == 0
    assert json.loads(stdout)["verdicts"]["achieved"] == 2


def test_search_commands(capsys):
    code, stdout, _ = run(capsys, "search", "exponent-scan", "--q", "5",
                          "--r", "5", "--w-max", "6")
    assert code == 0
    assert 3 in json.loads(stdout)["verdicts"]["orthomorphisms"]
    code, stdout, _ = run(capsys, "search", "power-chain", "--q", "2",
                          "--r", "5", "--w", "3")
    assert json.loads(stdout)["verdicts"]["chain_length"] == 5
    code, stdout, _ = run(capsys, "search", "clique", "--q", "2", "--r", "5",
                          "--w-list", "3,5,11,13")
    assert code == 0


def test_search_half_dim_budget_exit_4(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    code, stdout, _ = run(capsys, "search", "half-dim", "--dim", "4",
                          "--q", "2", "--budget", "1000")
    assert code == 4
    rep = json.loads(stdout)
    assert rep["verdicts"]["exhaustive"] is False
    assert rep["verdicts"]["nodes"] == 1000


def test_search_half_dim_writes_certificates(capsys, tmp_path):
    out = str(tmp_path / "found.json")
    code, _, _ = run(capsys, "search", "half-dim", "--dim", "2", "--q", "3",
                     "--out", out)
    assert code == 0
    from orthokit import bundle
    spaces, prov = bundle.read_bundle(out)
    assert len(spaces) == 1
    assert prov["construction"] == "half-dim-search"


def test_search_half_dim_odd_dimension_exit_2(capsys):
    code, stdout, err = run(capsys, "search", "half-dim", "--dim", "3",
                            "--q", "2")
    assert (code, stdout) == (2, "")
    assert "ODD_DIMENSION" in err


@pytest.mark.parametrize("argv,option", [
    (["search", "half-dim", "--dim", "2", "--q", "3", "--budget", "-1"],
     "--budget"),
    (["search", "half-dim", "--dim", "2", "--q", "3", "--budget", "1.5"],
     "--budget"),
    (["search", "clique", "--q", "2", "--r", "5", "--w-list", "3,5",
      "--budget", "-1"], "--budget"),
    (["reproduce", "half-dim-nonexistence", "--budget", "-5"], "--budget"),
    (["search", "half-dim", "--dim", "2", "--q", "3",
      "--max-certificates", "0"], "--max-certificates"),
    (["search", "half-dim", "--dim", "2", "--q", "3",
      "--max-certificates", "-1"], "--max-certificates"),
    (["search", "exponent-scan", "--q", "2", "--r", "5", "--w-max", "-3"],
     "--w-max"),
    (["search", "exponent-scan", "--q", "2", "--r", "5", "--w-max", "0"],
     "--w-max"),
])
def test_impossible_search_limits_exit_2(capsys, argv, option):
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert option in err


@pytest.mark.parametrize("r", ["0", "1"])
def test_power_chain_reports_the_dimension_before_coprimality(capsys, r):
    # q^r - 1 is 0 or 1, so the gcd test alone would blame w
    code, stdout, err = run(capsys, "search", "power-chain", "--q", "2",
                            "--r", r, "--w", "3")
    assert (code, stdout) == (2, "")
    assert "BAD_DIMENSION" in err and "NOT_COPRIME" not in err


def test_reproduce_askew_and_catalog(capsys):
    code, stdout, _ = run(capsys, "reproduce", "askew")
    assert code == 0
    assert json.loads(stdout)["verdicts"]["pass"] is True
    code, stdout, _ = run(capsys, "reproduce", "catalog")
    assert code == 0
    rows = json.loads(stdout)["verdicts"]["rows"]
    assert {r["name"] for r in rows} == {"AG2_F3_X7", "AG3_F3_X8",
                                         "PG3_F2_X7", "PG3_F3_X2"}


def test_reproduce_askew_rows_at_the_papers_scale(capsys):
    from orthokit import check
    from orthokit.build import build_askew_pair
    code, stdout, _ = run(capsys, "reproduce", "askew")
    assert code == 0
    rows = json.loads(stdout)["verdicts"]["rows"]
    assert [(r["k"], r["q"]) for r in rows[6:]] == [(4, 4), (4, 5), (6, 3), (10, 2)]
    assert all(r["pass"] for r in rows)
    assert check.naive_askew_pair(*build_askew_pair(4, 4))


def test_reproduce_bounds_grid(capsys):
    code, stdout, _ = run(capsys, "reproduce", "bounds")
    assert code == 0
    rows = json.loads(stdout)["verdicts"]["rows"]
    assert len(rows) == 4 * 5 * 2
    undef = [r for r in rows if r.get("note")]
    assert all(r["kind"] == "affine" and r["q"] == 2 for r in undef)


def test_reproduce_big_sets_single_row(capsys):
    code, stdout, _ = run(capsys, "reproduce", "big-sets",
                          "--rows", "2,5,3", "2,5,11")
    assert code == 0
    rows = json.loads(stdout)["verdicts"]["rows"]
    assert [(r["q"], r["r"], r["w"]) for r in rows] == [(2, 5, 3), (2, 5, 11)]
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("argv, problem", [
    (("big-sets", "--rows", "2,5,3", "2,5,99"), "2,5,99"),
    (("big-sets", "--rows", "2,5"), "2,5"),
    (("catalog", "--rows", "2,5,3"), "big-sets only"),
    (("askew", "--rows"), "big-sets only"),
])
def test_reproduce_rows_outside_the_big_sets_table_exit_2(capsys, argv, problem):
    code, stdout, err = run(capsys, "reproduce", *argv)
    assert (code, stdout) == (2, "")
    assert "--rows" in err and problem in err


@pytest.mark.parametrize("table", ["big-sets", "catalog", "bounds", "askew"])
def test_reproduce_budget_outside_half_dim_exits_2(capsys, table):
    code, stdout, err = run(capsys, "reproduce", table, "--budget", "5")
    assert (code, stdout) == (2, "")
    assert "--budget" in err and "half-dim-nonexistence only" in err


def test_reproduce_half_dim_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOKIT_CHECKPOINT_DIR", str(tmp_path))
    code, stdout, _ = run(capsys, "reproduce", "half-dim-nonexistence",
                          "--budget", "500")
    assert code == 4


def test_usage_error_exit_2(capsys):
    assert run(capsys, "bogus-command")[0] == 2


def test_table_format(capsys):
    code, stdout, _ = run(capsys, "bound", "--kind", "projective",
                          "--dim", "4", "--q", "2", "--format", "table")
    assert code == 0
    assert "triple bound : 29" in stdout


def test_report_is_canonical_json(capsys):
    _, out1, _ = run(capsys, "search", "exponent-scan", "--q", "2", "--r", "5",
                     "--w-max", "8")
    _, out2, _ = run(capsys, "search", "exponent-scan", "--q", "2", "--r", "5",
                     "--w-max", "8", "--workers", "4")
    assert out1 == out2
    assert out1.endswith("\n")
    assert json.loads(out1)["tool_version"]


# ----------------------------------------------------------------------
# bundle fuzzing: any mutated bundle gives a verdict or exit 3
# ----------------------------------------------------------------------

FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.integers(-2 ** 70, 2 ** 70),
    st.floats(), st.text(max_size=4), st.lists(st.integers(-3, 40), max_size=6),
    st.dictionaries(st.sampled_from(["p", "n", "modulus"]),
                    st.integers(-3, 40), max_size=3))
FUZZ_PATHS = [("format_version",), ("header",), ("header", "kind"),
              ("header", "dim"), ("header", "q"), ("header", "field"),
              ("header", "field", "p"), ("header", "field", "n"),
              ("header", "field", "modulus"), ("header", "basis"),
              ("header", "labeling"), ("header", "labeling", "modulus"),
              ("spaces",), ("spaces", 0), ("spaces", 1, "permutation"),
              ("spaces", 2, "name"), ("provenance",)]
FUZZ_EDITS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(FUZZ_PATHS), FUZZ_VALUES),
    st.tuples(st.just("del"), st.sampled_from(FUZZ_PATHS)),
    st.builds(lambda i, j, v: ("set", ("spaces", i, "permutation", j), v),
              st.integers(0, 5), st.integers(0, 30), FUZZ_VALUES),
    st.tuples(st.just("swap"), st.integers(0, 5), st.integers(0, 30),
              st.integers(0, 30))), min_size=1, max_size=3)


def _mutate(doc, edit):
    """Apply one edit; an edit whose path a previous edit broke is skipped."""
    try:
        if edit[0] == "swap":
            perm = doc["spaces"][edit[1]]["permutation"]
            perm[edit[2]], perm[edit[3]] = perm[edit[3]], perm[edit[2]]
            return
        *parents, last = edit[1]
        obj = doc
        for key in parents:
            obj = obj[key]
        if edit[0] == "del":
            del obj[last]
        else:
            obj[last] = edit[2]
    except (KeyError, IndexError, TypeError):
        pass


@pytest.fixture(scope="module")
def phi_bundle_doc():
    from orthokit import bundle
    from orthokit.build import build_phi_family
    return bundle.bundle_dict(build_phi_family(2, 5, 3, 5),
                              {"construction": "phi-family"})


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=FUZZ_EDITS)
def test_mutated_bundle_gives_a_verdict_or_exit_3(phi_bundle_doc, tmp_path,
                                                 assert_reads_like_json, edits):
    doc = json.loads(json.dumps(phi_bundle_doc))
    for edit in edits:
        _mutate(doc, edit)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert_reads_like_json(path.read_text())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path)])
    if code == 3:
        assert out.getvalue() == "" and "error [" in err.getvalue()
    else:
        assert code in (0, 1), (code, err.getvalue())
        assert json.loads(out.getvalue())["verdicts"]["holds"] is (code == 0)


@pytest.mark.parametrize("argv", [
    ("search", "exponent-scan", "--q", "2", "--r", "30", "--w-max", "3"),
    # no exponent gets tested, and the geometry is still refused
    ("search", "exponent-scan", "--q", "2", "--r", "30", "--w-max", "1"),
    ("search", "power-chain", "--q", "2", "--r", "30", "--w", "1"),
    ("bound", "--kind", "projective", "--dim", "29", "--q", "2"),
    ("construct", "askew", "--k", "30", "--q", "2", "--out", "never.json"),
], ids=["exponent-scan", "exponent-scan w<=1", "power-chain w=1", "bound",
        "construct askew"])
def test_oversize_projective_input_exits_2_before_its_labelling_field(
        capsys, monkeypatch, tmp_path, argv):
    # GF(2^30), or a map over its 2^30 points, would take gigabytes: a
    # field or an arange that large fails the test instead
    import numpy as np
    from orthokit import geom
    real_field, real_arange = geom.field_create, np.arange

    def small_fields_only(p, n, modulus=None):
        if p ** n > 10 ** 7:
            raise AssertionError(f"GF({p}^{n}) built for an oversize input")
        return real_field(p, n, modulus)

    def small_aranges_only(*args, **kwargs):
        if max(map(abs, args[:2]), default=0) > 10 ** 7:
            raise AssertionError(f"arange{args} for an oversize input")
        return real_arange(*args, **kwargs)

    monkeypatch.setattr(geom, "field_create", small_fields_only)
    monkeypatch.setattr(np, "arange", small_aranges_only)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert "BAD_DIMENSION" in err and "enumeration cap" in err
    assert "Traceback" not in err
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("kind, dim, q", [
    ("affine", 2, 9_999_991),
    ("affine", 1, 10_007),
    ("affine", 2, 2 ** 31 - 1),
    ("projective", 1, 2 ** 31 - 1),
])
def test_base_field_above_the_point_cap_exits_2_before_it_is_built(
        capsys, monkeypatch, kind, dim, q):
    # any geometry over GF(q) has at least q points; building GF(q) for
    # q near 10^7 takes a gigabyte, so a field that large fails the test
    from orthokit import geom
    real_field = geom.field_create

    def small_fields_only(p, n, modulus=None):
        if p ** n > 10 ** 7:
            raise AssertionError(f"GF({p}^{n}) built for an oversize input")
        return real_field(p, n, modulus)

    monkeypatch.setattr(geom, "field_create", small_fields_only)
    code, stdout, err = run(capsys, "bound", "--kind", kind, "--dim",
                            str(dim), "--q", str(q))
    assert code == 2 and stdout == ""
    assert "BAD_DIMENSION" in err and "enumeration cap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, exit_code", [
    (("bound", "--kind", "projective", "--dim", "1", "--q", "9973"), 2),
    (("construct", "askew", "--k", "1", "--q", "9973", "--out",
      "never.json"), 2),
    (("verify", "pg1.json"), 3),
], ids=["bound", "construct askew", "verify header"])
def test_pg1_labelling_field_above_its_cap_is_refused_before_it_is_built(
        capsys, monkeypatch, tmp_path, argv, exit_code):
    # PG(1, 9973) has 9,974 points, under the point cap, but its labelling
    # field GF(9973^2) has 99.5M elements: a field above 10^7 fails the test
    from orthokit import bundle, geom
    real_field = geom.field_create
    header = {"kind": "projective", "dim": 1, "q": 9973, "basis": [1, 2],
              "field": real_field(9973, 1).describe(), "labeling": {}}
    (tmp_path / "pg1.json").write_text(bundle.canonical_json(
        {"format_version": bundle.FORMAT_VERSION, "header": header,
         "spaces": [], "provenance": {}}))

    def small_fields_only(p, n, modulus=None):
        if p ** n > 10 ** 7:
            raise AssertionError(f"GF({p}^{n}) built for an oversize input")
        return real_field(p, n, modulus)

    monkeypatch.setattr(geom, "field_create", small_fields_only)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv)
    assert code == exit_code and stdout == ""
    assert "labeling field" in err and "enumeration cap" in err
    assert "Traceback" not in err
    assert not (tmp_path / "never.json").exists()


def _readme_commands():
    """The ``orthokit ...`` lines of README's "Command line" block, in
    order, as argument lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("orthokit ")]


def test_readme_command_block_runs_in_order(capsys, monkeypatch, tmp_path):
    # the bundles the first lines write are read by the later ones
    commands = _readme_commands()
    assert len(commands) == 15
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ORTHOKIT_CHECKPOINT_DIR", raising=False)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
