import hashlib
import io
import json
import pathlib
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings

from conftest import block_edge_instance
from sidonkit.cli import build_parser, main
from sidonkit.sidon import is_sidon


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_construct_singer(capsys):
    code, j = run_json(capsys, "construct", "singer", "3")
    assert code == 0
    assert j["group"] == [13]
    assert j["set"] == [[0], [1], [3], [9]]
    assert j["sidon"] is True
    assert j["perfect_difference_set"] is True


def test_construct_planar(capsys):
    code, j = run_json(capsys, "construct", "planar", "27", "--exponent", "4")
    assert code == 0
    assert j["group"] == [3, 3, 3, 3, 3, 3]
    assert j["size"] == 27
    assert j["sidon"] is True
    assert j["nondegenerate"] is True


def test_construct_rejects_non_prime_power(capsys):
    code, j = run_json(capsys, "construct", "singer", "6")
    assert code == 2
    assert j == {"error": "6 is not a prime power"}


def test_construct_rejects_even_parabola(capsys):
    code, j = run_json(capsys, "construct", "erdos_turan", "4")
    assert code == 2
    assert "odd characteristic" in j["error"]


def test_verify(capsys):
    code, j = run_json(capsys, "verify", "--group", "13", "--set", "0,1,3,9")
    assert code == 0
    assert j["sidon"] is True and j["perfect_difference_set"] is True
    code, j = run_json(capsys, "verify", "--group", "3,3", "--set", "0:0,1:0,0:1,2:2")
    assert code == 0
    assert j["sidon"] is False and j["witness"] is not None


@settings(deadline=None, max_examples=100)
@given(block_edge_instance())
def test_verify_prints_the_report_json(gs):
    """verify writes its T-set text around the rest of the payload; the
    line is the sorted json.dumps of the report's dict form."""
    G, S = gs
    argv = ["verify", "--group", ",".join(map(str, G.factors)),
            "--set", ",".join(":".join(map(str, s.coords)) for s in S)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    rep = is_sidon(G, S)
    want = rep.to_json()
    want["perfect_difference_set"] = rep.sidon and rep.t_set_size == 1
    assert json.loads(buf.getvalue()) == want
    assert buf.getvalue() == json.dumps(want, sort_keys=True) + "\n"


def test_cached_parser_answers_as_on_first_use(capsys):
    """build_parser is built once per process; reusing it, in either
    order of commands, changes no stdout and no exit code."""
    argvs = [["verify", "--group", "13", "--set", "0,1,3,9"],
             ["sparse", "log_primes", "--X", "10"],
             ["search", "--group", "5,25", "--budget", "100"],
             ["--help"]]

    def once(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    first = [once(argv) for argv in argvs]
    assert [code for code, _ in first] == [0, 0, 3, 0]
    assert [once(argv) for argv in reversed(argvs)] == first[::-1]
    assert build_parser() is build_parser()


def test_develop(capsys):
    code, j = run_json(capsys, "develop", "--group", "7", "--set", "0,1,3")
    assert code == 0
    assert j["n_points"] == 7 and j["n_lines"] == 7
    assert j["projective_plane"]["order"] == 2
    assert j["self_dual_via_negation"] is True


def test_develop_fails_fast(capsys):
    t0 = time.perf_counter()
    code, j = run_json(capsys, "develop", "--group", "16777216", "--set", "0,1")
    assert time.perf_counter() - t0 < 0.1
    assert code == 2
    assert list(j) == ["error"] and "exceeds the cap" in j["error"]


def test_construct_refuses_over_cap_before_building(capsys):
    # |G| = q(q - 1) > 2^32 for spence over GF(65537): the parameter formula
    # exceeds the verification cap, so no discrete log is taken
    t0 = time.perf_counter()
    code, j = run_json(capsys, "construct", "spence", "65537")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert j == {"error": "group order 4295032832 exceeds verification cap 16777216"}


def test_planes_list_show_orbits(capsys):
    code, j = run_json(capsys, "planes", "list")
    assert code == 0
    assert len(j["families"]) == 9
    code, j = run_json(capsys, "planes", "show", "--family", "i", "--q", "3")
    assert code == 0
    assert j["order"] == 13
    code, j = run_json(capsys, "planes", "orbits", "--family", "ii", "--q", "4")
    assert code == 0
    assert j["orbits"]["t"] == 3


def test_planes_extract_and_recover(capsys):
    code, j = run_json(capsys, "planes", "extract", "--family", "i", "--q", "4")
    assert code == 0
    assert j["sidon"] is True and len(j["extraction"]["S"]) == 5
    code, j = run_json(capsys, "planes", "recover", "--q", "3")
    assert code == 0
    rows = {r["family"]: r for r in j["recovery"]}
    assert rows["i"]["construction"] == "singer"
    assert all(r.get("equivalent") for r in j["recovery"] if "skipped" not in r)


def test_planes_stabilizer_obstruction(capsys):
    code, j = run_json(capsys, "planes", "extract", "--family", "vi", "--q", "3")
    assert code == 2
    assert "stabilizer" in j["error"]


def test_sparse_log_primes(capsys):
    code, j = run_json(capsys, "sparse", "log_primes", "--X", "10")
    assert code == 0
    assert j["values"] == [207, 329, 482, 583]


def test_sparse_framework(capsys):
    code, j = run_json(
        capsys, "sparse", "framework", "--X", "7", "--scale", "50", "--mods", "11"
    )
    assert code == 0
    assert j["group"] == [1970]
    assert j["values"] == [[231], [448], [474], [97]]
    assert j["verification"]["sidon"] is True


def test_sparse_perturb_with_offsets(capsys):
    code, j = run_json(
        capsys, "sparse", "perturb", "--values", "1,2,5,11", "--offsets", "0,2,1,0"
    )
    assert code == 0
    assert j["values"] == [5, 12, 26, 55]


def test_sparse_missing_parameter(capsys):
    code, j = run_json(capsys, "sparse", "log_primes")
    assert code == 2
    assert "needs --X" in j["error"]


def test_sparse_budget(capsys):
    code, j = run_json(
        capsys, "sparse", "framework", "--X", "10", "--scan-cap", "5"
    )
    assert code == 3
    assert j["budget_exhausted"] is True


def test_search_max(capsys):
    code, j = run_json(capsys, "search", "--group", "13")
    assert code == 0
    assert j["size"] == 4 and j["complete"] is True


def test_search_budget_exit(capsys):
    code, j = run_json(capsys, "search", "--group", "5,25", "--budget", "100")
    assert code == 3
    assert j["complete"] is False


def test_search_enumerate(capsys):
    code, j = run_json(capsys, "search", "--group", "7", "--enumerate", "--size", "3")
    assert code == 0
    assert j["count"] == 1 and j["classes"] == [[0, 1, 3]]


def test_search_sigma_csv(capsys):
    code, out = run(capsys, "search", "--sigma", "7,13")
    assert code == 0
    assert out == "n,sigma\n7,3\n13,4\n"


def test_conjecture(capsys):
    code, j = run_json(capsys, "conjecture", "t_subgroup", "--p", "3")
    assert code == 0
    assert j["ok"] is True and j["n_classes"] == 1
    code, j = run_json(capsys, "conjecture", "extendable", "--p", "2")
    assert code == 0
    assert j["ok"] is True


def test_orders(capsys):
    code, j = run_json(capsys, "orders", "21")
    assert code == 0
    assert j["admissible"] is True and j["solutions"] == [["q^2+q+1", 4]]
    code, j = run_json(capsys, "orders", "22")
    assert code == 0
    assert j["admissible"] is False and j["solutions"] == []


def test_output_is_sorted_json(capsys):
    code, out = run(capsys, "verify", "--group", "13", "--set", "0,1,3,9")
    j = json.loads(out)
    assert list(j) == sorted(j)


def test_workers_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--workers", "4", "search", "--group", "13"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_golden(capsys, case):
    """Byte-exact stdout and exit code of sparse, search and conjecture
    commands, as recorded in cli_golden.json."""
    code, out = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


VERIFY_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "verify_golden.json").read_text())


def _verify_id(case):
    group, S = case["argv"][2], case["argv"][4]
    return f"{group} {S}" if len(S) < 40 else f"{group} |S|={S.count(',') + 1}"


@pytest.mark.parametrize("case", VERIFY_GOLDEN, ids=_verify_id)
def test_verify_golden(capsys, case):
    """Byte-exact verify stdout and exit code, as recorded in
    verify_golden.json; outputs over 16 kB are pinned by length and sha256."""
    code, out = run(capsys, *case["argv"])
    if "stdout" in case:
        assert (code, out) == (case["code"], case["stdout"])
    else:
        data = out.encode()
        assert (code, len(data), hashlib.sha256(data).hexdigest()) == \
            (case["code"], case["bytes"], case["sha256"])
