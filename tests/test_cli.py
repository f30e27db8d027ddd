import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import compositions_upto, poset_json, random_poset, table_taus
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainorder
from chainorder import cli, normalform, polytopes
from chainorder.cli import main
from chainorder.errors import MAX_POINTS, BudgetError
from chainorder.posets import as_tau_shape, make_maximal_ranked, poset_from_json


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# a face budget above 2^(d+1) - 1, the fewest nonempty faces of a d-polytope,
# for every poset below (d <= 1000): fvector then meets the point budget
ABOVE_FACE_FLOOR = ["--budget-faces", str(2**1001)]


def program_taus(n):
    """The rows of ``table --n n`` as the program lists them: the walk over
    the partitions of n, less those `cli._in_table` leaves out."""
    return [tau for tau, _, _ in normalform.partition_f_vectors(n) if cli._in_table(tau)]


def test_gen_roundtrip(capsys):
    code, out, _ = run_main(capsys, "gen", "--tau", "2,1")
    assert code == 0
    p = poset_from_json(out)
    assert as_tau_shape(p) == (2, 1)


def test_gen_tau_40_40_digest(capsys):
    code, out, _ = run_main(capsys, "gen", "--tau", "40,40")  # 80 elements, 1,600 covers
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "ef42d1d4ed8acac6aaab25f3df0402ff036c675fe4fb10be31d3e9b9ce828510"


def test_gen_bytes_equal_the_standard_encoder(capsys):
    taus = [*compositions_upto(7), (40, 40), (3, 2, 4), (1,) * 20]
    for tau in taus:
        code, out, _ = run_main(capsys, "gen", "--tau", ",".join(map(str, tau)))
        assert code == 0 and out == poset_json(make_maximal_ranked(tau)) + "\n", tau


def _run_measured(*argv):
    """(exit code, peak RSS in KiB, wall seconds, sha256 of stdout) of the
    package's CLI run on ``argv`` in a child.  A child's peak RSS starts from
    its parent's at the fork, so the CLI runs under a small interpreter that
    takes the CLI's own rusage by ``os.wait4`` and hashes its stdout in chunks."""
    measure = (
        "import hashlib, os, subprocess, sys, time\n"
        "t = time.perf_counter(); proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE); h = hashlib.sha256()\n"
        "while chunk := proc.stdout.read(1 << 16): h.update(chunk)\n"
        "_, s, u = os.wait4(proc.pid, 0); print(os.waitstatus_to_exitcode(s), u.ru_maxrss, time.perf_counter() - t, h.hexdigest())"
    )
    src = str(Path(chainorder.__file__).resolve().parent.parent)
    code, maxrss, seconds, digest = subprocess.run(
        [sys.executable, "-c", measure, sys.executable, "-m", "chainorder.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout.split()
    return int(code), int(maxrss), float(seconds), digest


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_gen_tau_1500_1500_digest_in_flat_memory():
    # 3,000 elements and 2,250,000 covers, about half the default point
    # budget; built as a poset first, it took about 10 s and 956 MiB
    code, maxrss, seconds, digest = _run_measured("gen", "--tau", "1500,1500")
    assert code == 0
    assert digest == "e3c9bba83af3d36dd7d82f785ea005c89e89aae60c0fcdfa7b8af61b754c4ef4"
    assert maxrss <= 40 * 1024 and seconds <= 5


@pytest.mark.parametrize(
    "argv, size, budget",
    [
        (["--tau", "3000,3000"], 9_006_000, MAX_POINTS),
        (["--tau", "5000000"], 5_000_000, MAX_POINTS),  # one rank, no covers: its elements count
        (["--tau", "2,2", "--budget-points", "7"], 8, 7),
        (["--tau", "5", "--budget-points", "4"], 5, 4),
        (["--tau", "1,2,3", "--budget-points", "13"], 14, 13),
    ],
)
def test_gen_refuses_a_tau_past_the_point_budget_before_building_it(monkeypatch, capsys, argv, size, budget):
    def refuse(*args):
        raise AssertionError("the poset was built before its size was checked")

    monkeypatch.setattr(cli, "make_maximal_ranked", refuse)
    message = f"budget exceeded: {size} elements and covers exceed the point budget {budget}\n"
    assert run_main(capsys, "gen", *argv) == (2, "", message)


def test_gen_admits_a_tau_at_the_point_budget(monkeypatch, capsys):
    for tau, budget in [("2,2", "8"), ("5", "5"), ("1,2,3", "14")]:
        code, out, _ = run_main(capsys, "gen", "--tau", tau, "--budget-points", budget)
        assert code == 0 and out == run_main(capsys, "gen", "--tau", tau)[1]

    def refuse(*args):
        raise AssertionError("gen built a poset")

    monkeypatch.setattr(cli, "make_maximal_ranked", refuse)
    assert run_main(capsys, "gen", "--tau", "3,1,2")[1] == poset_json(make_maximal_ranked((3, 1, 2))) + "\n"


def test_gen_names_each_element_once(monkeypatch, capsys):
    calls = []
    name = cli.element_name

    def counted(e):
        calls.append(e)
        return name(e)

    monkeypatch.setattr(cli, "element_name", counted)
    code, out, _ = run_main(capsys, "gen", "--tau", "3,2,4")
    assert code == 0 and len(calls) == 9  # once per element, never per cover end
    assert out == poset_json(make_maximal_ranked((3, 2, 4))) + "\n"


def test_dd_order_json(capsys):
    code, out, _ = run_main(capsys, "dd", "--tau", "2,2", "--polytope", "order")
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == ["y1_1", "y1_2", "y2_1", "y2_2"]
    assert len(data["vertices"]) == 7
    assert len(data["ineqs"]) == 8
    assert data["eqs"] == []


def test_dd_json_digest(tmp_path, capsys):
    # chain-order at every cut, order and chain of every composition of n <= 5,
    # and both ends of one poset file that is not graded, pinned byte for byte
    poset_path = tmp_path / "p.json"
    poset_path.write_text(
        '{"elements": ["a", "b", "c", "d", "e"], "covers": [["a", "c"], ["b", "c"], ["b", "d"], ["c", "e"]]}'
    )
    runs = [
        ["--tau", ",".join(map(str, tau)), *extra]
        for tau in compositions_upto(5)
        for extra in [
            *(["--polytope", "chain-order", "--k", str(k)] for k in range(len(tau) + 1)),
            ["--polytope", "order"],
            ["--polytope", "chain"],
        ]
    ]
    runs += [["--poset", str(poset_path), "--polytope", polytope] for polytope in ("order", "chain")]
    digest = hashlib.sha256()
    for argv in runs:
        code, out, _ = run_main(capsys, "dd", *argv)
        assert code == 0 and json.loads(out)["eqs"] == [], argv
        digest.update(out.encode())
    assert len(runs) == 175
    assert digest.hexdigest() == "0bcada104d63db3ef49517fbc3351d4d6fa1176b9277009f8c57e22dd8a7f518"


# the small commands of every kind, each with its exit code, stdout, stderr
# and any file it writes; the tables that other digests pin are left out
SMALL_COMMANDS = [
    "table --n 0",
    "table --n 10",
    "table --n 10 --format json",
    "fvector --tau 2,2,1 --k 1",
    "fvector --tau 2,2,1 --k 3 --format json",
    "fvector --tau 2,2,1 --k 2 --method geometric --export-lattice lat.json",
    "fvector --poset p.json --method geometric",
    "fvector --poset p.json --polytope chain --method geometric --format json",
    "fvector --tau 2,2 --k 9",
    "fvector --tau 3 --k 0 --method geometric --budget-faces 27",
    "fvector --tau 3 --k 0 --method geometric --budget-faces 26",
    "fvector --tau 2,2 --k 1 --budget-points -1",
    "fvector --poset p.json --method both",
    "dd --tau 2,1,2 --polytope order",
    "dd --tau 2,1,2 --polytope chain",
    "dd --tau 2,1,2 --polytope chain-order --k 1",
    "dd --poset p.json --polytope chain",
    "dd --poset p.json",
    "dd --polytope chain-order --tau 2,2",
    "dd --tau 2,2 --polytope order --k 1",
    "dd --polytope chain-order --tau 12 --k 0 --budget-points 4095",
    "dd --tau 2,2,2 --polytope chain --budget-points 9",
    "gen --tau 2,1",
    "gen --tau=",
    "verify injectivity --tau 2,1,2 --json v.json",
    "verify monotone --tau 3,1,2 --json m.json",
    "verify injectivity --tau 2,1 --k 2",
    "verify injectivity --tau=",
]


def test_small_commands_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths: the poset file's name is printed
    assert run_main(capsys, "gen", "--tau", "2,1", "--output", "p.json")[0] == 0
    digest = hashlib.sha256()
    for command in SMALL_COMMANDS:
        code, out, err = run_main(capsys, *command.split())
        digest.update(f"{command}\0{code}\0{out}\0{err}\0".encode())
        for written in ("lat.json", "v.json", "m.json"):
            if (tmp_path / written).exists():
                digest.update((tmp_path / written).read_bytes())
                (tmp_path / written).unlink()
    assert digest.hexdigest() == "3a8d6378b0ac9190de895eb5399f00a0d3db0e206c5fde52b4a380b8150ae278"


def test_dd_chain_order(capsys):
    code, out, _ = run_main(capsys, "dd", "--tau", "2,2", "--polytope", "chain-order", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 7
    assert len(data["ineqs"]) == 8


def test_fvector_segment_csv(capsys):
    code, out, _ = run_main(capsys, "fvector", "--tau", "1", "--k", "0")
    assert code == 0
    assert out == "1,0,order,2\n"


def test_fvector_both_methods_quoted_tau(capsys):
    code, out, _ = run_main(capsys, "fvector", "--tau", "2,2,2", "--k", "1", "--method", "both")
    assert code == 0
    assert out.startswith('"2,2,2",1,chain-order,')
    row = out.strip().rsplit(",", 6)
    assert [int(x) for x in row[1:]] == list(__import__("chainorder").f_vector_normal_form((2, 2, 2), 1))


def test_fvector_flagship_row(capsys):
    code, out, _ = run_main(capsys, "fvector", "--tau", "2,2,2,2,2", "--k", "5", "--method", "both")
    assert code == 0
    assert out.strip().endswith(",285,42")


def test_fvector_json_format(capsys):
    code, out, _ = run_main(capsys, "fvector", "--tau", "2,2", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["polytope"] == "chain"
    assert data["f"] == [7, 17, 18, 8]


def test_fvector_export_lattice(tmp_path, capsys):
    out_path = tmp_path / "lattice.json"
    code, _, _ = run_main(
        capsys, "fvector", "--tau", "1,1", "--k", "0", "--method", "geometric",
        "--export-lattice", str(out_path),
    )
    assert code == 0
    # triangle: bottom + 3 vertices + 3 edges + top, ids by dimension and then
    # vertex mask, covers sorted
    faces = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
    dims = [-1, 0, 0, 0, 1, 1, 1, 2]
    assert json.loads(out_path.read_text()) == {
        "faces": [{"vertices": f, "dim": d} for f, d in zip(faces, dims)],
        "covers": [
            [0, 1], [0, 2], [0, 3], [1, 4], [1, 5], [2, 4],
            [2, 6], [3, 5], [3, 6], [4, 7], [5, 7], [6, 7],
        ],
        "bottom": 0,
        "top": 7,
    }
    # a 4-polytope with 68 faces: its ids and cover order, pinned byte for byte
    code, _, _ = run_main(
        capsys, "fvector", "--tau", "2,2,1", "--k", "3", "--method", "geometric",
        "--export-lattice", str(out_path),
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == "cd0414538d6f1e07391cb6d2a35783246d239e2638b4628d98fd2865e1ea56b7"
    # a 7-polytope with 2,656 faces and 13,549 covers
    code, _, _ = run_main(
        capsys, "fvector", "--tau", "3,2,3", "--k", "2", "--method", "geometric",
        "--export-lattice", str(out_path),
    )
    assert code == 0
    data = out_path.read_bytes()
    assert len(data) == 779_259
    assert hashlib.sha256(data).hexdigest() == "3f954069b1a346a3b09783bae7dd1f488745bf60c87dd4be5ed44959bef93866"


def test_fvector_poset_file(tmp_path, capsys):
    poset_path = tmp_path / "p.json"
    code, out, _ = run_main(capsys, "gen", "--tau", "2,2", "--output", str(poset_path))
    assert code == 0
    code, out, _ = run_main(
        capsys, "fvector", "--poset", str(poset_path), "--method", "geometric", "--polytope", "chain"
    )
    assert code == 0
    assert out.endswith(",chain,7,17,18,8\n")


def test_fvector_config_errors(tmp_path, capsys):
    assert run_main(capsys, "fvector", "--tau", "2,2")[0] == 2  # missing k
    assert run_main(capsys, "fvector", "--tau", "0,2", "--k", "0")[0] == 2
    assert run_main(capsys, "fvector", "--tau", "2,2", "--k", "9")[0] == 2
    poset_path = tmp_path / "p.json"
    run_main(capsys, "gen", "--tau", "2,1", "--output", str(poset_path))
    # each exits 2 with one error line and no output; an empty --tau gives none
    for argv, message in [
        (["fvector", "--k", "1"], "fvector needs --tau or --poset"),
        (["dd"], "dd needs --tau or --poset"),
        (["verify", "injectivity", "--tau="], "verify needs --tau"),
        (["gen", "--tau="], "gen needs --tau"),
        (["dd", "--polytope", "chain-order", "--tau", "2,2"], "chain-order needs --tau and --k"),
        (["dd", "--polytope", "chain-order", "--poset", str(poset_path), "--k", "1"], "chain-order needs --tau and --k"),
    ]:
        code, out, err = run_main(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_fvector_poset_rejects_normalform(tmp_path, capsys):
    poset_path = tmp_path / "p.json"
    run_main(capsys, "gen", "--tau", "1,1", "--output", str(poset_path))
    code, _, err = run_main(capsys, "fvector", "--poset", str(poset_path), "--method", "both")
    assert code == 2
    assert "geometric" in err


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["fvector", "--tau", "2,2", "--k", "1", "--method", "normalform"], ["--export-lattice", "LATTICE"]),
        (["fvector", "--poset", "POSET", "--method", "geometric"], ["--k", "1"]),
        (["fvector", "--poset", "POSET", "--method", "geometric"], ["--tau", "2,2"]),
        (["fvector", "--tau", "2,2", "--k", "1"], ["--polytope", "chain"]),
        (["dd", "--poset", "POSET"], ["--tau", "3,3"]),
        (["dd", "--polytope", "chain-order", "--tau", "2,2", "--k", "1"], ["--poset", "POSET"]),
        (["dd", "--tau", "2,2", "--polytope", "order"], ["--k", "1"]),
        (["verify", "monotone", "--tau", "2,2"], ["--k", "1"]),
    ],
)
def test_flags_the_command_would_ignore_exit_two(tmp_path, capsys, argv, extra):
    """Each run exits 0 without ``extra`` and 2, with one error line and no
    output, with it."""
    poset_path = tmp_path / "p.json"
    run_main(capsys, "gen", "--tau", "2,1", "--output", str(poset_path))
    paths = {"POSET": str(poset_path), "LATTICE": str(tmp_path / "lattice.json")}
    argv, extra = ([paths.get(a, a) for a in args] for args in (argv, extra))
    assert run_main(capsys, *argv)[0] == 0
    code, out, err = run_main(capsys, *argv, *extra)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "lattice.json").exists()


def test_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "f_vector_normal_form", lambda tau, k: (99,))
    code, _, err = run_main(capsys, "fvector", "--tau", "1,1", "--k", "0", "--method", "both")
    assert code == 1
    assert "mismatch" in err


def test_table_mismatch_names_tau_k_and_vectors(monkeypatch, capsys):
    code, expected, _ = run_main(capsys, "table", "--n", "5", "--method", "both")
    assert code == 0
    walk = normalform.partition_f_vectors
    monkeypatch.setattr(cli, "partition_f_vectors", lambda n: ((tau, (99,), (99,)) for tau, _, _ in walk(n)))
    code, out, err = run_main(capsys, "table", "--n", "5", "--method", "both")
    assert code == 1
    assert out == expected
    assert "mismatch at tau=2,2,1, k=0: geometric (8, 24, 35, 26, 9) vs normal form (99,)" in err


def _poset_file_exit(tmp_path, capsys, text):
    poset_path = tmp_path / "p.json"
    poset_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_main(capsys, "fvector", "--poset", str(poset_path), "--method", "geometric")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_cyclic_poset_file_exits_two(tmp_path, capsys):
    _poset_file_exit(tmp_path, capsys, '{"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}')


def test_self_cover_poset_file_exits_two(tmp_path, capsys):
    err = _poset_file_exit(tmp_path, capsys, '{"elements": ["a"], "covers": [["a", "a"]]}')
    assert err == f"error: bad poset file {tmp_path / 'p.json'}: cover ('a', 'a') is a self-cover\n"


def test_non_json_poset_file_exits_two(tmp_path, capsys):
    _poset_file_exit(tmp_path, capsys, "not json")


def test_malformed_poset_json_exits_two(tmp_path, capsys):
    _poset_file_exit(tmp_path, capsys, '{"elements": ["a"]}')  # KeyError
    _poset_file_exit(tmp_path, capsys, "[1, 2]")  # TypeError
    _poset_file_exit(tmp_path, capsys, '{"elements": ["a"], "covers": [["a", "z"]]}')


def test_non_utf8_poset_file_exits_two(tmp_path, capsys):
    assert "codec can't decode" in _poset_file_exit(tmp_path, capsys, b"\xff\xfe{")


def test_deeply_nested_poset_json_exits_two(tmp_path, capsys):
    assert "recursion" in _poset_file_exit(tmp_path, capsys, "[" * 100000)


@pytest.mark.parametrize(
    "argv",
    [
        ["fvector", "--method", "geometric", "--poset"],
        ["gen", "--tau", "2", "--output"],
        ["fvector", "--tau", "1", "--k", "0", "--method", "geometric", "--export-lattice"],
        ["verify", "monotone", "--tau", "2,1", "--json"],
        ["verify", "injectivity", "--tau", "2,1", "--json"],
    ],
)
def test_directory_as_file_exits_two(tmp_path, capsys, argv):
    code, out, err = run_main(capsys, *argv, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "elements, first, second", [('[1, "1"]', 1, "1"), ('[null, "None"]', None, "None"), ('["a", 1, "b", "1"]', 1, "1")]
)
def test_dd_poset_elements_must_print_apart(tmp_path, capsys, elements, first, second):
    # dd prints each element by its name: two with one name would be one variable
    poset_path = tmp_path / "p.json"
    poset_path.write_text(f'{{"elements": {elements}, "covers": []}}')
    code, out, err = run_main(capsys, "dd", "--poset", str(poset_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad poset file {poset_path}: elements ") and err.count("\n") == 1
    assert f"elements {first!r} and {second!r} print as one name" in err


def test_poset_json_fields_must_be_arrays(tmp_path, capsys):
    for text in (
        '{"elements": "ab", "covers": []}',
        '{"elements": ["a", "b"], "covers": {}}',
        '{"elements": ["a", "b"], "covers": ["ab"]}',
        '{"elements": ["a", "b"], "covers": [["a", "b", "a"]]}',
    ):
        assert "array" in _poset_file_exit(tmp_path, capsys, text)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_names = st.text("abc", max_size=2)
_poset_like = st.fixed_dictionaries(
    {
        "elements": st.lists(_names, max_size=5) | _json_values,
        "covers": st.lists(st.lists(_names, min_size=1, max_size=3), max_size=5) | _json_values,
    }
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40) | (_json_values | _poset_like).map(lambda v: json.dumps(v).encode()))
@example(b'{"elements": ["a", "b"], "covers": [["a", "b"]]}')
@example(b"\x80")
def test_random_poset_files_exit_zero_or_two(tmp_path_factory, data):
    poset_path = tmp_path_factory.getbasetemp() / "fuzz.json"
    poset_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["fvector", "--poset", str(poset_path), "--polytope", "chain", "--method", "geometric"])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_table_rejects_n_below_one(capsys):
    for n in ("0", "-3"):
        code, out, err = run_main(capsys, "table", "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_fvector_budget_faces_boundary(tmp_path, capsys):
    # tau = 3 is an antichain: its order polytope is the 3-cube, 27 nonempty faces;
    # the count knows them all, the lattice the faces down to the vertices
    for extra, found in (([], "27"), (["--export-lattice", str(tmp_path / "cube.json")], "at least 27")):
        argv = ["fvector", "--tau", "3", "--k", "0", "--method", "geometric", *extra]
        assert run_main(capsys, *argv, "--budget-faces", "27")[:2] == (0, "3,0,order,8,12,6\n")
        code, out, err = run_main(capsys, *argv, "--budget-faces", "26")
        assert (code, out) == (2, "")
        assert err == f"budget exceeded: face budget 26 exceeded: the polytope has {found} nonempty faces\n"


def test_fvector_refuses_by_the_dimension_before_any_vertex(monkeypatch, capsys):
    # a d-polytope has at least 2^(d+1) - 1 nonempty faces, and d = |P|: the
    # 3-cube's floor is 15, so a budget of 14 is refused before the vertices,
    # and one of 15 by the count of its 27 faces
    argv = ["fvector", "--tau", "3", "--k", "0", "--method", "geometric", "--budget-faces"]
    with monkeypatch.context() as m:
        m.setattr(cli, "chain_order_dd", lambda *a, **kw: pytest.fail("vertices built"))
        code, out, err = run_main(capsys, *argv, "14")
    assert (code, out, err) == (2, "", "budget exceeded: face budget 14 exceeded: the polytope has at least 15 nonempty faces\n")
    code, out, err = run_main(capsys, *argv, "15")
    assert (code, out, err) == (2, "", "budget exceeded: face budget 15 exceeded: the polytope has 27 nonempty faces\n")
    # at the default budget every d >= 22 is refused; a bad cut is reported first
    floor = "face budget 5000000 exceeded: the polytope has at least 8388607 nonempty faces"
    for method in ("geometric", "both"):
        code, out, err = run_main(capsys, "fvector", "--tau", "11,11", "--k", "0", "--method", method)
        assert (code, out, err) == (2, "", f"budget exceeded: {floor}\n")
    code, out, err = run_main(capsys, "fvector", "--tau", "11,11", "--k", "3", "--method", "geometric")
    assert (code, out, err) == (2, "", "error: k must be in [0, 2], got 3\n")
    assert run_main(capsys, "fvector", "--tau", "11,11", "--k", "0", "--method", "normalform")[0] == 0


def test_fvector_refuses_a_136_element_poset_within_seconds(tmp_path):
    # its order polytope has 1,564 vertices, whose walk ran about 12 s before the
    # face budget stopped it; its dimension alone refuses it, before any vertex
    path = tmp_path / "p136.json"
    path.write_text(poset_json(random_poset(random.Random(3), 136)))
    src = str(Path(chainorder.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "chainorder.cli", "fvector", "--poset", str(path), "--method", "geometric"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=10,
    )
    floor = f"face budget 5000000 exceeded: the polytope has at least {2**137 - 1} nonempty faces"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"budget exceeded: {floor}\n")


def test_chain_poset_order_polytope_is_a_simplex(tmp_path, capsys):
    # the order polytope of an n-element chain is the n-simplex, with 2^(n+1) - 1
    # nonempty faces: n = 20 is counted, and n = 40 is refused by the default face
    # budget, from its dimension before any vertex is built
    path = tmp_path / "chain.json"
    for n in (20, 40):
        assert run_main(capsys, "gen", "--tau", ",".join(["1"] * n), "--output", str(path))[0] == 0
        code, out, err = run_main(capsys, "fvector", "--poset", str(path), "--method", "geometric")
        if n == 20:
            assert code == 0
            assert [int(x) for x in out.split(",")[3:]] == [math.comb(21, i + 1) for i in range(20)]
        else:
            assert (code, out) == (2, "")
            assert err == f"budget exceeded: face budget 5000000 exceeded: the polytope has at least {2**41 - 1} nonempty faces\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fvector", "--tau", "2,2", "--k", "1"],
        ["table", "--n", "4"],
        ["dd", "--tau", "2,2", "--polytope", "chain-order", "--k", "1"],
        ["gen", "--tau", "2,2"],
    ],
)
def test_negative_budgets_exit_two_before_any_work(capsys, argv):
    flags = ["--budget-points"] if argv[0] in ("dd", "gen") else ["--budget-faces", "--budget-points"]
    for flag in flags:
        code, out, err = run_main(capsys, *argv, flag, "-1")
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be >= 0, got -1\n"
    assert run_main(capsys, *argv)[0] == 0


def test_poset_budget_points_bounds_antichain_subsets(tmp_path, capsys):
    # one antichain of 8 elements: 2^8 = 256 vertices, refused at budget 100
    # once the search holds 8 > (100).bit_length() elements
    poset_path = tmp_path / "antichain8.json"
    poset_path.write_text(json.dumps({"elements": [f"a{i}" for i in range(8)], "covers": []}))
    fvector = ["fvector", "--poset", str(poset_path), "--polytope", "chain", "--method", "geometric"]
    dd = ["dd", "--poset", str(poset_path)]
    for argv in (fvector, dd):
        code, out, err = run_main(capsys, *argv, "--budget-points", "100")
        assert (code, out) == (2, "")
        assert err == "budget exceeded: at least 256 vertices exceed the point budget 100\n"
        assert run_main(capsys, *argv)[0] == 0


def test_chain_order_budget_points_bounds_search_nodes(capsys):
    # n = 23 variables and 83 vertices
    code, out, _ = run_main(capsys, "dd", "--polytope", "chain-order", "--tau", "4,4,4,4,4,3", "--k", "2")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 83
    # the 12-cube has 4096 vertices, more than a budget of 1000
    code, out, err = run_main(
        capsys, "dd", "--polytope", "chain-order", "--tau", "12", "--k", "0", "--budget-points", "1000"
    )
    assert (code, out) == (2, "")
    assert err.startswith("budget exceeded: ")
    assert err.count("\n") == 1


def test_poset_budget_points_bounds_chain_rows(tmp_path, capsys):
    # gen --tau 4^9 has 36 elements and 4^9 maximal chains: 262,180 rows,
    # counted from the covers and refused before any row is built
    poset_path = tmp_path / "f49.json"
    assert run_main(capsys, "gen", "--tau", ",".join(["4"] * 9), "--output", str(poset_path))[0] == 0
    for argv in (
        ["dd", "--poset", str(poset_path), "--polytope", "chain"],
        ["fvector", "--poset", str(poset_path), "--polytope", "chain", "--method", "geometric", *ABOVE_FACE_FLOOR],
    ):
        code, out, err = run_main(capsys, *argv, "--budget-points", "1000")
        assert (code, out) == (2, "")
        assert err == "budget exceeded: 262180 facet rows exceed the point budget 1000\n"
    # 3,3,3,3 has 4 * 2^3 = 32 antichain subsets, 12 + 3^4 = 93 chain rows
    # and 3 + 27 + 3 = 33 order rows
    assert run_main(capsys, "gen", "--tau", "3,3,3,3", "--output", str(poset_path))[0] == 0
    for polytope, rows in (("chain", 93), ("order", 33)):
        argv = ["dd", "--poset", str(poset_path), "--polytope", polytope]
        code, out, _ = run_main(capsys, *argv, "--budget-points", str(rows))
        assert code == 0 and len(json.loads(out)["ineqs"]) == rows
        code, out, err = run_main(capsys, *argv, "--budget-points", str(rows - 1))
        assert (code, out) == (2, "")
        assert err.startswith(f"budget exceeded: {rows} facet rows ")


def test_tau_budget_points_bounds_chain_order_rows(capsys):
    # ranks 1..8 of 4^9 as chain part: 32 + 4^8 * 4 + 4 = 262,180 rows
    tau = ",".join(["4"] * 9)
    for argv in (
        ["dd", "--polytope", "chain-order", "--tau", tau, "--k", "8"],
        ["fvector", "--tau", tau, "--k", "8", "--method", "geometric", *ABOVE_FACE_FLOOR],
    ):
        code, out, err = run_main(capsys, *argv, "--budget-points", "1000")
        assert (code, out) == (2, "")
        assert err == "budget exceeded: 262180 facet rows exceed the point budget 1000\n"
    # the table's first polytope, O(2,2,1), has 9 rows; the table names the row
    code, out, err = run_main(capsys, "table", "--n", "5", "--method", "geometric", "--budget-points", "8")
    assert (code, out) == (2, "")
    assert err == "budget exceeded: at tau=2,2,1, k=0 (order): 9 facet rows exceed the point budget 8\n"
    # the 12-cube has 24 rows and 4,096 vertices: there the vertices bind
    argv = ["dd", "--polytope", "chain-order", "--tau", "12", "--k", "0"]
    code, out, _ = run_main(capsys, *argv, "--budget-points", "4096")
    assert code == 0 and len(json.loads(out)["vertices"]) == 4096 and len(json.loads(out)["ineqs"]) == 24
    code, out, err = run_main(capsys, *argv, "--budget-points", "4095")
    assert (code, out, err) == (2, "", "budget exceeded: 4096 vertices exceed the point budget 4095\n")
    # the first polytope of the n = 6 table, O(2,2,1,1), has 207 nonempty faces
    code, out, err = run_main(capsys, "table", "--n", "6", "--budget-faces", "50")
    assert (code, out) == (2, "")
    assert err == "budget exceeded: at tau=2,2,1,1, k=0 (order): face budget 50 exceeded: the polytope has 207 nonempty faces\n"


def test_chain_order_reaches_tau_rows_of_more_than_30_elements(capsys):
    # a 40-element chain cut at 20: a simplex, as O(P) and C(P) of a chain are
    tau = ",".join(["1"] * 40)
    for argv in (["--polytope", "chain-order", "--k", "20"], ["--polytope", "order"]):
        code, out, _ = run_main(capsys, "dd", "--tau", tau, *argv)
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 41


def test_poset_over_antichain_search_limit_exits_two(tmp_path, capsys):
    # 129 elements: the antichain's 2^129 subsets exceed the default budget;
    # the chain has 129 singleton antichains, and both polytopes are simplices
    names = [f"e{i}" for i in range(129)]
    chain = [[a, b] for a, b in zip(names, names[1:])]
    poset_path = tmp_path / "p129.json"
    poset_path.write_text(json.dumps({"elements": names, "covers": []}))
    for argv in (
        ["dd", "--poset", str(poset_path)],
        ["dd", "--poset", str(poset_path), "--polytope", "chain"],
        ["fvector", "--poset", str(poset_path), "--method", "geometric", *ABOVE_FACE_FLOOR],
        ["fvector", "--poset", str(poset_path), "--polytope", "chain", "--method", "geometric", *ABOVE_FACE_FLOOR],
    ):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "budget exceeded: at least 16777216 vertices exceed the point budget 4194304\n"
    poset_path.write_text(json.dumps({"elements": names, "covers": chain}))
    units = [tuple(int(i == j) for i in range(129)) for j in range(129)]
    up_sets = [tuple(int(i >= j) for i in range(129)) for j in range(129)]
    for polytope, vertices in (("order", up_sets), ("chain", units)):
        code, out, _ = run_main(capsys, "dd", "--poset", str(poset_path), "--polytope", polytope)
        assert code == 0
        got = [tuple(v) for v in json.loads(out)["vertices"]]
        assert len(got) == 130 and sorted(got) == sorted(vertices + [(0,) * 129])


def test_wide_tau_is_refused_by_its_vertices_before_any_row_is_built(monkeypatch, capsys):
    # O(200,200) has 40,400 facet rows, within the point budget, and a rank of
    # 200 elements, whose subsets the vertex search refuses before a row is built
    def no_rows(p, chain_part):
        raise AssertionError("facet rows built before the vertex search")

    monkeypatch.setattr(polytopes, "_build_rows", no_rows)
    code, out, err = run_main(capsys, "dd", "--tau", "200,200", "--polytope", "order")
    assert (code, out, err) == (2, "", "budget exceeded: at least 16777216 vertices exceed the point budget 4194304\n")


def test_poset_antichain_budget_is_checked_during_the_search(tmp_path, capsys):
    # 64 disjoint 2-element chains have 2^64 maximal antichains of 64 elements;
    # the search stops at an antichain of 11 elements, which has 2048 subsets
    names = [f"a{i}" for i in range(128)]
    poset_path = tmp_path / "chains64.json"
    poset_path.write_text(json.dumps({"elements": names, "covers": [names[i : i + 2] for i in range(0, 128, 2)]}))
    for polytope in ("order", "chain"):
        argv = ["dd", "--poset", str(poset_path), "--polytope", polytope, "--budget-points", "1000"]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "budget exceeded: at least 2048 vertices exceed the point budget 1000\n"
    # a 1000-element antichain is refused by the antichain size, far from any recursion limit
    poset_path.write_text(json.dumps({"elements": [f"e{i}" for i in range(1000)], "covers": []}))
    fvector = ["fvector", "--poset", str(poset_path), "--method", "geometric", *ABOVE_FACE_FLOOR]
    for argv in (["dd", "--poset", str(poset_path)], fvector):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("budget exceeded: at least ") and err.count("\n") == 1
    # a budget of exactly the 2^8 vertices of the 8-antichain is enough
    poset_path.write_text(json.dumps({"elements": [f"a{i}" for i in range(8)], "covers": []}))
    code, out, _ = run_main(capsys, "dd", "--poset", str(poset_path), "--budget-points", "256")
    assert code == 0 and len(json.loads(out)["vertices"]) == 256
    code, out, err = run_main(capsys, "dd", "--poset", str(poset_path), "--budget-points", "255")
    assert (code, out, err) == (2, "", "budget exceeded: 256 vertices exceed the point budget 255\n")


def test_verify_monotone(capsys, tmp_path):
    json_path = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys, "verify", "monotone", "--tau", "2,2,2", "--json", str(json_path)
    )
    assert code == 0
    assert "monotone=True" in out
    data = json.loads(json_path.read_text())
    assert data["ok"] is True
    assert data["f_vectors"]["0"][0] == data["f_vectors"]["3"][0]


def test_verify_injectivity(capsys):
    code, out, _ = run_main(capsys, "verify", "injectivity", "--tau", "2,2", "--k", "0")
    assert code == 0
    assert "injective=True" in out and "codim_preserved=True" in out


def test_verify_monotone_drop_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(normalform, "f_vector_normal_form", lambda tau, k: (5 - k, 7))
    code, out, err = run_main(capsys, "verify", "monotone", "--tau", "2,1")
    assert (code, err) == (1, "")
    assert out.endswith("monotone=False\nf_0 drops from 5 to 4 between cuts 0 and 1\nf_0 drops from 4 to 3 between cuts 1 and 2\n")


def test_verify_injectivity_over_the_face_budget_exits_two(capsys):
    # 9,565,939 forms at this cut, counted before any is built
    code, out, err = run_main(capsys, "verify", "injectivity", "--tau", "14,1", "--k", "1")
    message = "face budget 5000000 exceeded: the polytope has 9565939 nonempty faces"
    assert (code, out, err) == (2, "", f"budget exceeded: {message}\n")


def test_verify_injectivity_takes_an_order_side_of_eleven_elements(capsys):
    code, out, err = run_main(capsys, "verify", "injectivity", "--tau", ",".join(["1"] * 11), "--k", "0")
    assert (code, err) == (0, "")
    assert out.startswith("cut 0 -> 1: injective=True codim_preserved=True failures=0\n")


def test_verify_injectivity_rejects_top_cut(capsys):
    # k = len(tau) is a valid cut, but there is no cut above it to inject into
    code, out, err = run_main(capsys, "verify", "injectivity", "--tau", "2,1", "--k", "2")
    assert (code, out, err) == (2, "", "error: verification needs a cut below the top rank 2, got k=2\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        *[
            (["fvector", "--tau", "2,2", "--k", "9", "--method", method], "k must be in [0, 2], got 9")
            for method in ("geometric", "normalform", "both")
        ],
        (["dd", "--polytope", "chain-order", "--tau", "2,2", "--k", "-1"], "k must be in [0, 2], got -1"),
        (["verify", "injectivity", "--tau", "2,1", "--k", "-1"], "k must be in [0, 2], got -1"),
    ],
)
def test_bad_cut_exits_two_with_the_library_message(capsys, argv, message):
    assert run_main(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_injectivity_all_cuts(capsys):
    code, out, _ = run_main(capsys, "verify", "injectivity", "--tau", "2,1,1")
    assert code == 0
    assert out.count("injective=True") == 3


def test_table_selects_figure_rows():
    rows = program_taus(10)
    assert len(rows) == 28
    assert rows[0] == (2, 2, 1, 1, 1, 1, 1, 1)
    assert rows[3] == (2, 2, 2, 2, 2)
    assert rows[-1] == (7, 2, 1)
    # at least three ranks, at least two ranks of size >= 2, no repeats
    assert all(len(t) >= 3 and sum(x >= 2 for x in t) >= 2 for t in rows)
    assert all(tuple(sorted(t, reverse=True)) == t for t in rows)
    assert len(set(rows)) == 28


def test_table_small(capsys):
    code, out, _ = run_main(capsys, "table", "--n", "6", "--method", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # three rows, order and chain each
    assert lines[0].startswith('"2,2,1,1",0,order,')
    assert lines[1].startswith('"2,2,1,1",4,chain,')
    assert lines[-1].startswith('"3,2,1",3,chain,')


def test_table_json(capsys):
    code, out, _ = run_main(capsys, "table", "--n", "5", "--format", "json", "--method", "normalform")
    assert code == 0
    data = json.loads(out)
    assert [d["tau"] for d in data] == ["2,2,1", "2,2,1"]
    assert data[0]["polytope"] == "order" and data[1]["polytope"] == "chain"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tables_without_rows_are_empty(capsys, n):
    # every partition of n <= 4 into three ranks has at most one rank of size >= 2
    assert program_taus(n) == []
    for method in ("geometric", "normalform", "both"):
        argv = ("table", "--n", str(n), "--method", method)
        assert run_main(capsys, *argv) == (0, "", "")
        assert run_main(capsys, *argv, "--format", "json") == (0, "[]\n", "")


@pytest.mark.parametrize("method", ["geometric", "normalform", "both"])
def test_table_json_is_the_csv_rows_dumped_indented(capsys, method):
    # the JSON list is written one object at a time, with json.dumps's bytes
    for n in range(1, 13):
        code, out, _ = run_main(capsys, "table", "--n", str(n), "--method", method)
        assert code == 0
        rows = [
            {"tau": tau, "k": int(k), "polytope": label, "f": [int(f) for f in fv]}
            for tau, k, label, *fv in csv.reader(io.StringIO(out))
        ]
        expected = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert run_main(capsys, "table", "--n", str(n), "--method", method, "--format", "json") == (0, expected, "")


@pytest.mark.parametrize("method", ["normalform", "both"])
def test_table_streams_only_normal_form_rows(monkeypatch, method):
    # when the walk yields a partition, every earlier kept tau's two rows are
    # out already; rows that can spend a budget are all built first
    out, seen, walk = io.StringIO(), [], cli.partition_f_vectors
    taus = table_taus(9)

    def watched(n):
        for row in walk(n):
            seen.append((row[0], out.getvalue()))
            yield row

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(cli, "partition_f_vectors", watched)
    assert main(["table", "--n", "9", "--method", method]) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert len(lines) == 2 * len(taus)
    assert len(seen) == 30  # p(9): the walk reaches every partition, kept or not
    for tau, written in seen:
        before = sum(1 for t in taus if t < tau)
        assert written == ("".join(lines[: 2 * before]) if method == "normalform" else "")
    assert seen[-1] == ((9,), "".join(lines) if method == "normalform" else "")


def test_table_output_directory_exits_two_before_any_count(tmp_path, monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("an f-vector was counted before --output was opened")

    monkeypatch.setattr(cli, "partition_f_vectors", refuse)
    code, out, err = run_main(capsys, "table", "--n", "10", "--method", "normalform", "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


@pytest.mark.parametrize("method", ["geometric", "both"])
def test_table_unwritable_output_is_refused_before_any_row(tmp_path, monkeypatch, capsys, method):
    # the rows of these methods are all built before the output is opened
    def refuse(*args):
        raise AssertionError("a row was built before --output was checked")

    cases = [tmp_path, tmp_path / "missing" / "table.csv"]
    expected = []
    for path in cases:
        with pytest.raises(OSError) as exc:
            open(path, "w")
        expected.append(f"error: {exc.value}\n")
    monkeypatch.setattr(cli, "_pipelines_fvector", refuse)
    monkeypatch.setattr(cli, "partition_f_vectors", refuse)
    for path, message in zip(cases, expected):
        code, out, err = run_main(capsys, "table", "--n", "14", "--method", method, "--output", str(path))
        assert (code, out, err) == (2, "", message)
    # a new file in a directory that does not take it is refused, and not created
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    new = tmp_path / "table.csv"
    code, out, err = run_main(capsys, "table", "--n", "14", "--method", method, "--output", str(new))
    assert (code, out, err) == (2, "", f"error: [Errno 13] Permission denied: '{new}'\n")
    assert not new.exists()


def test_table_budget_leaves_an_existing_output_untouched(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    out_path.write_text("an earlier table\n")
    for method in ("geometric", "both"):
        code, out, err = run_main(
            capsys, "table", "--n", "6", "--method", method, "--budget-faces", "50", "--output", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err == "budget exceeded: at tau=2,2,1,1, k=0 (order): face budget 50 exceeded: the polytope has 207 nonempty faces\n"
        assert out_path.read_text() == "an earlier table\n"
    code, out, _ = run_main(capsys, "table", "--n", "6", "--method", "both", "--output", str(out_path))
    assert (code, out) == (0, "")
    assert out_path.read_text() == run_main(capsys, "table", "--n", "6", "--method", "both")[1]


@pytest.mark.parametrize(
    "argv, side_flag, stage",
    [
        (["fvector", "--tau", "3,2,3", "--k", "2", "--method", "geometric"], "--export-lattice", "_pipelines_fvector"),
        (["verify", "monotone", "--tau", "2,1"], "--json", "verify_monotone"),
    ],
)
def test_side_file_and_output_are_checked_before_the_work(tmp_path, monkeypatch, capsys, argv, side_flag, stage):
    def refuse(*args):
        raise AssertionError("the work ran before the output paths were checked")

    monkeypatch.setattr(cli, stage, refuse)
    with pytest.raises(OSError) as exc:
        open(tmp_path, "w")
    message = f"error: {exc.value}\n"
    side = tmp_path / "side.json"
    assert run_main(capsys, *argv, side_flag, str(side), "--output", str(tmp_path)) == (2, "", message)
    assert not side.exists()
    side.write_text("an earlier file\n")
    assert run_main(capsys, *argv, side_flag, str(side), "--output", str(tmp_path)) == (2, "", message)
    assert side.read_text() == "an earlier file\n"
    # with both unwritable, the side file is refused, as it is written first
    missing = tmp_path / "missing" / "out.csv"
    assert run_main(capsys, *argv, side_flag, str(tmp_path), "--output", str(missing)) == (2, "", message)


# each command's first step of work: none may run before the output paths are checked
_FIRST_STEPS = (
    "make_maximal_ranked", "chain_order_dd", "poset_from_json", "f_vector_normal_form", "_pipelines_fvector",
    "verify_injection", "verify_monotone", "partition_f_vectors",
)


@pytest.mark.parametrize(
    "argv, side_flag",
    [
        (["gen", "--tau", "2,1"], None),
        (["dd", "--tau", "2,1", "--polytope", "chain"], None),
        (["dd", "--poset", "POSET", "--polytope", "chain"], None),
        *((["fvector", "--tau", "2,1", "--k", "1", "--method", m], "--export-lattice")
          for m in ("geometric", "normalform", "both")),
        (["fvector", "--poset", "POSET", "--method", "geometric"], "--export-lattice"),
        (["verify", "injectivity", "--tau", "2,1"], "--json"),
        (["verify", "monotone", "--tau", "2,1"], "--json"),
        *((["table", "--n", "6", "--method", m], None) for m in ("geometric", "normalform", "both")),
    ],
    ids=[
        "gen", "dd-tau", "dd-poset", "fvector-geometric", "fvector-normalform", "fvector-both", "fvector-poset",
        "verify-injectivity", "verify-monotone", "table-geometric", "table-normalform", "table-both",
    ],
)
def test_every_command_checks_its_output_paths_before_the_work(tmp_path, monkeypatch, capsys, argv, side_flag):
    def refuse(*args):
        raise AssertionError("the work ran before the output paths were checked")

    for name in _FIRST_STEPS:
        monkeypatch.setattr(cli, name, refuse)
    poset_path = tmp_path / "p.json"
    poset_path.write_text('{"elements": ["a", "b"], "covers": [["a", "b"]]}')
    with pytest.raises(OSError) as exc:
        open(tmp_path, "w")
    message = f"error: {exc.value}\n"
    argv = [str(poset_path) if a == "POSET" else a for a in argv]
    assert run_main(capsys, *argv, "--output", str(tmp_path)) == (2, "", message)
    if side_flag:
        side = tmp_path / "side.json"
        assert run_main(capsys, *argv, side_flag, str(tmp_path), "--output", str(side)) == (2, "", message)
        assert not side.exists()


def test_output_paths_are_checked_before_the_arguments(tmp_path, capsys):
    with pytest.raises(OSError) as exc:
        open(tmp_path, "w")
    code, out, err = run_main(capsys, "verify", "monotone", "--tau", "2,1", "--k", "1", "--output", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")
    code, out, err = run_main(capsys, "verify", "monotone", "--tau", "2,1", "--k", "1")
    assert (code, out, err) == (2, "", "error: verify monotone checks every cut; --k is for injectivity\n")


def test_table_row_count_is_refused_before_the_rows_are_listed(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("the partitions were walked before the row budget was checked")

    monkeypatch.setattr(cli, "partition_f_vectors", refuse)
    for method in ("geometric", "normalform", "both"):
        start = time.monotonic()
        code, out, err = run_main(capsys, "table", "--n", "120", "--method", method)
        assert time.monotonic() - start < 2
        # the default budget admits n <= 65; n = 66 has 4,646,844 rows
        assert (code, out, err) == (2, "", "budget exceeded: at least 4646844 table rows exceed the point budget 4194304\n")
    code, out, err = run_main(capsys, "table", "--n", "50", "--budget-points", "408303")
    assert (code, out, err) == (2, "", "budget exceeded: 408304 table rows exceed the point budget 408303\n")


def test_table_row_budget_matches_the_listed_rows():
    # two rows per kept partition, p(n) - n - floor(n/2) + 1 of them for n >= 3
    for n in range(1, 31):
        rows = 2 * len(table_taus(n))
        cli._check_table_rows(n, rows)
        if rows:
            with pytest.raises(BudgetError, match=f"^{rows} table rows exceed the point budget {rows - 1}$"):
                cli._check_table_rows(n, rows - 1)
    cli._check_table_rows(65, MAX_POINTS)
    with pytest.raises(BudgetError, match="^4646844 table rows "):
        cli._check_table_rows(66, MAX_POINTS)


@pytest.mark.skipif(
    os.environ.get("CHAINORDER_SLOW") != "1" or sys.platform != "linux", reason="opt-in; set CHAINORDER_SLOW=1 (Linux)"
)
def test_table_n50_normalform_walks_in_flat_memory(tmp_path):
    # 408,304 rows; the interpreter alone takes about 17 MiB, and a list of
    # the kept partitions with a fold plan per polytope took 77 MiB
    out = tmp_path / "table.csv"
    code, maxrss, _, _ = _run_measured("table", "--n", "50", "--method", "normalform", "--output", str(out))
    assert code == 0
    assert maxrss < 40 * 1024  # KiB on Linux
    digest, rows = hashlib.sha256(), 0
    with open(out, "rb") as fh:
        for line in fh:
            digest.update(line)
            rows += 1
    assert digest.hexdigest() == "c08a55d8cda5f97d6632905615da06568e50501feb17825292161f798c6ad309"
    assert rows == 2 * len(table_taus(50)) == 408304


def test_table_n26_normalform_digest_and_closed_forms(capsys):
    # the normal-form counter far past the running example (n = 17): the
    # output is pinned byte for byte, and every row meets the closed forms
    n = 26
    code, out, _ = run_main(capsys, "table", "--n", str(n), "--method", "normalform")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "4739b6329a74c217be67c70e98547295b1649506b5247813252324e523c630ea"
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2 * len(table_taus(n)) == 4796
    for row in rows:
        tau, k, fv = tuple(int(x) for x in row[0].split(",")), int(row[1]), [int(x) for x in row[3:]]
        assert len(fv) == n
        assert fv[0] == 1 + sum(2**t - 1 for t in tau), row
        assert sum((-1) ** i * f for i, f in enumerate(fv)) == 1 - (-1) ** n, row
        if k == 0:  # order polytope: one facet per cover with 0 and 1 adjoined
            assert row[2] == "order"
            assert fv[-1] == tau[0] + sum(a * b for a, b in zip(tau, tau[1:])) + tau[-1], row
        else:  # chain polytope: nonnegativity plus one facet per maximal chain
            assert (row[2], k) == ("chain", len(tau))
            assert fv[-1] == n + math.prod(tau), row


def test_table_n12_both_pipelines_digest(capsys):
    # both pipelines agree on all 120 rows of n = 12 (14.3M faces), pinned byte for byte
    code, out, _ = run_main(capsys, "table", "--n", "12", "--method", "both")
    assert code == 0
    assert out.count("\n") == 120
    assert hashlib.sha256(out.encode()).hexdigest() == "cf89f084f66aa0a9f64cd88a541e957e7c1f4a56afa094cbd19e907309d66965"


def test_table_n13_both_pipelines_digest(capsys):
    # all 166 rows of n = 13; the digest is that of the normal-form pipeline alone
    code, out, _ = run_main(capsys, "table", "--n", "13", "--method", "both")
    assert code == 0
    assert out.count("\n") == 166
    assert hashlib.sha256(out.encode()).hexdigest() == "a8df618b68a82e6319247e092335991fe208e1c66f1d1d4533b59b7473f9ea67"


def test_table_n14_both_pipelines_digest(capsys):
    # all 230 rows of n = 14; the digest is that of the normal-form pipeline alone
    code, out, _ = run_main(capsys, "table", "--n", "14", "--method", "both")
    assert code == 0
    assert out.count("\n") == 230
    assert hashlib.sha256(out.encode()).hexdigest() == "bf36278b209abcf61bf518d663e5c23f99daf988a95c661e996f7288a31ebe85"


# outputs pinned byte for byte, each by its own digest: stdout, or the file
# the command writes, out.json; CI's install smoke step checks the installed
# package's bytes against the source tree's
OUTPUT_DIGESTS = [
    ("gen --tau 200,200", "188e0e7015ff853308717d4d04655380dfe0048821ced5efd8fdc665b2c03bfb"),
    ("verify injectivity --tau 3,1,2,2", "705fcd350ee6334943539d424f0a8369c3ee2280cc0467eb9afe00e7c9ee91b1"),
    ("verify injectivity --tau 6,1 --k 1 --json out.json", "0303a23d50fe25d124ba3ff640795521bcb2d24ff16870dcf44e432cc4686ad1"),
    (
        "fvector --tau 2,1,2 --k 1 --method geometric --export-lattice out.json",
        "587cda7f34c949959da13063e32fdc956425ff0d56f994deafce77d89595808e",
    ),
    # the table as one walk over the partitions: the bytes the sort-based lister gave
    ("table --n 26 --method normalform --format json", "137f6419b63fe7a39305fc38fcd954f0151e50b71dfa42b8dded30f58fd74781"),
]


def _output_digest(capsys, command):
    code, out, _ = run_main(capsys, *command.split())
    assert code == 0
    data = Path("out.json").read_bytes() if "out.json" in command else out.encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command, expected", OUTPUT_DIGESTS, ids=[c for c, _ in OUTPUT_DIGESTS])
def test_output_digest(tmp_path, monkeypatch, capsys, command, expected):
    monkeypatch.chdir(tmp_path)
    assert _output_digest(capsys, command) == expected


@pytest.mark.skipif(os.environ.get("CHAINORDER_SLOW") != "1", reason="opt-in; set CHAINORDER_SLOW=1")
def test_table_n40_normalform_digest(capsys):
    # 2 * 37,279 rows, about 2.5 s in-process; CI runs it in its opt-in step
    assert _output_digest(capsys, "table --n 40 --method normalform") == "e25e35162f0db6a5ca28bbdd66e2c9f64735a17c2e7f28b7bc093662433a430d"


@pytest.mark.skipif(os.environ.get("CHAINORDER_SLOW") != "1", reason="opt-in; set CHAINORDER_SLOW=1")
def test_table_n15_both_pipelines_digest(capsys):
    # all 310 rows of n = 15; tau = 4,4,4,3 at its full cut has 5,782,687
    # faces, past the default face budget
    code, out, _ = run_main(capsys, "table", "--n", "15", "--method", "both", "--budget-faces", "10000000")
    assert code == 0
    assert out.count("\n") == 310
    assert hashlib.sha256(out.encode()).hexdigest() == "89b944c33108efcf75472cd6cdf4fa7ca5acde167c8409872d6f5c48055376d2"


def test_fvector_normalform_through_main(capsys):
    assert run_main(capsys, "fvector", "--tau", "1,1", "--k", "1", "--method", "normalform")[0] == 0


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["fvector", "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command, flags, choices",
    [
        ([], [], ["{gen,dd,fvector,verify,table}"]),
        (["gen"], ["--budget-points", "--output", "--tau"], []),
        (["dd"], ["--budget-points", "--k", "--output", "--polytope", "--poset", "--tau"], ["{order,chain,chain-order}"]),
        (
            ["fvector"],
            [
                "--budget-faces", "--budget-points", "--export-lattice", "--format", "--k", "--method",
                "--output", "--polytope", "--poset", "--tau",
            ],
            ["{csv,json}", "{geometric,normalform,both}", "{order,chain}"],
        ),
        (["verify"], ["--json", "--k", "--output", "--tau"], ["{injectivity,monotone}"]),
        (
            ["table"],
            ["--budget-faces", "--budget-points", "--format", "--method", "--n", "--output"],
            ["{csv,json}", "{geometric,normalform,both}"],
        ),
    ],
)
def test_cli_surface(monkeypatch, capsys, command, flags, choices):
    """Each command's flags and choice groups, as its --help lists them."""
    monkeypatch.setenv("COLUMNS", "200")  # one line per option: no group is wrapped
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert sorted(set(re.findall(r"--[a-z-]+", text))) == sorted(["--help", *flags])
    assert sorted(set(re.findall(r"\{[^}]*\}", text))) == choices


def test_cli_imports_without_numpy():
    src = str(Path(chainorder.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chainorder.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
