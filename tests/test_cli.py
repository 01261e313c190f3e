"""Command-line behavior: output text, artifacts, exit codes.

Every invocation goes through main(argv) in-process.  Stdout is matched
against frozen strings, so any drift in the printed format is caught here;
exit codes follow the documented mapping (0 ok, 1 invalid input, 2
verification failure, 3 unsupported size).
"""

import csv
import gc
import hashlib
import importlib.util
import json
import pathlib
import time
from fractions import Fraction as F

import pytest

from epicore import acceptability, cli, replica
from epicore.cli import main
from epicore.games import all_coalitions
from epicore.jsonio import (
    dump_json,
    economy_from_obj,
    load_json,
    proof_from_obj,
    proof_to_obj,
)
from epicore.logic import check_proof
from epicore.replica import EdgeworthEconomy, ReplicaEconomy


@pytest.fixture
def g2_path(tmp_path):
    p = tmp_path / "g2.json"
    dump_json({"players": 2, "v": {"1": 10, "2": 10, "1,2": 30}}, str(p))
    return str(p)


@pytest.fixture
def min_path(tmp_path):
    # worths (0, 0, 1) with the smallest legal bound keeps proof files small
    p = tmp_path / "min.json"
    dump_json({"players": 2, "bound": 2, "v": {"1": 0, "2": 0, "1,2": 1}}, str(p))
    return str(p)


@pytest.fixture
def econ_path(tmp_path):
    p = tmp_path / "econ.json"
    dump_json({"utility": "ces", "rho": "1/2",
               "grid_denominator": 8, "replicas": 2}, str(p))
    return str(p)


# ---------------------------------------------------------------------------
# core


def test_core_prints_the_integer_core(g2_path, capsys):
    assert main(["core", g2_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "10,20"
    assert lines[-1] == "20,10"
    assert all(sum(int(p) for p in ln.split(",")) == 30 for ln in lines)


def test_core_writes_json_and_csv(g2_path, tmp_path, capsys):
    out, table = str(tmp_path / "core.json"), str(tmp_path / "core.csv")
    assert main(["core", g2_path, "-o", out, "--csv", table]) == 0
    vectors = load_json(out)
    assert len(vectors) == 11
    assert vectors[0] == ["10", "20"]
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2"]
    assert len(rows) == 12


def test_core_is_deterministic(g2_path, tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["core", g2_path, "-o", a])
    first = capsys.readouterr().out
    main(["core", g2_path, "-o", b])
    second = capsys.readouterr().out
    assert first == second
    assert open(a, "rb").read() == open(b, "rb").read()


def test_core_missing_file_is_input_error(tmp_path, capsys):
    assert main(["core", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_core_bad_json_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    assert main(["core", str(p)]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("players", [3, 40, 10**9])
@pytest.mark.parametrize("command", ["core", "bs"])
def test_game_without_worths_fails_before_enumerating(players, command, tmp_path,
                                                       capsys):
    p = tmp_path / "empty-v.json"
    dump_json({"players": players, "v": {}}, str(p))
    start = time.monotonic()
    assert main([command, str(p)]) == 1
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: missing coalition values")
    if players == 3:
        assert "1 (and 6 more)" in err


# ---------------------------------------------------------------------------
# accept


def accept_out(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_accept_empty_knowledge(g2_path, capsys):
    out = accept_out(capsys, "accept", g2_path, "-i", "1", "-x", "9,21")
    assert out == "verdict: Accept\ncase: 2.1\n"


def test_accept_singleton_rejects(g2_path, capsys):
    out = accept_out(capsys, "accept", g2_path, "-i", "1", "-K", "1", "-x", "9,21")
    assert out == ("verdict: Reject\ncase: 2.2\n"
                   "witness coalition: 1\nwitness vector: 10,0\n")


def test_accept_singleton_accepts_at_worth(g2_path, capsys):
    out = accept_out(capsys, "accept", g2_path, "-i", "1", "-K", "1", "-x", "10,10")
    assert out == "verdict: Accept\ncase: 2.1\n"


def test_accept_grand_rejects_waste(g2_path, capsys):
    out = accept_out(capsys, "accept", g2_path, "-i", "1", "-K", "1,2", "-x", "10,10")
    assert out == ("verdict: Reject\ncase: 2.2\n"
                   "witness coalition: 1,2\nwitness vector: 20,10\n")


def test_accept_second_player(g2_path, capsys):
    out = accept_out(capsys, "accept", g2_path, "-i", "2", "-K", "2", "-x", "30,0")
    assert out == ("verdict: Reject\ncase: 2.2\n"
                   "witness coalition: 2\nwitness vector: 0,10\n")


def test_accept_rejects_bad_inputs(g2_path, capsys):
    assert main(["accept", g2_path, "-i", "3", "-x", "9,21"]) == 1
    assert main(["accept", g2_path, "-i", "1", "-x", "9,21,0"]) == 1
    assert main(["accept", g2_path, "-i", "1", "-x", "banana"]) == 1
    assert main(["accept", g2_path, "-i", "1", "-K", "0", "-x", "9,21"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# prove and check


def test_prove_then_check_round_trip(min_path, tmp_path, capsys):
    proof_file = str(tmp_path / "proof.json")
    assert main(["prove", min_path, "-i", "1", "-K", "1,2", "-x", "0,0",
                 "-o", proof_file]) == 0
    out = capsys.readouterr().out
    assert f"proof written: {proof_file}" in out
    assert "verdict: Reject" in out
    assert "nodes: 12" in out
    assert "check: ok" in out

    assert main(["check", proof_file]) == 0
    line = capsys.readouterr().out
    assert line.startswith("ok: root prefix [1]")
    assert "12 node(s)" in line

    # the artifact stands on its own through the library entry points
    proof = proof_from_obj(load_json(proof_file))
    assert check_proof(proof).ok


def test_prove_acceptable_polarity(min_path, tmp_path, capsys):
    proof_file = str(tmp_path / "proof.json")
    assert main(["prove", min_path, "-i", "1", "-x", "0,1",
                 "-o", proof_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: Accept" in out
    assert "check: ok" in out
    assert main(["check", proof_file]) == 0
    capsys.readouterr()


def test_bound_six_round_trip_is_small_and_fast(tmp_path, capsys):
    # the acceptable proof over the full knowledge set: 1,389 nodes, |Gamma| = 507
    game, proof_file = str(tmp_path / "g6.json"), str(tmp_path / "proof.json")
    dump_json({"players": 2, "bound": 6, "v": {"1": 3, "2": 3, "1,2": 3}}, game)
    acceptability._purge_spaces()
    start = time.monotonic()
    assert main(["prove", game, "-i", "1", "-K", "1;2;1,2", "-x", "3,0",
                 "-o", proof_file]) == 0
    assert main(["check", proof_file]) == 0
    assert time.monotonic() - start < 1.0
    assert pathlib.Path(proof_file).stat().st_size < 2_000_000
    out = capsys.readouterr().out
    assert "nodes: 1389" in out
    assert "ok: root prefix [1], 507 antecedent / 1 succedent formula(s), 1389 node(s)" in out


def test_check_rejects_forged_rule(min_path, tmp_path, capsys):
    proof_file = str(tmp_path / "proof.json")
    main(["prove", min_path, "-i", "1", "-K", "1,2", "-x", "0,0",
          "-o", proof_file])
    capsys.readouterr()
    obj = load_json(proof_file)
    obj["nodes"][-1]["rule"] = "AndRight"
    dump_json(obj, proof_file)
    assert main(["check", proof_file]) == 2
    assert "rejected at" in capsys.readouterr().err


def test_check_rejects_corrupted_payload(min_path, tmp_path, capsys):
    proof_file = str(tmp_path / "proof.json")
    main(["prove", min_path, "-i", "1", "-K", "1,2", "-x", "0,0",
          "-o", proof_file])
    capsys.readouterr()
    obj = load_json(proof_file)

    def forge_first_axiom():
        # swap the vectors of one comparison axiom: the claim becomes false
        for node in obj["nodes"]:
            if node["rule"] == "NonLogicalAxiom":
                f = obj["formulas"][node["succ"]["delta"][0]]
                if f["t"] == "geq" and f["left"] != f["right"]:
                    f["left"], f["right"] = f["right"], f["left"]
                    return True
        return False

    assert forge_first_axiom()
    forged_file = str(tmp_path / "forged.json")
    dump_json(obj, forged_file)
    assert main(["check", forged_file]) == 2
    assert "rejected at" in capsys.readouterr().err


_GEQ = {"t": "geq", "left": 0, "left_tag": "1,2", "over": "1", "right": 1, "right_tag": "1,2"}


def _axiom_file(formulas, vectors=(["1", "0"], ["0", "0"]), meta=None, prefix=(),
                rule="NonLogicalAxiom", ante=()):
    """A one-node proof file: the last formula row is the succedent, `ante`
    lists antecedent formula ids."""
    node = {"prefix": list(prefix), "ante": {"delta": list(ante)},
            "succ": {"delta": [len(formulas) - 1]}, "rule": rule}
    if meta is not None:
        node["meta"] = meta
    return {"vectors": [list(v) for v in vectors], "formulas": list(formulas),
            "sets": [], "nodes": [node]}


def _bel_axiom(agent):
    return _axiom_file([_GEQ, {"t": "bel", "agent": agent, "child": 0}],
                       rule="LogicalAxiom", ante=[1])


def _run_check(obj, tmp_path, capsys):
    path = str(tmp_path / "proof.json")
    dump_json(obj, path)
    start = time.perf_counter()
    code = main(["check", path])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    return code, out.out, out.err, elapsed


@pytest.mark.parametrize("obj", [
    _axiom_file([_GEQ]),
    _axiom_file([_GEQ], meta={"agent": 1}, prefix=[1, 2]),
    _bel_axiom(1),
], ids=["comparison-axiom", "with-prefix-and-agent", "bel-axiom"])
def test_check_accepts_the_well_formed_base_files(obj, tmp_path, capsys):
    # the malformed cases below each break one field of these files
    code, out, _, _ = _run_check(obj, tmp_path, capsys)
    assert code == 0
    assert out.startswith("ok: ")


def _expect_one_error_line(code, err, elapsed, reason):
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert reason in err
    assert elapsed < 1.0


@pytest.mark.parametrize("obj, reason", [
    (_axiom_file([{"t": "ach", "coalition": "1"}]), "needs field 'vector'"),
    (_axiom_file([dict(_GEQ, over="5")]), "exceeds the payload length"),
    (_axiom_file([dict(_GEQ, over="2")], vectors=(["1", "0"], ["0"])),
     "differs in length or kind"),
    (_axiom_file([_GEQ], meta=[]), "meta must be an object"),
    (_axiom_file([_GEQ], prefix=["x", [1], None]), "agent ids"),
    (_axiom_file([_GEQ], prefix=[{"a": 1}]), "agent ids"),
    (_axiom_file([_GEQ], prefix=[0]), "agent ids"),
    (_axiom_file([_GEQ], prefix=[True]), "agent ids"),
    (_axiom_file([_GEQ], meta={"agent": "x"}), "agent ids"),
    (_axiom_file([_GEQ], meta={"agent": 0}), "agent ids"),
    (_bel_axiom(True), "agent ids"),
    (_axiom_file([_GEQ], vectors=([["1"]], [["0", "0"]])), "exactly two commodity"),
    (_axiom_file([_GEQ], vectors=([["1", "0", "5"]], [["0", "0"]])), "exactly two commodity"),
    (_axiom_file([_GEQ], vectors=([["-1", "4"]], [["0", "0"]])), "non-negative"),
], ids=["ach-without-vector", "over-beyond-payload", "payload-lengths-differ",
        "meta-is-a-list", "prefix-entries-not-ints", "prefix-entry-object",
        "prefix-entry-zero", "prefix-entry-bool", "meta-agent-string",
        "meta-agent-zero", "bel-agent-bool", "bundle-of-one", "bundle-of-three",
        "bundle-negative"])
def test_check_rejects_malformed_formula_objects(obj, reason, tmp_path, capsys):
    code, _, err, elapsed = _run_check(obj, tmp_path, capsys)
    _expect_one_error_line(code, err, elapsed, reason)


@pytest.mark.parametrize("left, right, code", [
    (["1/4", "0"], ["0", "1/2"], 2),
    (["0", "1/2"], ["1/4", "0"], 0),
], ids=["lexicographic-but-worse", "better"])
def test_check_compares_bundles_by_utility(left, right, code, tmp_path, capsys):
    # (1/4, 0) comes first in lexicographic order but is worth 1/4 < 1/2
    geq = {"t": "geq", "left": 0, "left_tag": "1", "over": "1", "right": 1, "right_tag": "1"}
    got, _, err, _ = _run_check(_axiom_file([geq], vectors=([left], [right])), tmp_path, capsys)
    assert got == code
    assert ("non-logical axiom" in err) == (code == 2)


def test_check_accepts_a_written_replica_witness_derivation(monkeypatch, tmp_path, capsys):
    derivations = []
    check = replica.check_proof
    monkeypatch.setattr(replica, "check_proof",
                        lambda root: derivations.append(root) or check(root))
    # blocked at k = 2 by a near-balanced triple, over bundles on the 1/8 grid
    low, high = (F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))
    x = replica.Allocation((low, low, high, high))
    assert replica.partial_knowledge_witness(ReplicaEconomy(EdgeworthEconomy(8), 2), x)
    (root,) = derivations
    path = str(tmp_path / "witness.json")
    dump_json(proof_to_obj(root), path)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def _leaf():
    return {"prefix": [], "ante": {"delta": []}, "succ": {"delta": [0]},
            "rule": "NonLogicalAxiom"}


def _with_nodes(nodes, **changes):
    obj = _axiom_file([_GEQ])
    obj["nodes"] = nodes
    obj.update(changes)
    return obj


def _th(child):
    return dict(_leaf(), rule="Th", children=[child])


def _formula_chain(step, length):
    # f_0 is the comparison atom; each step adds rows built from the last
    rows = [_GEQ]
    for _ in range(length):
        rows.extend(step(len(rows) - 1, len(rows)))
    return _axiom_file(rows)


def _old_nested_file():
    return {"sequent": {"prefix": [], "ante": [],
                        "succ": [{"t": "geq", "left": ["1", "0"], "left_tag": "1,2",
                                  "over": "1", "right": ["0", "0"], "right_tag": "1,2"}]},
            "rule": "NonLogicalAxiom", "children": []}


def _shared_base_split(size):
    # an OrLeft root whose principal sits in a shared base of `size` atoms,
    # over `size` premises: the kernel would rebuild the base per premise
    formulas = [{"t": "ach", "coalition": "1", "vector": i} for i in range(2 * size)]
    formulas.append({"t": "or", "members": list(range(size, 2 * size))})
    nodes = [{"prefix": [], "ante": {"base": 0, "delta": [size + j]}, "succ": {"delta": []},
              "rule": "Th"} for j in range(size)]
    nodes.append({"prefix": [], "ante": {"base": 0, "delta": []}, "succ": {"delta": []},
                  "rule": "OrLeft", "meta": {"principal": 2 * size},
                  "children": list(range(size))})
    return {"vectors": [[str(i)] for i in range(2 * size)], "formulas": formulas,
            "sets": [list(range(size)) + [2 * size]], "nodes": nodes}


@pytest.mark.parametrize("obj, reason", [
    (_axiom_file([_GEQ, {"t": "not", "child": 1}]), "formula id 1 is not an earlier row"),
    (_axiom_file([{"t": "not", "child": -1}]), "formula id -1"),
    (_axiom_file([dict(_GEQ, right=2)]), "vector id 2"),
    (_axiom_file([dict(_GEQ, right=True)]), "vector id True"),
    (_with_nodes([dict(_leaf(), ante={"base": 0, "delta": []})]), "set id 0"),
    (_with_nodes([_leaf()], sets=[[1]]), "formula id 1"),
    (_with_nodes([dict(_leaf(), succ={"delta": [3]})]), "formula id 3"),
    (_with_nodes([_th(1), _leaf()]), "node id 1"),
    (_with_nodes([_leaf(), _th(0), _th(0)]), "node 0 is a child twice"),
    (_with_nodes([_leaf(), dict(_th(0), rule="AndRight", children=[0, 0])]),
     "node 0 is a child twice"),
    (_with_nodes([_leaf(), _leaf()]), "node 0 has no parent"),
    (_with_nodes([]), "no nodes"),
    (dict(_axiom_file([_GEQ]), version=2), "unknown field in proof file: 'version'"),
    (_axiom_file([dict(_GEQ, note="x")]), "unknown field in 'geq' formula: 'note'"),
    (_with_nodes([dict(_leaf(), sequent={})]), "unknown field in proof node: 'sequent'"),
    (_with_nodes([dict(_leaf(), ante={"delta": [], "flat": 0})]),
     "unknown field in sequent side: 'flat'"),
    (_axiom_file([_GEQ], meta={"hint": 0}), "unknown field in proof meta: 'hint'"),
    (_old_nested_file(), "proof file needs field 'vectors'"),
    (_formula_chain(lambda last, nxt: [{"t": "not", "child": last}], 64),
     "nested deeper than 64"),
    (_with_nodes([_leaf()] + [_th(k) for k in range(2999)]), "deeper than 64 nodes"),
    (_formula_chain(lambda last, nxt: [{"t": "not", "child": last},
                                       {"t": "and", "members": [last, nxt]}], 40),
     "expand to more than"),
    (_shared_base_split(8000), "read more than 16 formulas per entry"),
], ids=["formula-self-reference", "formula-id-negative", "vector-id-past-end",
        "vector-id-bool", "set-id-past-end", "set-row-formula-past-end",
        "delta-id-past-end", "child-not-earlier", "child-of-two-nodes",
        "child-twice-in-one-node", "two-roots", "no-nodes", "unknown-top-field",
        "unknown-formula-field", "unknown-node-field", "unknown-side-field",
        "unknown-meta-field", "old-nested-format", "formula-too-deep",
        "proof-too-deep", "formulas-expand-too-far", "base-read-per-premise"])
def test_check_rejects_hostile_tables(obj, reason, tmp_path, capsys):
    code, _, err, elapsed = _run_check(obj, tmp_path, capsys)
    _expect_one_error_line(code, err, elapsed, reason)


def test_check_reads_equal_rows_as_one_formula(tmp_path, capsys):
    # two copies of the chain f <- Implies(f, f), 22 steps each: compared
    # node by node, the copies would walk 2^22 nodes, some seconds
    rows = [_GEQ, _GEQ]
    for _ in range(44):
        rows.append({"t": "implies", "lhs": len(rows) - 2, "rhs": len(rows) - 2})
    obj = _axiom_file(rows, rule="LogicalAxiom", ante=[len(rows) - 2])
    code, out, _, elapsed = _run_check(obj, tmp_path, capsys)
    assert code == 0 and out.startswith("ok: ")
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["check", "core"])
def test_deeply_nested_json_is_invalid_input(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    start = time.monotonic()
    assert main([command, str(path)]) == 1
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "nested too deeply" in err


@pytest.mark.parametrize("knowledge", ["", "1,2"])
@pytest.mark.parametrize("worth", [1, 99999])
def test_prove_on_a_huge_grid_fails_before_enumerating(knowledge, worth, tmp_path, capsys):
    # (2 * 100000 + 1)^2 grid vectors: the guard fires before any is built
    game = tmp_path / "huge.json"
    dump_json({"players": 2, "bound": 100000, "v": {"1": 0, "2": 0, "1,2": worth}},
              str(game))
    start = time.monotonic()
    assert main(["prove", str(game), "-i", "1", "-K", knowledge, "-x", "0,0",
                 "-o", str(tmp_path / "proof.json")]) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("unsupported size: the payoff grid has 200001^2 vectors")


def test_prove_refuses_a_knowledge_set_past_the_gamma_guard(tmp_path, capsys):
    # 5 players at bound 1: 6^5 grid vectors, under the grid guard, times 31
    # coalitions is 241,056 formulas; its acceptable proof peaks at 3.3 GB
    game = tmp_path / "five.json"
    dump_json({"players": 5, "bound": 1, "v": {str(s): 0 for s in all_coalitions(5)}},
              str(game))
    start = time.monotonic()
    assert main(["prove", str(game), "-i", "1", "-x", "0,0,0,0,0",
                 "-o", str(tmp_path / "proof.json")]) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("unsupported size: the knowledge set would hold 6^5 vectors x "
                          "31 coalitions = 241,056 formulas")
    assert not (tmp_path / "proof.json").exists()


def test_core_refuses_a_worth_past_the_enumeration_guard(tmp_path, capsys):
    game = tmp_path / "rich.json"
    dump_json({"players": 2, "v": {"1": 0, "2": 0, "1,2": 10**6}}, str(game))
    start = time.monotonic()
    assert main(["core", str(game)]) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("unsupported size: v(N) = 1000000 splits 1,000,001 ways")


def test_replica_refuses_a_replica_count_past_the_listing_guard(econ_path, capsys):
    start = time.monotonic()
    assert main(["replica", econ_path, "-k", str(10**6)]) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("unsupported size: effective coalitions are listed for k <= 100")


# ---------------------------------------------------------------------------
# the cyclic collector


@pytest.fixture
def collector_state():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class Interrupted(Exception):
    pass


def _interrupted(*args):
    raise Interrupted


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case, want", [
    ("prove", 0), ("check", 0), ("check-invalid", 1), ("check-rejected", 2),
    ("prove-huge", 3), ("check-raises", Interrupted)])
def test_proof_commands_leave_the_collector_as_they_found_it(
        case, want, enabled, collector_state, min_path, tmp_path, monkeypatch, capsys):
    proof_file = str(tmp_path / "proof.json")
    assert main(["prove", min_path, "-i", "1", "-K", "1,2", "-x", "0,0",
                 "-o", proof_file]) == 0
    argv = ["check", proof_file]
    if case == "prove":
        argv = ["prove", min_path, "-i", "1", "-x", "0,1", "-o", proof_file]
    elif case == "check-invalid":
        pathlib.Path(proof_file).write_text("{}")
    elif case == "check-rejected":
        obj = load_json(proof_file)
        obj["nodes"][-1]["rule"] = "AndRight"
        dump_json(obj, proof_file)
    elif case == "prove-huge":
        huge = str(tmp_path / "huge.json")
        dump_json({"players": 2, "bound": 100000, "v": {"1": 0, "2": 0, "1,2": 1}}, huge)
        argv = ["prove", huge, "-i", "1", "-x", "0,0", "-o", proof_file]
    elif case == "check-raises":
        monkeypatch.setattr(cli, "check_proof", _interrupted)
    (gc.enable if enabled else gc.disable)()
    if want is Interrupted:
        with pytest.raises(Interrupted):
            main(argv)
    else:
        assert main(argv) == want
    assert gc.isenabled() is enabled
    capsys.readouterr()


def test_cli_keeps_every_name_the_benchmark_rebinds():
    # perfbench's traced runs rebind these module attributes by name
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rebound = []

    class Recorder:
        counts: dict = {}

        def patch(self, owner, attr, name, after=None):
            rebound.append((owner, attr))

        def count(self, owner, attr, key, hit):
            rebound.append((owner, attr))

    workloads.instrument(Recorder())
    assert {attr for owner, attr in rebound if owner is cli} >= {
        "proof_to_obj", "dump_json", "load_json", "proof_from_obj", "check_proof",
        "load_game", "decide"}
    for owner, attr in rebound:
        assert hasattr(owner, attr), (owner, attr)


# ---------------------------------------------------------------------------
# verify


def test_verify_all_profiles(g2_path, tmp_path, capsys):
    out_file = str(tmp_path / "reports.json")
    assert main(["verify", g2_path, "--profiles", "all", "-o", out_file]) == 0
    out = capsys.readouterr().out
    assert "profiles checked: 16" in out
    assert "characterize the core: 3" in out
    assert "with violations: 13" in out
    reports = load_json(out_file)
    assert len(reports) == 16
    assert sum(r["characterizes_core"] for r in reports) == 3
    bad = [r for r in reports if not r["characterizes_core"]]
    assert all(r["violations"] for r in bad)


def test_verify_covering_profiles(g2_path, capsys):
    assert main(["verify", g2_path]) == 0
    out = capsys.readouterr().out
    assert "profiles checked: 3" in out
    assert "characterize the core: 3" in out
    assert "with violations: 0" in out


def test_verify_profile_file(g2_path, tmp_path, capsys):
    prof_file = str(tmp_path / "profiles.json")
    dump_json([[["1", "1,2"], ["2"]], [["1,2"], ["2"]]], prof_file)
    assert main(["verify", g2_path, "--profiles", prof_file]) == 0
    out = capsys.readouterr().out
    assert "profiles checked: 2" in out
    assert "characterize the core: 1" in out
    assert "first violation: accepted non-core vector" in out


# ---------------------------------------------------------------------------
# balanced and bs


def test_balanced_three_players(capsys):
    assert main(["balanced", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 6"
    assert "1,2;1,3;2,3  weights 1/2,1/2,1/2" in lines


def test_balanced_size_guard_exit_code(capsys):
    assert main(["balanced", "5"]) == 3
    assert "unsupported size" in capsys.readouterr().err


def test_bs_verdicts(g2_path, tmp_path, capsys):
    assert main(["bs", g2_path]) == 0
    assert capsys.readouterr().out == "core nonempty: yes\n"
    empty = tmp_path / "empty.json"
    dump_json({"players": 2, "v": {"1": 1, "2": 1, "1,2": 1}}, str(empty))
    assert main(["bs", str(empty)]) == 0
    assert capsys.readouterr().out == "core nonempty: no\n"


# ---------------------------------------------------------------------------
# replica


def test_replica_report(econ_path, capsys):
    assert main(["replica", econ_path]) == 0
    out = capsys.readouterr().out
    assert "economy: D=8, k=2, utility ces (exponent 1/2)" in out
    assert "effective coalitions: 11" in out
    assert "knowledge growth: count 11, average 11/4" in out
    assert "grid core: 1 allocation(s)" in out
    assert "(1/2,1/2); (1/2,1/2); (1/2,1/2); (1/2,1/2)" in out


def test_replica_k_override_skips_guarded_core(econ_path, capsys):
    assert main(["replica", econ_path, "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "effective coalitions: 20" in out
    assert "knowledge growth: count 20, average 10/3" in out
    assert "grid core: skipped (" in out


def test_replica_k1_has_no_growth_line(econ_path, capsys):
    assert main(["replica", econ_path, "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert "effective coalitions: 3" in out
    assert "knowledge growth" not in out
    assert "grid core: 13 allocation(s)" in out


def test_replica_json_payload(econ_path, tmp_path, capsys):
    out_file = str(tmp_path / "rep.json")
    assert main(["replica", econ_path, "-o", out_file]) == 0
    capsys.readouterr()
    payload = load_json(out_file)
    econ = economy_from_obj(payload["economy"])
    assert econ == ReplicaEconomy(EdgeworthEconomy(8), 2)
    assert len(payload["effective_coalitions"]) == 11
    assert payload["knowledge_growth"] == {"count": 11, "average": "11/4"}
    assert payload["grid_core"] == [[["1/2", "1/2"]] * 4]


def test_replica_json_payload_is_pinned(econ_path, tmp_path, capsys):
    # the grid core enumeration must not change a byte of the -o file
    for k, digest in ((1, "6b3e3964f35d2c3fd59a7c5e8fb148b19bc75772c9b4948c0e4569d6751d1373"),
                      (2, "d1ed99117c11d3ec966ac365630bd53c7ba84f0680e37d603db3ca0cd7f009ba")):
        out_file = tmp_path / f"rep{k}.json"
        assert main(["replica", econ_path, "-k", str(k), "-o", str(out_file)]) == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest, k
    capsys.readouterr()


def test_replica_csv_export(econ_path, tmp_path, capsys):
    table = str(tmp_path / "core.csv")
    assert main(["replica", econ_path, "--csv", table]) == 0
    capsys.readouterr()
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p1_1_c1", "p1_1_c2", "p1_2_c1", "p1_2_c2",
                       "p2_1_c1", "p2_1_c2", "p2_2_c1", "p2_2_c2"]
    assert rows[1] == ["1/2"] * 8
    assert len(rows) == 2


def test_replica_csv_needs_a_computed_core(econ_path, tmp_path, capsys):
    table = str(tmp_path / "core.csv")
    assert main(["replica", econ_path, "-k", "3", "--csv", table]) == 1
    assert "no grid core" in capsys.readouterr().err


def test_replica_rejects_bad_override(econ_path, capsys):
    assert main(["replica", econ_path, "-k", "0"]) == 1
    capsys.readouterr()


def test_replica_is_deterministic(econ_path, capsys):
    main(["replica", econ_path])
    first = capsys.readouterr().out
    main(["replica", econ_path])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# parser plumbing


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
