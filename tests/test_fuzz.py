"""Fuzz test: mutated JSON files through the command line.

Every file a command reads is untrusted.  Each example takes a well-formed
input for one command (an emitted proof file for `check`, a game for
`core`, `accept`, `verify` and `bs`, an economy for `replica`), applies a
few drawn mutations (replace a value anywhere in the document, drop an
object field or array entry, duplicate an array entry, or cut the text
short), writes it and runs `main([command, file, ...])` in process.

The run must end in a documented exit code (0 ok, 1 invalid input, 2
verification failure, 3 unsupported size) within EXAMPLE_SECONDS, with
at most one line on stderr and no traceback.  The settings are fixed and
derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epicore import acceptability
from epicore.cli import main
from epicore.jsonio import dump_json, load_json

EXAMPLE_SECONDS = 5.0

GAME = {"players": 2, "bound": 3, "v": {"1": 1, "2": 0, "1,2": 2}}
ECONOMY = {"utility": "ces", "rho": "1/2", "grid_denominator": 4, "replicas": 2}

# values a file may hold, weighted toward the ones the readers look for:
# small ids and counts, sizes past the guards, keys, tags and rule names
_INTEGERS = st.one_of(st.integers(-3, 40), st.sampled_from([300, 10**4, 10**6, 2**63]),
                      st.integers())
_SCALARS = st.one_of(
    _INTEGERS, _INTEGERS,
    st.sampled_from(["", "1", "2", "0", "-1", "1,2", "2,1", "1,1", "3", "1/2", "7/3",
                     "1e999999999", "ach", "geq", "not", "and", "or", "implies", "bel",
                     "Th", "Cut", "AndLeft", "OrRight", "LogicalAxiom", "ces"]),
    st.none(), st.booleans(), st.floats(), st.text(max_size=6),
)
_VALUES = st.one_of(_SCALARS, _SCALARS, st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["t", "delta", "base", "members", "child", "meta", "x"]),
        inner, max_size=3),
    max_leaves=5))
_MUTATION = st.tuples(st.sampled_from(["set", "set", "set", "drop", "dup", "cut"]),
                      st.integers(0, 10**6), _VALUES)


def _slots(doc):
    """(container, key) for every value inside the document."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            out.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return out


def _mutate(doc, mutations) -> str:
    for op, pick, value in mutations:
        if op == "cut":
            text = json.dumps(doc)
            return text[:pick % len(text)]
        slots = _slots(doc) if isinstance(doc, (dict, list)) else []
        if not slots:
            doc = value
            continue
        node, key = slots[pick % len(slots)]
        if op == "set":
            node[key] = value
        elif op == "drop":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, json.loads(json.dumps(node[key])))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("seeds")
    game, proof = str(root / "game.json"), str(root / "proof.json")
    dump_json(GAME, game)
    acceptability._purge_spaces()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["prove", game, "-i", "1", "-K", "1;1,2", "-x", "1,1", "-o", proof]) == 0
    return {"check": load_json(proof), "core": GAME, "accept": GAME, "verify": GAME,
            "bs": GAME, "replica": ECONOMY}


ARGS = {"check": [], "core": [], "accept": ["-i", "1", "-K", "1;1,2", "-x", "1,1"],
        "verify": [], "bs": [], "replica": []}


@pytest.mark.parametrize("command", sorted(ARGS))
@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_files_end_in_one_documented_exit(command, mutations, seeds, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(_mutate(json.loads(json.dumps(seeds[command])), mutations),
                    encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)] + ARGS[command])
    elapsed = time.perf_counter() - start
    message = err.getvalue()
    assert code in (0, 1, 2, 3), (code, message)
    assert "Traceback" not in message
    assert len(message.splitlines()) <= 1, message
    assert (code == 0) == (message == ""), (code, message)
    assert elapsed < EXAMPLE_SECONDS, (elapsed, command)
