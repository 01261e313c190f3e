"""Kernel mutation test: single-node mutants of emitted proofs.

Proofs are emitted for a seeded quarter of the queries on two-player games
with worths at most 1, over the knowledge families {}, {i}, {N} and all
coalitions.  Each proof gets about 40 seeded mutants, each changing one node:
a payload unit moved by one, a rule label swapped, a child dropped or
duplicated, a formula added to one side, a prefix changed, or a meta
principal swapped for another formula of the node.

The kernel must return normally on every mutant and reject every one except
the meta mutants: the hints name the rule instance the kernel checks, and
a rule ignores the hints it does not need, so a meta mutant may name
another valid instance of the same step and be accepted, but then it
still concludes the original root sequent.

The same proofs are also written to proof files, and each file gets a few
mutants that change one index: a formula, vector, set, delta or child id
moved by one, or an id dropped.  `epicore check` must end in exit code 0,
1 or 2 without raising.  A file row is shared by every node that uses it,
so a mutant of a formula or set row changes all those nodes alike and may
be a valid proof of another sequent.  An accepted mutant must therefore
load to the original root sequent, or have changed a shared row and
conclude a root that is true in the model the original knowledge set fixes
(an atom holds iff the knowledge set lists it, comparisons by the grid
order).
"""

import contextlib
import io
import itertools
import json
import random
from collections import Counter

from epicore.acceptability import emit_proof
from epicore.cli import main
from epicore.jsonio import load_json, proof_from_obj, proof_to_obj
from epicore.games import Coalition, PayoffVector, TUGame, all_coalitions
from epicore.logic import (
    Ach,
    And,
    Bel,
    ChainCache,
    Geq,
    Implies,
    Not,
    Or,
    ProofTree,
    Rule,
    RuleMeta,
    ThoughtSequent,
    check_proof,
)

N = 2
KINDS = ("payload", "rule", "child", "add", "prefix", "meta")
MUTANTS_PER_PROOF = 40
FILE_MUTANTS_PER_PROOF = 5


def queries():
    coalitions = all_coalitions(N)
    grand = coalitions[-1]
    out = []
    for worths in itertools.product(range(2), repeat=len(coalitions)):
        game = TUGame.from_values(N, dict(zip(coalitions, worths)))
        vn = game.v(grand)
        xs = [u for u in itertools.product(range(N * vn + 1), repeat=N)
              if sum(u) <= N * vn]
        for i in range(1, N + 1):
            for family in ((), (Coalition.of(i),), (grand,), coalitions):
                out.extend((game, i, family, u) for u in xs)
    return out


def drawn_queries(rng):
    qs = queries()
    return rng.sample(qs, len(qs) // 4)


def preorder(tree, path=()):
    yield path, tree
    for k, child in enumerate(tree.children):
        yield from preorder(child, path + (k,))


def replace(tree, path, new):
    # copy the path down to the mutated node; every other subtree is shared
    if not path:
        return new
    kids = list(tree.children)
    kids[path[0]] = replace(kids[path[0]], path[1:], new)
    return ProofTree(tree.sequent, tree.rule, tuple(kids), tree.meta)


def bump(f, rng):
    """f with one payload unit moved by one, or None when f has no payload."""
    t = type(f)
    if t is Ach:
        return Ach(_bump_units(f.vector, rng), f.coalition)
    if t is Geq:
        if rng.random() < 0.5:
            return Geq(_bump_units(f.left, rng), f.left_tag, f.over, f.right, f.right_tag)
        return Geq(f.left, f.left_tag, f.over, _bump_units(f.right, rng), f.right_tag)
    if t is Not or t is Bel:
        child = bump(f.child, rng)
        if child is None:
            return None
        return Not(child) if t is Not else Bel(f.agent, child)
    if t is And or t is Or:
        members = list(f.members)
        k = rng.randrange(len(members))
        m = bump(members[k], rng)
        if m is None:
            return None
        members[k] = m
        return t(members)
    if t is Implies:
        lhs = bump(f.lhs, rng)
        return None if lhs is None else Implies(lhs, f.rhs)
    return None


def _bump_units(units, rng):
    units = list(units)
    units[rng.randrange(len(units))] += rng.choice((-1, 1))
    return tuple(units)


def with_sides(node, ante, succ, prefix=None):
    seq = node.sequent
    return ProofTree(ThoughtSequent(seq.prefix if prefix is None else prefix, ante, succ),
                     node.rule, node.children, node.meta)


def mutate(kind, node, rng):
    """One mutant of `node`, or None when the kind does not apply to it."""
    seq = node.sequent
    sides = [list(seq.ante), list(seq.succ)]
    if kind == "payload":
        s = rng.randrange(2)
        if not sides[s]:
            return None
        f = rng.choice(sides[s])
        g = bump(f, rng)
        if g is None:
            return None
        side = (seq.ante, seq.succ)[s].without(f).with_(g)
        return with_sides(node, side, seq.succ) if s == 0 else with_sides(node, seq.ante, side)
    if kind == "rule":
        other = rng.choice([r for r in Rule if r is not node.rule])
        return ProofTree(seq, other, node.children, node.meta)
    if kind == "child":
        kids = list(node.children)
        if not kids:
            return None
        k = rng.randrange(len(kids))
        if rng.random() < 0.5:
            del kids[k]
        else:
            kids.insert(k, kids[k])
        return ProofTree(seq, node.rule, tuple(kids), node.meta)
    if kind == "add":
        s = rng.randrange(2)
        side = (seq.ante, seq.succ)[s]
        fresh = Ach((7, 7), Coalition.of(1, 2))
        pool = [f for f in [fresh, Not(fresh)] + sides[1 - s] if f not in side]
        side = side.with_(rng.choice(pool))
        return with_sides(node, side, seq.succ) if s == 0 else with_sides(node, seq.ante, side)
    if kind == "prefix":
        prefix = seq.prefix
        options = [prefix + (rng.choice((1, 2)),)]
        if prefix:
            options.append(prefix[:-1])
            options.append(prefix[:-1] + (3 - prefix[-1],))
        return with_sides(node, seq.ante, seq.succ, rng.choice(options))
    # meta: the hint names another formula of the node
    meta = node.meta
    if meta is None or meta.principal is None:
        return None
    others = [f for f in sides[0] + sides[1] if f != meta.principal]
    if not others:
        return None
    return ProofTree(seq, node.rule, node.children,
                     RuleMeta(rng.choice(others), meta.member, meta.cut, meta.agent))


def test_single_node_mutants_of_emitted_proofs_are_rejected():
    rng = random.Random(9)
    sample = drawn_queries(rng)
    made, accepted = Counter(), Counter()
    for game, i, family, units in sample:
        proof = emit_proof(game, i, family, PayoffVector.from_units(units, N))
        checked = {}
        assert check_proof(proof, checked)
        root = proof.sequent
        nodes = list(preorder(proof))
        for _ in range(MUTANTS_PER_PROOF):
            kind = rng.choice(KINDS)
            for _ in range(20):
                path, node = rng.choice(nodes)
                new = mutate(kind, node, rng)
                if new is not None:
                    break
            else:
                continue
            mutant = replace(proof, path, new)
            # the original's results serve the shared subtrees; every node
            # on the mutated path is new and checked afresh
            res = check_proof(mutant, ChainCache(checked))
            made[kind] += 1
            if res:
                accepted[kind] += 1
                assert kind == "meta", (kind, path, node, new)
                seq = mutant.sequent
                assert (seq.prefix, seq.ante, seq.succ) == (root.prefix, root.ante, root.succ)
    assert sum(made.values()) > 1500
    assert all(made[k] > 100 for k in KINDS), made
    assert accepted["meta"] < made["meta"]


# ---------------------------------------------------------------------------
# proof files


def id_sites(obj):
    """(kind of id, container, key, table of the row holding it) for every
    id in a proof file object."""
    for row in obj["formulas"]:
        for key in ("vector", "left", "right"):
            if key in row:
                yield "vector", row, key, "formulas"
        for key in ("child", "lhs", "rhs"):
            if key in row:
                yield "formula", row, key, "formulas"
        for k in range(len(row.get("members", ()))):
            yield "formula", row["members"], k, "formulas"
    for row in obj["sets"]:
        for k in range(len(row)):
            yield "formula", row, k, "sets"
    for node in obj["nodes"]:
        for side in (node["ante"], node["succ"]):
            if "base" in side:
                yield "set", side, "base", "nodes"
            for k in range(len(side["delta"])):
                yield "delta", side["delta"], k, "nodes"
        for key in node.get("meta", {}):
            if key != "agent":
                yield "formula", node["meta"], key, "nodes"
        for k in range(len(node.get("children", ()))):
            yield "child", node["children"], k, "nodes"


def mutate_file(text, rng):
    """The proof file `text` with one id moved by one or dropped, the change,
    and the table whose row held the id.  Each kind of id is drawn equally
    often, whatever its count in the file."""
    copy = json.loads(text)
    sites: dict = {}
    for kind, *site in id_sites(copy):
        sites.setdefault(kind, []).append(site)
    kind = rng.choice(sorted(sites))
    container, key, row_table = rng.choice(sites[kind])
    change = rng.choice(("+1", "-1", "drop"))
    if change == "drop":
        del container[key]
    else:
        container[key] += int(change)
    return json.dumps(copy), (kind, change), row_table


def holds(f, true_atoms) -> bool:
    t = type(f)
    if t is Ach:
        return f in true_atoms
    if t is Geq:
        return all(f.left[p - 1] >= f.right[p - 1] for p in f.over.members)
    if t is Not:
        return not holds(f.child, true_atoms)
    if t is And:
        return all(holds(m, true_atoms) for m in f.members)
    if t is Or:
        return any(holds(m, true_atoms) for m in f.members)
    if t is Implies:
        return not holds(f.lhs, true_atoms) or holds(f.rhs, true_atoms)
    return holds(f.child, true_atoms)  # Bel: one agent's view of the same model


def test_single_index_mutants_of_proof_files_are_handled(tmp_path):
    rng = random.Random(9)
    sample = drawn_queries(rng)
    path = str(tmp_path / "mutant.json")
    codes, kinds = Counter(), Counter()
    for game, i, family, units in sample:
        proof = emit_proof(game, i, family, PayoffVector.from_units(units, N))
        root = proof.sequent
        true_atoms = {f for f in root.ante if type(f) is Ach}
        text = json.dumps(proof_to_obj(proof))
        for _ in range(FILE_MUTANTS_PER_PROOF):
            mutant, change, row_table = mutate_file(text, rng)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(mutant)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["check", path])
            codes[code] += 1
            kinds[change[0]] += 1
            assert code in (0, 1, 2), (change, code)
            assert "Traceback" not in err.getvalue()
            if code != 0:
                continue
            seq = proof_from_obj(load_json(path)).sequent
            if (seq.prefix, seq.ante, seq.succ) != (root.prefix, root.ante, root.succ):
                assert row_table in ("formulas", "sets"), (change, row_table)
                assert not all(holds(f, true_atoms) for f in seq.ante) \
                    or any(holds(f, true_atoms) for f in seq.succ), change
    assert sum(codes.values()) == len(sample) * FILE_MUTANTS_PER_PROOF
    assert codes[1] > 0 and codes[2] > 0, codes
    assert len(kinds) == 5 and min(kinds.values()) > 20, kinds
