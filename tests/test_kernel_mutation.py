"""Kernel mutation test: single-node mutants of emitted proofs.

Proofs are emitted for a seeded quarter of the queries on two-player games
with worths at most 1, over the knowledge families {}, {i}, {N} and all
coalitions.  Each proof gets about 40 seeded mutants, each changing one node:
a payload unit moved by one, a rule label swapped, a child dropped or
duplicated, a formula added to one side, a prefix changed, or a meta
principal swapped for another formula of the node.

The kernel must return normally on every mutant and reject every one except
the meta mutants: a hint only steers the search, so a meta mutant may be
accepted, but then it still concludes the original root sequent.
"""

import itertools
import random
from collections import Counter

from epicore.acceptability import emit_proof
from epicore.games import Coalition, PayoffVector, TUGame, all_coalitions
from epicore.logic import (
    GRID_ORACLE,
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
    qs = queries()
    sample = rng.sample(qs, len(qs) // 4)
    made, accepted = Counter(), Counter()
    for game, i, family, units in sample:
        proof = emit_proof(game, i, family, PayoffVector.from_units(units, N))
        checked = {}
        assert check_proof(proof, GRID_ORACLE, checked)
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
            res = check_proof(mutant, GRID_ORACLE, ChainCache(checked))
            made[kind] += 1
            if res:
                accepted[kind] += 1
                assert kind == "meta", (kind, path, node, new)
                seq = mutant.sequent
                assert (seq.prefix, seq.ante, seq.succ) == (root.prefix, root.ante, root.succ)
    assert sum(made.values()) > 1500
    assert all(made[k] > 100 for k in KINDS), made
    assert accepted["meta"] < made["meta"]
