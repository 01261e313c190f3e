"""Acceptability of payoff proposals under partial coalition knowledge.

A player i who knows the worths of a family of coalitions holds a knowledge
set: one positive atom for every payoff vector some known coalition can
actually deliver, and the negation of every other achievability atom.  The
acceptability criterion for a proposal x is a single formula: there is no
known coalition offering i a feasible alternative that weakly dominates x
on the coalition and strictly improves i.

`decide` settles the question semantically (three-case analysis, constant
memory); `emit_proof` produces the corresponding sequent-calculus proof
tree, which `check_proof` validates, comparing grid units in plain order.
Both agree by construction; the test suite re-verifies the agreement
exhaustively on small games.

Payoff payloads inside formulas are integer grid units (unit 1/n); this
module converts at the boundary.  Formulas and refutation subproofs are
interned per (player count, bound) so that sweeps emitting proofs for many
proposals stay close to linear in total proof size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import InvalidInputError, UnsupportedSizeError
from .games import Coalition, PayoffVector, TUGame, all_coalitions, grid_units
from .logic import (
    EMPTY_SET,
    Ach,
    And,
    ChainCache,
    Formula,
    FormulaSet,
    Geq,
    Not,
    Or,
    ProofTree,
    Rule,
    RuleMeta,
    ThoughtSequent,
    check_proof,
    strict_gain,
    witness_derivation,
)

# ---------------------------------------------------------------------------
# knowledge profiles


def normalize_family(family: Iterable[Coalition], n: int) -> tuple[Coalition, ...]:
    """Sorted, deduplicated, bounds-checked coalition family.  Entries may
    be Coalition objects or strings like "1,3"."""
    out = sorted({Coalition.parse(s) if isinstance(s, str) else s for s in family})
    for s in out:
        if s.members[-1] > n:
            raise InvalidInputError(f"coalition {s} exceeds the player set 1..{n}")
    return tuple(out)


def parse_family(text: str) -> tuple[Coalition, ...]:
    """CLI syntax: semicolon-separated coalitions, e.g. "1;1,2".  Empty
    string means the empty family."""
    text = text.strip()
    if not text:
        return ()
    return tuple(Coalition.parse(part) for part in text.split(";"))


@dataclass(frozen=True)
class KnowledgeProfile:
    """One coalition family per player (index 1..n)."""

    families: tuple[tuple[Coalition, ...], ...]

    @staticmethod
    def of(n: int, families) -> "KnowledgeProfile":
        """families: mapping player -> iterable of coalitions (missing players
        get the empty family), or a sequence of n families."""
        if isinstance(families, dict):
            if any(k not in range(1, n + 1) for k in families):
                raise InvalidInputError(f"player keys must be 1..{n}, got {list(families)}")
            seq = [families.get(i, ()) for i in range(1, n + 1)]
        else:
            seq = list(families)
            if len(seq) != n:
                raise InvalidInputError(f"need one family per player (expected {n})")
        return KnowledgeProfile(tuple(normalize_family(f, n) for f in seq))

    @property
    def n(self) -> int:
        return len(self.families)

    def family(self, i: int) -> tuple[Coalition, ...]:
        return self.families[i - 1]

    def effective(self, n: int) -> frozenset[Coalition]:
        """Coalitions known by at least one of their own members; only these
        can ever block a proposal."""
        return frozenset(s for i in range(1, n + 1)
                         for s in self.families[i - 1] if i in s)

    def covering(self, n: int) -> bool:
        """Every nonempty coalition known by at least one of its members."""
        return len(self.effective(n)) == 2 ** n - 1


# ---------------------------------------------------------------------------
# grid atoms and comparison formulas, interned per (n, bound)

# Knowledge sets and proofs hold formulas for every vector of the payoff
# grid; the README's bound-31 example has 3,969 of them.
MAX_GRID_VECTORS = 20_000
# Gamma holds an atom or its negation for every grid vector and coalition:
# 25^3 vectors x 7 coalitions at 3 players and bound 8, whose acceptable
# proof already peaks at 1.6 GB.  5 players at bound 1 (7,776 x 31) peak at
# 3.3 GB, too close to an out-of-memory kill.
MAX_GAMMA = 109_375


class _AtomSpace:
    """Interning tables for one grid.

    Holds every formula the module ever builds over the grid (atoms,
    negations, comparisons, disjuncts) plus the knowledge-free refutation
    subproofs and a check cache holding their roots.  Lookups are
    keyed by integer unit tuples, so nothing here hashes Fractions.
    """

    __slots__ = ("n", "bound", "tags", "grand", "checked",
                 "_vectors", "_ach", "_neg", "_negations", "_bigor", "_stub")

    def __init__(self, n: int, bound: int):
        self.n = n
        self.bound = bound
        self.tags = all_coalitions(n)
        self.grand = self.tags[-1]
        self.checked: dict = {}
        self._vectors = None
        self._ach: dict = {}
        self._neg: dict = {}
        self._negations = None
        self._bigor: dict = {}
        self._stub: dict = {}

    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The full payoff grid in units of 1/n, lexicographic order."""
        if self._vectors is None:
            side = self.bound * self.n + 1
            count = side ** self.n
            if count > MAX_GRID_VECTORS:
                raise UnsupportedSizeError(
                    f"the payoff grid has {side}^{self.n} vectors; knowledge sets "
                    f"and proofs are guarded to {MAX_GRID_VECTORS:,}")
            if count * len(self.tags) > MAX_GAMMA:
                raise UnsupportedSizeError(
                    f"the knowledge set would hold {side}^{self.n} vectors x "
                    f"{len(self.tags)} coalitions = {count * len(self.tags):,} "
                    f"formulas; it is guarded to {MAX_GAMMA:,}")
            self._vectors = tuple(itertools.product(range(side), repeat=self.n))
        return self._vectors

    def ach(self, units: tuple[int, ...], tag: Coalition) -> Ach:
        key = (units, tag)
        atom = self._ach.get(key)
        if atom is None:
            atom = self._ach[key] = Ach(units, tag)
        return atom

    def neg(self, units: tuple[int, ...], tag: Coalition) -> Not:
        key = (units, tag)
        f = self._neg.get(key)
        if f is None:
            f = self._neg[key] = Not(self.ach(units, tag))
        return f

    def negations(self) -> frozenset:
        """The negation of every achievability atom on the grid."""
        if self._negations is None:
            self._negations = frozenset(self.neg(units, tag) for tag in self.tags
                                        for units in self.vectors())
        return self._negations

    def big_or(self, i: int, x_units: tuple[int, ...]) -> Or:
        """The alternatives open to player i against proposal x, one
        disjunct (Ach y^S, y >=_S x, y >_i x) per coalition S containing i
        and grid vector y, in canonical order (coalition, then vector
        lexicographic)."""
        key = (i, x_units)
        f = self._bigor.get(key)
        if f is None:
            grand = self.grand
            f = self._bigor[key] = Or._presorted(tuple(
                And._presorted((self.ach(units, tag),
                                Geq(units, tag, tag, x_units, grand),
                                strict_gain(units, tag, i, x_units, grand)))
                for tag in self.tags if i in tag for units in self.vectors()))
        return f

    def disjunct_for(self, i: int, x_units, tag: Coalition, units) -> And:
        """The interned disjunct for one (coalition, vector) alternative;
        position follows from the canonical enumeration order."""
        tags_i = [t for t in self.tags if i in t]
        stride = len(self.vectors())
        base = tags_i.index(tag) * stride
        rank = 0
        for u in units:
            rank = rank * (self.bound * self.n + 1) + u
        entry = self.big_or(i, x_units).members[base + rank]
        atom = entry.members[0]
        assert atom.coalition == tag and atom.vector == units
        return entry

    def _seed(self, tree: ProofTree) -> ProofTree:
        # long-lived stub: record its root, the only node looked up again
        res = check_proof(tree)
        assert res.ok, f"internal: bad refutation stub: {res.reason}"
        self.checked[tree] = res
        return tree

    def refute_atom(self, i: int, units, tag) -> ProofTree:
        """B[atom, not-atom -> ] : axiom plus negation-left."""
        key = ("atom", i, units, tag)
        node = self._stub.get(key)
        if node is None:
            atom = self.ach(units, tag)
            la = ProofTree(ThoughtSequent((i,), FormulaSet.of((atom,)),
                                          FormulaSet.of((atom,))), Rule.LogicalAxiom)
            node = ProofTree(ThoughtSequent((i,), FormulaSet.of((self.neg(units, tag), atom)),
                                            EMPTY_SET), Rule.NotLeft,
                             (la,), RuleMeta(principal=atom))
            self._stub[key] = self._seed(node)
        return node

    def refute_strict(self, i: int, units, tag, x_units, strict: And) -> ProofTree:
        """B[{y > x at i} -> ] when y_i <= x_i: the negated conjunct is
        refuted by a comparison axiom and the conjunction collapses onto it."""
        key = ("strict", i, units, tag, x_units)
        node = self._stub.get(key)
        if node is None:
            neg_part = strict.members[1]
            geq_swap = neg_part.child  # x >= y at i, true here
            nla = ProofTree(ThoughtSequent((i,), EMPTY_SET,
                                           FormulaSet.of((geq_swap,))), Rule.NonLogicalAxiom)
            nl = ProofTree(ThoughtSequent((i,), FormulaSet.of((neg_part,)),
                                          EMPTY_SET), Rule.NotLeft,
                           (nla,), RuleMeta(principal=geq_swap))
            node = ProofTree(ThoughtSequent((i,), FormulaSet.of((strict,)),
                                            EMPTY_SET), Rule.AndLeft,
                             (nl,), RuleMeta(principal=strict, member=neg_part))
            self._stub[key] = self._seed(node)
        return node

    def refute_comparison(self, i: int, units, tag, x_units, geq: Geq) -> ProofTree:
        """B[{y >=_S x} -> ] when the comparison fails at some member: cut
        against the comparison axiom's refutation."""
        key = ("geq", i, units, tag, x_units)
        node = self._stub.get(key)
        if node is None:
            ngeq = Not(geq)
            nla = ProofTree(ThoughtSequent((i,), EMPTY_SET,
                                           FormulaSet.of((ngeq,))), Rule.NonLogicalAxiom)
            la = ProofTree(ThoughtSequent((i,), FormulaSet.of((geq,)),
                                          FormulaSet.of((geq,))), Rule.LogicalAxiom)
            nl = ProofTree(ThoughtSequent((i,), FormulaSet.of((ngeq, geq)),
                                          EMPTY_SET), Rule.NotLeft,
                           (la,), RuleMeta(principal=geq))
            node = ProofTree(ThoughtSequent((i,), FormulaSet.of((geq,)),
                                            EMPTY_SET), Rule.Cut,
                             (nla, nl), RuleMeta(cut=ngeq))
            self._stub[key] = self._seed(node)
        return node


@lru_cache(maxsize=4)
def _atom_space(n: int, bound: int) -> _AtomSpace:
    return _AtomSpace(n, bound)


def _purge_spaces():
    """Drop all interning tables (sweeps call this between grid sizes)."""
    _emitter.cache_clear()
    _atom_space.cache_clear()


def knowledge_set(game: TUGame, coalition: Coalition) -> frozenset[Ach]:
    """Atoms the coalition can actually deliver: support inside the
    coalition, total at most its worth."""
    return frozenset(_knowledge_units(game, coalition, _atom_space(game.n, game.bound)))


def _knowledge_units(game: TUGame, coalition: Coalition, space: _AtomSpace) -> tuple[Ach, ...]:
    """Atoms of the unit tuples supported on the coalition with sum at most
    n v(S), lexicographic (members ascend, so the grid order carries over)."""
    n = game.n
    out = []
    for acc in grid_units(len(coalition), n * game.v(coalition)):
        units = [0] * n
        for p, u in zip(coalition.members, acc):
            units[p - 1] = u
        out.append(space.ach(tuple(units), coalition))
    return tuple(out)


def gamma(game: TUGame, family: Iterable[Coalition]) -> frozenset[Formula]:
    """Knowledge set: positive atoms for known coalitions, negations of
    every other achievability atom on the grid."""
    family = normalize_family(family, game.n)
    space = _atom_space(game.n, game.bound)
    negations = space.negations()  # first: it applies the grid-size guard
    positive: set = set()
    for s in family:
        positive.update(_knowledge_units(game, s, space))
    return negations.difference(map(Not, positive)).union(positive)


# ---------------------------------------------------------------------------
# the acceptability formula


def c_formula(game: TUGame, i: int, x: PayoffVector) -> Formula:
    """The acceptability criterion for player i at proposal x: no coalition
    containing i offers a feasible alternative weakly dominating x on the
    coalition and strictly improving i."""
    if x.n != game.n:
        raise InvalidInputError("payoff vector length does not match player count")
    if not 1 <= i <= game.n:
        raise InvalidInputError(f"no such player: {i}")
    space = _atom_space(game.n, game.bound)
    return Not(space.big_or(i, x.units()))


# ---------------------------------------------------------------------------
# decision procedure


@dataclass(frozen=True)
class Verdict:
    """Outcome of the three-case analysis.

    case "1": no grid alternative even compares (only possible when x sits
    at the grid boundary); case "2.1": alternatives exist but every one is
    negated in the knowledge set; case "2.2": a known feasible dominating
    alternative exists: unacceptable, with the blocking coalition and
    vector.
    """

    acceptable: bool
    case: str
    coalition: Optional[Coalition] = None
    vector: Optional[PayoffVector] = None

    def __bool__(self):
        return self.acceptable


def decide(game: TUGame, i: int, family: Iterable[Coalition], x: PayoffVector) -> Verdict:
    """Acceptable unless some known coalition containing i runs a surplus
    over x.  The witness concentrates the whole surplus on i: members of
    the blocking coalition keep their x-payoffs, i takes the remainder of
    the coalition's worth, everyone else gets zero.
    """
    if x.n != game.n:
        raise InvalidInputError("payoff vector length does not match player count")
    if not 1 <= i <= game.n:
        raise InvalidInputError(f"no such player: {i}")
    family = normalize_family(family, game.n)
    n = game.n
    xu = x.units()
    for s in family:
        if i not in s:
            continue
        total = sum(xu[p - 1] for p in s)
        cap = n * game.v(s)
        if total < cap:
            units = tuple(
                (cap - total + xu[p - 1] if p == i else xu[p - 1]) if p in s else 0
                for p in range(1, n + 1))
            return Verdict(False, "2.2", s, PayoffVector.from_units(units, n))
    if xu[i - 1] >= game.bound * n:
        # no grid vector improves i at all
        return Verdict(True, "1")
    return Verdict(True, "2.1")


# ---------------------------------------------------------------------------
# proof emission


class _Emitter:
    """Builds proof trees over one (game, player, family) knowledge set.

    The knowledge set is built once; branch subtrees that only depend on
    the grid live in the shared atom space, so emitting proofs for many
    proposals against the same knowledge set allocates little beyond the
    top layer of each proof.
    """

    __slots__ = ("i", "space", "prefix", "gamma_fs", "_case1", "checked", "cache")

    def __init__(self, game: TUGame, i: int, family: tuple[Coalition, ...]):
        self.i = i
        self.space = _atom_space(game.n, game.bound)
        self.prefix = (i,)
        self.gamma_fs = FormulaSet.layered(gamma(game, family))
        self._case1 = None
        # check results for the branches in _case1; read with the space's
        # stubs, so checking many proposals re-verifies each only once
        self.checked: dict = {}
        self.cache = ChainCache(self.checked, self.space.checked)

    def _case1_branches(self, disjuncts) -> tuple:
        """Per disjunct, in big_or order (the same for every proposal):
        B[Gamma, y -> ] for its achievability atom y when Gamma negates y,
        a weakened atom refutation; None when y is a positive atom.  Built
        and checked on the first acceptable proof."""
        table = self._case1
        if table is None:
            space, prefix, gamma_fs = self.space, self.prefix, self.gamma_fs
            table = []
            for a in disjuncts:
                atom = a.members[0]
                if atom in gamma_fs.base:
                    table.append(None)
                    continue
                node = ProofTree(
                    ThoughtSequent(prefix, gamma_fs.with_(atom), EMPTY_SET),
                    Rule.Th, (space.refute_atom(self.i, atom.vector, atom.coalition),))
                res = check_proof(node, space.checked)
                assert res.ok, f"internal: bad atom-case branch: {res.reason}"
                self.checked[node] = res
                table.append(node)
            table = self._case1 = tuple(table)
        return table

    def acceptable_proof(self, x_units: tuple[int, ...]) -> ProofTree:
        i = self.i
        prefix = self.prefix
        space = self.space
        gamma_fs = self.gamma_fs
        with_ = gamma_fs.with_
        sequent, tree, meta = ThoughtSequent, ProofTree, RuleMeta
        and_left, empty = Rule.AndLeft, EMPTY_SET
        xi = x_units[i - 1]
        big_or = space.big_or(i, x_units)
        disjuncts = big_or.members
        branches = []
        append = branches.append
        for a, case1 in zip(disjuncts, self._case1_branches(disjuncts)):
            atom = a.members[0]
            concl = sequent(prefix, with_(a), empty)
            if case1 is not None:
                node = tree(concl, and_left, (case1,), meta(a, atom))
            elif atom.vector[i - 1] <= xi:
                strict = a.members[2]
                stub = space.refute_strict(i, atom.vector, atom.coalition, x_units, strict)
                th = tree(sequent(prefix, with_(strict), empty), Rule.Th, (stub,))
                node = tree(concl, and_left, (th,), meta(a, strict))
            else:
                geq = a.members[1]
                stub = space.refute_comparison(i, atom.vector, atom.coalition, x_units, geq)
                th = tree(sequent(prefix, with_(geq), empty), Rule.Th, (stub,))
                node = tree(concl, and_left, (th,), meta(a, geq))
            append(node)
        orleft = ProofTree(ThoughtSequent(prefix, gamma_fs.with_(big_or), EMPTY_SET),
                           Rule.OrLeft, tuple(branches), RuleMeta(principal=big_or))
        return ProofTree(ThoughtSequent(prefix, gamma_fs,
                                        FormulaSet.of((Not(big_or),))),
                         Rule.NotRight, (orleft,), RuleMeta(principal=big_or))

    def unacceptable_proof(self, x_units: tuple[int, ...],
                           tag: Coalition, w_units: tuple[int, ...]) -> ProofTree:
        prefix = self.prefix
        gamma_fs = self.gamma_fs
        space = self.space
        i = self.i
        witness = space.disjunct_for(i, x_units, tag, w_units)
        andr = witness_derivation(prefix, gamma_fs, witness)
        big_or = space.big_or(i, x_units)
        orr = ProofTree(ThoughtSequent(prefix, gamma_fs, FormulaSet.of((big_or,))),
                        Rule.OrRight, (andr,), RuleMeta(principal=big_or, member=witness))
        c = Not(big_or)
        nl = ProofTree(ThoughtSequent(prefix, gamma_fs.with_(c), EMPTY_SET),
                       Rule.NotLeft, (orr,), RuleMeta(principal=big_or))
        return ProofTree(ThoughtSequent(prefix, gamma_fs, FormulaSet.of((Not(c),))),
                         Rule.NotRight, (nl,), RuleMeta(principal=c))


@lru_cache(maxsize=4)
def _emitter(game: TUGame, i: int, family: tuple[Coalition, ...]) -> _Emitter:
    return _Emitter(game, i, family)


def emit_proof(game: TUGame, i: int, family: Iterable[Coalition], x: PayoffVector) -> ProofTree:
    """Proof tree for the decide() verdict: the acceptability formula when
    acceptable, its negation when not.  Always passes check_proof."""
    verdict = decide(game, i, family, x)
    emitter = _emitter(game, i, normalize_family(family, game.n))
    if verdict.acceptable:
        return emitter.acceptable_proof(x.units())
    return emitter.unacceptable_proof(x.units(), verdict.coalition,
                                      verdict.vector.units())
