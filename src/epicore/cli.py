"""Command-line front end.

Subcommands:
  core      print the integer core of a game
  accept    one player's verdict on a proposal under a coalition family
  prove     write the acceptability proof tree as JSON and re-check it
  check     run the sequent kernel over a proof file
  verify    survey knowledge profiles: unanimous acceptance vs the core
  balanced  list the minimal balanced coalition families for n players
  bs        core nonemptiness via balancedness
  replica   effective coalitions, knowledge growth, and the grid core

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 unsupported size.  All output orderings are canonical, so identical
inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from functools import lru_cache
from typing import Optional

from .acceptability import KnowledgeProfile, decide, emit_proof, parse_family
from .analysis import (
    member_profiles,
    minimal_balanced_families,
    bondareva_shapley_nonempty,
    profile_survey,
)
from .errors import InvalidInputError, UnsupportedSizeError, VerificationFailure
from .games import Coalition, PayoffVector, enumerate_integer_core
from .jsonio import (
    allocation_to_obj,
    dump_json,
    economy_to_obj,
    load_economy,
    load_game,
    load_json,
    proof_from_obj,
    proof_to_obj,
    rational_from_str,
    rational_to_str,
)
from .logic import check_proof, collector_paused
from .replica import (
    ReplicaEconomy,
    effective_coalitions,
    grid_core,
    knowledge_growth,
)


def _parse_vector(text: str) -> PayoffVector:
    parts = [p for p in text.split(",") if p.strip()]
    return PayoffVector(tuple(rational_from_str(p) for p in parts))


def _vector_text(x: PayoffVector) -> str:
    return ",".join(rational_to_str(e) for e in x.entries)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_core(args) -> int:
    game = load_game(args.game)
    vectors = enumerate_integer_core(game)
    for x in vectors:
        print(_vector_text(x))
    if args.output:
        dump_json([[rational_to_str(e) for e in x.entries] for x in vectors],
                  args.output)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{i}" for i in range(1, game.n + 1)])
            for x in vectors:
                w.writerow([rational_to_str(e) for e in x.entries])
    return 0


def _cmd_accept(args) -> int:
    game = load_game(args.game)
    family = parse_family(args.knowledge)
    x = _parse_vector(args.vector)
    verdict = decide(game, args.player, family, x)
    print(f"verdict: {'Accept' if verdict.acceptable else 'Reject'}")
    print(f"case: {verdict.case}")
    if verdict.coalition is not None:
        print(f"witness coalition: {verdict.coalition}")
        print(f"witness vector: {_vector_text(verdict.vector)}")
    return 0


def _cmd_prove(args) -> int:
    game = load_game(args.game)
    family = parse_family(args.knowledge)
    x = _parse_vector(args.vector)
    verdict = decide(game, args.player, family, x)
    proof = emit_proof(game, args.player, family, x)
    dump_json(proof_to_obj(proof), args.output)
    # round-trip before trusting the artifact: what was written must
    # re-parse and pass the kernel
    reloaded = proof_from_obj(load_json(args.output))
    res = check_proof(reloaded)
    if not res.ok:
        print(f"verification failure: written proof rejected at {list(res.path)}: "
              f"{res.reason}", file=sys.stderr)
        return 2
    print(f"proof written: {args.output}")
    print(f"verdict: {'Accept' if verdict.acceptable else 'Reject'}")
    print(f"nodes: {proof.size()}")
    print("check: ok")
    return 0


def _cmd_check(args) -> int:
    proof = proof_from_obj(load_json(args.proof))
    res = check_proof(proof)
    if not res.ok:
        print(f"rejected at {list(res.path)}: {res.reason}", file=sys.stderr)
        return 2
    root = proof.sequent
    print(f"ok: root prefix {list(root.prefix)}, "
          f"{len(root.ante)} antecedent / {len(root.succ)} succedent "
          f"formula(s), {proof.size()} node(s)")
    return 0


def _profiles_from_file(path: str, n: int):
    obj = load_json(path)
    if not isinstance(obj, list):
        raise InvalidInputError(f"{path}: profile file must hold an array of profiles")
    out = []
    for entry in obj:
        if not isinstance(entry, list):
            raise InvalidInputError(f"{path}: each profile must be an array of families")
        fams = [tuple(Coalition.parse(key) for key in fam) for fam in entry]
        out.append(KnowledgeProfile.of(n, fams))
    return out


def _cmd_verify(args) -> int:
    game = load_game(args.game)
    if args.profiles == "all":
        profiles = member_profiles(game.n)
    elif args.profiles == "covering":
        profiles = [p for p in member_profiles(game.n) if p.covering(game.n)]
    else:
        profiles = _profiles_from_file(args.profiles, game.n)
    reports = profile_survey(game, profiles)
    payload = []
    for r in reports:
        payload.append({
            "game": r.game_id,
            "profile": [[str(s) for s in fam] for fam in r.profile.families],
            "characterizes_core": r.characterizes_core,
            "violations": [[rational_to_str(e) for e in x.entries]
                           for x in r.violations],
            "warnings": list(r.warnings),
        })
    if args.output:
        dump_json(payload, args.output)
    good = sum(1 for r in reports if r.characterizes_core)
    print(f"profiles checked: {len(reports)}")
    print(f"characterize the core: {good}")
    print(f"with violations: {len(reports) - good}")
    bad = [r for r in reports if not r.characterizes_core]
    if bad and not args.output:
        worst = bad[0]
        x = worst.violations[0]
        print(f"first violation: accepted non-core vector {_vector_text(x)}")
    return 0


def _cmd_balanced(args) -> int:
    families = minimal_balanced_families(args.players)
    for bf in families:
        keys = ";".join(str(s) for s in bf.family)
        weights = ",".join(rational_to_str(w) for w in bf.weights)
        print(f"{keys}  weights {weights}")
    print(f"total: {len(families)}")
    return 0


def _cmd_bs(args) -> int:
    game = load_game(args.game)
    nonempty = bondareva_shapley_nonempty(game)
    print(f"core nonempty: {'yes' if nonempty else 'no'}")
    return 0


def _cmd_replica(args) -> int:
    economy = load_economy(args.economy)
    if args.replicas is not None:
        economy = ReplicaEconomy(economy.base, args.replicas)
    k = economy.k
    den = economy.base.grid_denominator
    coalitions = effective_coalitions(k)
    print(f"economy: D={den}, k={k}, utility ces (exponent 1/2)")
    print(f"effective coalitions: {len(coalitions)}")
    for s in coalitions:
        inner = ",".join(f"({i},{t})" for i, t in sorted(s))
        print(f"  {{{inner}}}")
    growth = None
    if k >= 2:
        count, average = knowledge_growth(k)
        growth = {"count": count, "average": rational_to_str(average)}
        print(f"knowledge growth: count {count}, average {rational_to_str(average)}")
    core = None
    try:
        core = sorted(grid_core(economy), key=lambda a: a.bundles)
        print(f"grid core: {len(core)} allocation(s)")
        for a in core:
            inner = "; ".join(f"({rational_to_str(b[0])},{rational_to_str(b[1])})"
                              for b in a.bundles)
            print(f"  {inner}")
    except UnsupportedSizeError as e:
        print(f"grid core: skipped ({e})")
    if args.output:
        payload = {
            "economy": economy_to_obj(economy),
            "effective_coalitions": [[list(p) for p in sorted(s)] for s in coalitions],
            "knowledge_growth": growth,
            "grid_core": None if core is None else [allocation_to_obj(a) for a in core],
        }
        dump_json(payload, args.output)
    if args.csv:
        if core is None:
            raise InvalidInputError("no grid core to export (size guard)")
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            header = []
            for i, t in economy.participants():
                header += [f"p{i}_{t}_c1", f"p{i}_{t}_c2"]
            w.writerow(header)
            for a in core:
                w.writerow([rational_to_str(c) for b in a.bundles for c in b])
    return 0


# the proof commands: their formulas, proof trees and JSON rows hold no
# reference cycles, so they run with the cyclic collector paused
_ACYCLIC = frozenset((_cmd_prove, _cmd_check))


# ---------------------------------------------------------------------------
# argument plumbing


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="epicore",
        description="Exact cores, acceptability proofs, and replica economies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core", help="print the integer core of a game")
    p.add_argument("game", help="game JSON file")
    p.add_argument("-o", "--output", help="also write the vectors as JSON")
    p.add_argument("--csv", help="also write the vectors as CSV")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("accept", help="verdict for one player and proposal")
    p.add_argument("game")
    p.add_argument("-i", "--player", type=int, required=True)
    p.add_argument("-K", "--knowledge", default="",
                   help='coalition family, e.g. "1;1,2" (empty for none)')
    p.add_argument("-x", "--vector", required=True, help='proposal, e.g. "9,21"')
    p.set_defaults(func=_cmd_accept)

    p = sub.add_parser("prove", help="write the acceptability proof as JSON")
    p.add_argument("game")
    p.add_argument("-i", "--player", type=int, required=True)
    p.add_argument("-K", "--knowledge", default="")
    p.add_argument("-x", "--vector", required=True)
    p.add_argument("-o", "--output", required=True, help="proof file to write")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("check", help="check a proof file with the kernel")
    p.add_argument("proof")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="survey profiles against the core")
    p.add_argument("game")
    p.add_argument("--profiles", default="covering",
                   help='"covering", "all", or a JSON file of profiles')
    p.add_argument("-o", "--output", help="write the reports as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("balanced", help="minimal balanced families")
    p.add_argument("players", type=int)
    p.set_defaults(func=_cmd_balanced)

    p = sub.add_parser("bs", help="core nonemptiness via balancedness")
    p.add_argument("game")
    p.set_defaults(func=_cmd_bs)

    p = sub.add_parser("replica", help="effective coalitions and the grid core")
    p.add_argument("economy", help="economy config JSON file")
    p.add_argument("-k", "--replicas", type=int, default=None,
                   help="override the replica count from the config")
    p.add_argument("-o", "--output", help="write the full report as JSON")
    p.add_argument("--csv", help="write the grid core as CSV")
    p.set_defaults(func=_cmd_replica)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        with collector_paused() if args.func in _ACYCLIC else nullcontext():
            return args.func(args)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except UnsupportedSizeError as e:
        print(f"unsupported size: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
