"""Command-line front end.

Every subcommand prints one JSON report (schema 1) to stdout.  Reports are
bit-for-bit reproducible for a fixed input, flags, and seed, except for the
``elapsed_s`` field.  Exit codes: 0 success, 1 assertion or verification
failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from functools import cache

from .core import (
    EXACT_SOLVER_CAP,
    CertificateError,
    Graph,
    Ordering,
    format_graph,
    iter_bits,
    parse_graph,
)
from .gomoryhu import GH_UPPER_BOUND_CAP, build_gh_tree, gh_lower_bound, gh_upper_bound
from .matroids import CutFunction, GraphicMatroid, parse_matrix
from .mlvc import (
    Hypergraph,
    balance_check,
    best_of_n,
    build_lp,
    emit_lp,
    parse_hypergraph,
    solve_lp,
)
from .partition import compute_principal_partition
from .reductions import (
    mlvc_msvc_shift,
    mlvc_to_weighted_graphic,
    solve_mlvc_via_apex,
    weighted_to_unweighted,
)
from .solve import (
    approx_monotone_mlop,
    cactus_exact,
    exact_mlop_dp,
    exact_weighted_mlop_dp,
    small_basis_exact,
)


def jsonable(value):
    """Exact values for the report: fractions become 'p/q' strings."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, Ordering):
        return [e + 1 for e in value.sequence()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def parse_instance(path: str, kind: str):
    """Read and validate an instance file of the given kind."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if kind == "graph":
        return parse_graph(text)
    if kind == "matrix":
        return parse_matrix(text)
    if kind == "hypergraph":
        return parse_hypergraph(text)
    raise ValueError(f"unknown instance kind {kind!r}")


def _digest(path: str | None) -> str | None:
    if path is None:
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_matroid(args):
    instance = parse_instance(args.input, args.kind)
    if args.kind == "graph":
        return instance, GraphicMatroid(instance)
    if args.kind == "matrix":
        return instance, instance  # a VectorMatroid is its own oracle
    raise ValueError("this command accepts graph or matrix instances")


def _integer_costs(G: Graph) -> list[int] | None:
    if G.weights is None:
        return None
    costs = []
    for w in G.weights:
        if w.denominator != 1:
            raise ValueError("weighted solving needs integer edge costs")
        costs.append(int(w))
    return costs


def _cmd_solve(args):
    instance, matroid = _load_matroid(args)
    if args.exact == "dp":
        costs = _integer_costs(instance) if args.kind == "graph" else None
        if costs is not None:
            value, sigma = exact_weighted_mlop_dp(matroid, costs)
        else:
            value, sigma = exact_mlop_dp(matroid)
    elif args.exact == "fixed-basis":
        value, sigma = small_basis_exact(matroid, jobs=args.jobs)
    elif args.exact == "cactus":
        if args.kind != "graph":
            raise ValueError("the cactus solver needs a graph instance")
        value, sigma = cactus_exact(instance)
    return {"value": jsonable(value), "ordering": jsonable(sigma)}


def _cmd_approx(args):
    _, matroid = _load_matroid(args)
    sigma, cert = approx_monotone_mlop(matroid)
    return {
        "value": jsonable(cert.achieved),
        "ordering": jsonable(sigma),
        "lower": jsonable(cert.lower),
        "upper": jsonable(cert.upper),
        "guarantee": jsonable(cert.guarantee),
        "trivial": cert.trivial,
    }


def _cmd_partition(args):
    _, matroid = _load_matroid(args)
    pp = compute_principal_partition(matroid)
    # the report lists the zero set (the step at lambda = 0) apart from the
    # chain, which runs from the empty set to E - zero set
    sets, values, zero_set = pp.sets, pp.critical_values, 0
    if values and values[0] == 0:
        sets, values, zero_set = sets[1:], values[1:], sets[1]

    def members(mask):
        return [e + 1 for e in iter_bits(mask)]

    return {
        "zero_set": members(zero_set),
        "chain": [members(S & ~zero_set) for S in sets],
        "critical_values": [jsonable(lam) for lam in values],
        "trivial": zero_set == matroid.full_mask,
    }


def _cmd_reduce(args):
    instance = parse_instance(args.input, "graph")
    if args.source == "mlvc" and args.target == "graphic-mlop":
        red = mlvc_to_weighted_graphic(instance)
        target = Graph(
            red.apex_graph.n,
            red.apex_graph.edges,
            tuple(Fraction(c) for c in red.costs),
        )
        results = {
            "target_instance": format_graph(target),
            "cost_on_star_edges": red.k,
            "offset": red.base_offset,
            "identity": "weighted optimum = MLVC optimum + offset",
        }
        if red.apex_graph.m <= EXACT_SOLVER_CAP:
            pi, value, _, cert = solve_mlvc_via_apex(instance)
            results["certificate"] = {
                "weighted_optimum": jsonable(cert.source_value),
                "mlvc_optimum": jsonable(cert.target_value),
                "shift": jsonable(cert.shift),
                "holds": cert.holds(),
            }
            results["labeling"] = jsonable(pi)
        else:
            results["certificate"] = None
            results["note"] = (
                "apex instance beyond the exact cap; certificate values "
                "require an external solve"
            )
    elif args.source == "mlvc" and args.target == "msvc":
        if args.labeling:
            pi = Ordering(tuple(int(x) for x in args.labeling.split(",")))
        else:
            pi = Ordering.identity(instance.n)
        comp, pi2, cert = mlvc_msvc_shift(instance, pi)
        results = {
            "target_instance": format_graph(comp),
            "target_labeling": jsonable(pi2),
            "certificate": {
                "mlvc": jsonable(cert.source_value),
                "msvc": jsonable(cert.target_value),
                "shift": jsonable(cert.shift),
                "holds": cert.holds(),
            },
        }
    elif args.source == "weighted-mlop" and args.target == "mlop":
        costs = _integer_costs(instance)
        if costs is None:
            raise ValueError("weighted-mlop input needs integer edge weights")
        matroid = GraphicMatroid(Graph(instance.n, instance.edges))
        N, sigma_exp, cert = weighted_to_unweighted(matroid, costs)
        expanded = Graph(
            instance.n,
            tuple(instance.edges[N.parent_of[i]] for i in range(N.m)),
        )
        results = {
            "target_instance": format_graph(expanded),
            "certificate": {
                "weighted_objective": jsonable(cert.source_value),
                "expanded_objective": jsonable(cert.target_value),
                "holds": cert.holds(),
            },
        }
    else:
        raise ValueError(f"unsupported reduction {args.source} -> {args.target}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(results["target_instance"])
    return results


def _cmd_mlvc(args):
    if args.sample is None and not args.lp and args.balance is None:
        raise ValueError("choose at least one of --sample N, --lp, --balance N")
    if args.emit and not args.lp:
        raise ValueError("--emit writes the LP relaxation: it needs --lp")
    instance = parse_instance(args.input, args.kind)
    results = {}
    if args.sample is not None:
        if args.kind != "graph":
            raise ValueError("--sample needs a graph instance")
        pi, value = best_of_n(instance, args.sample, seed=args.seed)
        results["samples"] = args.sample
        results["value"] = value
        results["labeling"] = jsonable(pi)
    if args.lp:
        if args.kind == "hypergraph":
            raise ValueError("the LP relaxation is defined for graphs")
        model = build_lp(instance)
        results["lp_variables"] = model.num_vars
        results["lp_constraints"] = model.num_constraints
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(emit_lp(model))
            results["lp_emitted_to"] = args.emit
        else:
            results["lp_value"] = jsonable(solve_lp(model))
    if args.balance is not None:
        hypergraph = (
            instance
            if args.kind == "hypergraph"
            else Hypergraph.from_graph(instance)
        )
        report = balance_check(hypergraph, args.balance, seed=args.seed, jobs=args.jobs)
        results["balance"] = {
            "trials": report.trials,
            "floor": jsonable(report.floor),
            "pair_probabilities": {
                f"{a}<{b}": p for (a, b), p in sorted(report.probabilities.items())
            },
            "worst_pair": None if report.worst_pair is None else list(report.worst_pair),
            "worst_probability": report.worst_probability,
            "flagged": [list(p) for p in report.flagged],
        }
    return results


def _cmd_ghtree(args):
    instance = parse_instance(args.input, "graph")
    cut = CutFunction(instance)
    tree = build_gh_tree(cut, seed=args.seed)
    results = {
        "edges": [[u + 1, v + 1, jsonable(w)] for u, v, w in tree.edges],
        "total_weight": jsonable(tree.total_weight()),
        "lower_bound": jsonable(gh_lower_bound(tree)),
    }
    if instance.n <= GH_UPPER_BOUND_CAP:
        upper, sigma = gh_upper_bound(cut, tree)
        results["upper_bound"] = jsonable(upper)
        results["upper_ordering"] = jsonable(sigma)
    if args.runs > 1:
        # the tree above is run 0
        totals = {tree.total_weight()} | {
            build_gh_tree(cut, seed=args.seed + i).total_weight() for i in range(1, args.runs)
        }
        results["runs"] = args.runs
        results["totals_equal"] = len(totals) == 1
        if not results["totals_equal"]:
            raise CertificateError("Gomory-Hu total weight varied across runs")
    return results


def _cmd_verify(args):
    # imported here: the suite and its instance generators are needed by
    # this command only, and every other command's start-up would pay them
    from . import acceptance

    if args.criterion is not None:
        results = [acceptance.run_criterion(args.criterion)]
    else:
        results = acceptance.run_all(echo=lambda line: print(line, file=sys.stderr))
    payload = {
        "suite": args.suite,
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return payload


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ordolab",
        description="Linear ordering problems over submodular set functions: "
        "exact solvers, certified approximations, reductions, and bounds.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for sampling and basis search")
    # accept --seed/--jobs after the subcommand as well; SUPPRESS keeps the
    # top-level value when the subcommand does not restate them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="exact ordering optimum")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("graph", "matrix"), default="graph")
    p.add_argument("--exact", choices=("dp", "fixed-basis", "cactus"), default="dp")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("approx", parents=[common], help="certified approximation")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("graph", "matrix"), default="graph")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("partition", parents=[common], help="principal partition and critical values")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("graph", "matrix"), default="graph")
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("reduce", parents=[common], help="instance transformations with certificates")
    p.add_argument("--from", dest="source", required=True,
                   choices=("mlvc", "weighted-mlop"))
    p.add_argument("--to", dest="target", required=True,
                   choices=("graphic-mlop", "msvc", "mlop"))
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="write the target instance file here")
    p.add_argument("--labeling", help="comma-separated positions, 1-based")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("mlvc", parents=[common], help="sampling solver, balance report, LP relaxation")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("graph", "hypergraph"), default="graph")
    p.add_argument("--sample", type=int, help="best labeling over N sampled extensions")
    p.add_argument("--lp", action="store_true", help="solve the LP relaxation exactly")
    p.add_argument("--emit", help="write the LP in text form instead of solving")
    p.add_argument("--balance", type=int, help="Monte-Carlo balance report with N trials")
    p.set_defaults(fn=_cmd_mlvc)

    p = sub.add_parser("ghtree", parents=[common], help="Gomory-Hu tree of a graph cut function")
    p.add_argument("--input", required=True)
    p.add_argument("--runs", type=int, default=1, help="re-run with shuffled pivots")
    p.set_defaults(fn=_cmd_ghtree)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance suite")
    p.add_argument("--suite", choices=("acceptance",), default="acceptance")
    p.add_argument("--criterion", type=int, help="run a single criterion")
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv=None) -> tuple[dict, int]:
    """Execute one command; returns (report, exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    input_path = getattr(args, "input", None)
    report = {
        "schema": 1,
        "command": args.command,
        "seed": args.seed,
        "input_path": input_path,
        "input_sha256": _digest(input_path),
    }
    code = 0
    try:
        report["results"] = args.fn(args)
        if args.command == "verify" and not report["results"]["all_passed"]:
            code = 1
    except (ValueError, OSError) as exc:
        report["error"] = str(exc)
        code = 2
    except AssertionError as exc:
        report["error"] = str(exc)
        code = 1
    report["elapsed_s"] = round(time.monotonic() - started, 6)
    return report, code


def main(argv=None) -> int:
    report, code = run(argv)
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
