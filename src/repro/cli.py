"""Command-line interface.

Subcommands::

    repro-mis run     --algorithm sleeping --family gnp-sparse --n 256
    repro-mis sweep   --algorithm fast-sleeping --sizes 64,128,256
    repro-mis table1  --sizes 64,128,256 --trials 3
    repro-mis tree    --n 64 --algorithm sleeping --max-depth 4
    repro-mis energy  --n 256 --family geometric
    repro-mis serve   --port 8765 --workers 2

``run``/``sweep``/``table1`` accept ``--server URL`` to route through a
running ``repro-mis serve`` instance (the thin-client mode: identical
output, warm-cache latency); without a reachable server they warn and
degrade to local execution unless ``--no-fallback`` is set.

(Also runnable as ``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

#: Exit codes (documented in ``sweep --help``; stable for scripting).
EXIT_OK = 0
EXIT_TRIAL_FAILED = 1
EXIT_CONFIG = 2
EXIT_CORRUPT = 3
EXIT_UNREACHABLE = 4

_EXIT_CODE_HELP = """\
exit codes:
  0  success
  1  trial failure (invalid MIS, failed sweep trials, server-side solve
     error)
  2  configuration error (bad flag combination, invalid plan/manifest,
     unsupported knob combination)
  3  sweep frontier corruption (--sweep-dir state failed integrity
     checks; see docs/sweeps.md)
  4  --server unreachable with --no-fallback set
"""

from .analysis.complexity import run_trial, summarize, sweep
from .analysis.recursion_tree import build_tree, render_tree, tree_stats
from .analysis.tables import Table, build_table1
from .api import algorithm_names
from .graphs.generators import family_names, make_family_graph
from .plan import PLAN_FIELDS, SINGLE_RUN, RunPlan
from .profiling import profile_phases
from .sim.energy import DEFAULT_MODEL


def _parse_sizes(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"sizes must be comma-separated integers, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mis",
        description=(
            "Sleeping-model MIS: reproduction of Chatterjee, Gmyr, "
            "Pandurangan (PODC 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--algorithm",
            default="fast-sleeping",
            choices=algorithm_names(),
            help="MIS algorithm to run",
        )
        p.add_argument(
            "--family",
            default="gnp-sparse",
            choices=family_names(),
            help="graph family",
        )
        p.add_argument("--seed", type=int, default=0, help="master seed")

    def engine_opt(p: argparse.ArgumentParser, default: str) -> None:
        p.add_argument(
            "--engine",
            default=default,
            choices=["auto", "generators", "vectorized"],
            help=(
                "execution engine (every algorithm has a vectorized "
                "engine; tracing/congest/fault workloads stay on "
                "generators)"
            ),
        )
        p.add_argument(
            "--rng",
            default="pernode",
            choices=["pernode", "batched"],
            help=(
                "random-stream format: pernode (v1, default) or batched "
                "(v2, whole-array draws; same seed gives different runs "
                "than v1)"
            ),
        )
        p.add_argument(
            "--graph-source",
            default="auto",
            choices=["auto", "networkx", "arrays"],
            help=(
                "how graphs are built: networkx generators or the "
                "direct-to-CSR array samplers (identical seeded edge "
                "sets; auto picks arrays whenever the family supports it)"
            ),
        )
        p.add_argument(
            "--graph-rng",
            default="legacy",
            choices=["legacy", "batched"],
            help=(
                "graph-sampling stream: legacy (v1, networkx's exact "
                "draw order) or batched (v2, vectorized geometric-skip "
                "sampling; same seed gives different graphs than v1)"
            ),
        )
        p.add_argument(
            "--result",
            default="auto",
            choices=["auto", "legacy", "arrays"],
            help=(
                "result representation: legacy per-node NodeStats dicts "
                "or struct-of-arrays (auto: arrays exactly when a "
                "vectorized engine runs the trial)"
            ),
        )
        p.add_argument(
            "--dtype",
            default="default",
            choices=["default", "narrow"],
            help=(
                "result column dtypes: default (historical int64 "
                "columns, bit-identical) or narrow (smallest dtype "
                "holding each column exactly -- halves result memory "
                "at 10^8 nodes; identical measures either way)"
            ),
        )

    def server_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--server", default=None, metavar="URL",
            help=(
                "route through a running repro-mis serve instance (e.g. "
                "http://127.0.0.1:8765); identical output to local "
                "execution, with the server's warm cache.  Unreachable "
                "servers degrade to local execution with a warning"
            ),
        )
        p.add_argument(
            "--no-fallback", action="store_true",
            help=(
                "with --server: exit with code 4 instead of degrading "
                "to local execution when the server is unreachable"
            ),
        )

    run_p = sub.add_parser("run", help="run once and print the measures")
    common(run_p)
    engine_opt(run_p, "generators")
    server_opt(run_p)
    run_p.add_argument("--n", type=int, default=128, help="graph size")
    run_p.add_argument(
        "--profile-phases",
        action="store_true",
        help=(
            "append a per-phase wall-time table (sample, csr_build, "
            "engine, result_build) and the peak RSS after the run "
            "report, timed without tracemalloc; local execution only "
            "(ignored with --server)"
        ),
    )

    sweep_p = sub.add_parser(
        "sweep", help="measure across sizes",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(sweep_p)
    engine_opt(sweep_p, "auto")
    server_opt(sweep_p)
    sweep_p.add_argument(
        "--sizes", type=_parse_sizes, default=[64, 128, 256], help="e.g. 64,128,256"
    )
    sweep_p.add_argument("--trials", type=int, default=3)
    sweep_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the batch runner (default: sequential)",
    )
    sweep_p.add_argument(
        "--measure", default="node_averaged_awake",
        help="which measure to summarize",
    )
    sweep_p.add_argument(
        "--manifest", default=None, metavar="PATH",
        help=(
            "run the trials of a sweep manifest JSON (see docs/sweeps.md) "
            "instead of expanding --sizes/--trials in process"
        ),
    )
    sweep_p.add_argument(
        "--sweep-dir", default=None, metavar="DIR",
        help=(
            "disk-backed resumable mode: track every trial through a "
            "frontier in DIR (claims, per-trial result artifacts, "
            "crash-resume); required for --resume/--budget-s"
        ),
    )
    sweep_p.add_argument(
        "--resume", action="store_true",
        help=(
            "reattach to an existing frontier in --sweep-dir and finish "
            "its pending/failed trials (completed trials are never "
            "re-run); on a fresh directory this simply starts the sweep"
        ),
    )
    sweep_p.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help=(
            "stop claiming new trials after this many seconds (in-flight "
            "trials finish; resume later with --resume)"
        ),
    )
    sweep_p.add_argument(
        "--claim-ttl", type=float, default=None, metavar="SECONDS",
        help=(
            "seconds before a crashed worker's claim expires and its "
            "trial is re-issued (default: 900)"
        ),
    )
    sweep_p.add_argument(
        "--emit-manifest", default=None, metavar="PATH",
        help=(
            "expand the sweep spec (flags or --manifest) to a manifest "
            "JSON at PATH and exit without running any trial"
        ),
    )

    table_p = sub.add_parser("table1", help="reproduce the paper's Table 1")
    table_p.add_argument(
        "--sizes", type=_parse_sizes, default=[64, 128, 256]
    )
    table_p.add_argument("--family", default="gnp-sparse", choices=family_names())
    table_p.add_argument("--trials", type=int, default=3)
    table_p.add_argument("--seed", type=int, default=0)
    engine_opt(table_p, "auto")
    server_opt(table_p)
    table_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the batch runner (default: sequential)",
    )
    table_p.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of text"
    )

    tree_p = sub.add_parser("tree", help="render the recursion tree (Figure 1)")
    common(tree_p)
    tree_p.add_argument("--n", type=int, default=32)
    tree_p.add_argument("--max-depth", type=int, default=None)

    energy_p = sub.add_parser("energy", help="compare energy against Luby")
    energy_p.add_argument("--n", type=int, default=256)
    energy_p.add_argument("--family", default="geometric", choices=family_names())
    energy_p.add_argument("--seed", type=int, default=0)

    serve_p = sub.add_parser(
        "serve",
        help="run the MIS solve service (see docs/service.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8765)
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes in the solve pool",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=8,
        help=(
            "queued+running jobs past which new requests get 429 "
            "backpressure"
        ),
    )
    serve_p.add_argument(
        "--cache-size", type=int, default=256,
        help="entries in the plan-keyed LRU result cache",
    )
    serve_p.add_argument(
        "--deadline-s", type=float, default=None,
        help=(
            "default per-request deadline; jobs past it are reaped "
            "(requests can set their own via deadline_s)"
        ),
    )

    report_p = sub.add_parser(
        "report", help="regenerate the full reproduction report (markdown)"
    )
    report_p.add_argument(
        "--sizes", type=_parse_sizes, default=[64, 128, 256]
    )
    report_p.add_argument("--family", default="gnp-sparse", choices=family_names())
    report_p.add_argument("--trials", type=int, default=2)
    report_p.add_argument("--seed", type=int, default=0)
    report_p.add_argument(
        "--output", default=None, help="write to a file instead of stdout"
    )

    return parser


#: argparse dests named differently from the RunPlan field they set.
_DEST_FIELDS = {"jobs": "n_jobs"}


def plan_from_args(args: argparse.Namespace) -> RunPlan:
    """Map parsed CLI flags onto one validated :class:`RunPlan`.

    Every configuration flag corresponds to exactly one plan field
    (asserted by the CLI tests); a field whose flag a subcommand omits
    takes the single-run profile :data:`repro.plan.SINGLE_RUN`
    (``engine="generators"``/``result="legacy"`` -- what ``tree`` and
    ``energy`` always ran with) or the RunPlan default.  Building the
    plan here means every subcommand validates its whole knob combination
    up front, with the shared suggestion-bearing errors, before any graph
    is built.
    """
    knobs = {}
    for dest, value in vars(args).items():
        field = _DEST_FIELDS.get(dest, dest)
        if field in PLAN_FIELDS:
            knobs[field] = value
    return RunPlan(**{**SINGLE_RUN, **knobs})


def _with_server(args: argparse.Namespace, remote, local) -> int:
    """Route through ``--server`` when set; degrade to ``local`` with a
    warning when unreachable (or exit 4 under ``--no-fallback``).

    Server-reported validation errors (bad plan/manifest/request) map to
    the configuration exit code, everything else server-side to the
    trial-failure code -- the same split the local paths use.
    """
    if getattr(args, "server", None) is None:
        return local()
    from .service.client import (
        ServiceClient, ServiceError, ServiceUnreachable,
    )

    client = ServiceClient(args.server)
    try:
        return remote(client)
    except ServiceUnreachable as exc:
        if args.no_fallback:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNREACHABLE
        print(
            f"warning: {exc}; falling back to local execution",
            file=sys.stderr,
        )
        return local()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        config_codes = (
            "bad_request", "unknown_field", "unsupported_version",
            "invalid_plan", "invalid_manifest",
        )
        return EXIT_CONFIG if exc.code in config_codes else EXIT_TRIAL_FAILED


def _print_run(algorithm: str, family: str, n, mis_size, row) -> int:
    """The ``run`` report, printed from a flattened trial row -- the one
    formatter both the local path and the ``--server`` path feed, so
    their outputs are byte-identical (test-enforced)."""
    print(f"algorithm          : {algorithm}")
    print(f"graph              : {family} n={n}")
    print(f"MIS size           : {mis_size}")
    print(f"valid MIS          : {row['valid']}")
    print(f"node-avg awake     : {row['node_averaged_awake']:.2f}")
    print(f"worst-case awake   : {row['worst_case_awake']}")
    print(f"node-avg rounds    : {row['node_averaged_rounds']:.1f}")
    print(f"worst-case rounds  : {row['worst_case_rounds']}")
    print(
        f"messages / bits    : {row['total_messages']} / {row['total_bits']}"
    )
    print(f"total energy       : {row['total_energy']:.1f}")
    return EXIT_OK if row["valid"] else EXIT_TRIAL_FAILED


def _cmd_run(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    plan = plan_from_args(args)

    def local() -> int:
        profiling = getattr(args, "profile_phases", False)
        with profile_phases() if profiling else nullcontext() as prof:
            graph = plan.build_graph()
            result, trial = run_trial(graph, plan=plan, family=args.family)
        code = _print_run(
            args.algorithm, args.family, result.n,
            len(result.mis), asdict(trial),
        )
        if prof is not None:
            print()
            print(prof.format())
        return code

    def remote(client) -> int:
        response = client.solve(plan.to_dict(), seed=args.seed)
        return _print_run(
            args.algorithm, args.family, response.row["n"],
            response.mis_size, response.row,
        )

    return _with_server(args, remote, local)


def _sweep_manifest(args: argparse.Namespace):
    """The manifest behind a ``sweep`` invocation: loaded or expanded."""
    from .sweeps import SweepManifest

    if args.manifest is not None:
        return SweepManifest.load(args.manifest)
    return SweepManifest.expand(
        plan_from_args(args).replace(n_jobs=None),
        sizes=args.sizes, trials=args.trials, seed0=args.seed,
    )


def _print_trial_table(args: argparse.Namespace, rows) -> None:
    summary = summarize(rows, args.measure)
    # No rows (``--trials 0``): title the table with the requested plan.
    algorithms = sorted({row.algorithm for row in rows}) or [args.algorithm]
    families = sorted({row.family for row in rows}) or [args.family]
    table = Table(
        title=(
            f"{args.measure} of {', '.join(algorithms)} "
            f"on {', '.join(families)}"
        ),
        headers=["n", "mean", "min", "max", "stdev"],
    )
    for n, row in summary.items():
        table.add_row(
            n, f"{row['mean']:.2f}", f"{row['min']:.2f}",
            f"{row['max']:.2f}", f"{row['stdev']:.2f}",
        )
    print(table.to_text())


def _cmd_sweep_frontier(args: argparse.Namespace) -> int:
    """The resumable (disk-backed) path of the ``sweep`` subcommand."""
    from .analysis.complexity import Trial
    from .sweeps import (
        DEFAULT_CLAIM_TTL, FrontierCorruption, TrialFrontier, run_sweep,
        write_merged,
    )

    manifest = _sweep_manifest(args)
    claim_ttl = (
        DEFAULT_CLAIM_TTL if args.claim_ttl is None else args.claim_ttl
    )
    directory = args.sweep_dir
    try:
        if args.resume:
            frontier = TrialFrontier.attach(
                directory, manifest, claim_ttl=claim_ttl
            )
        else:
            frontier = TrialFrontier.create(
                directory, manifest, claim_ttl=claim_ttl
            )
    except FrontierCorruption as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    report = run_sweep(
        frontier, n_jobs=args.jobs, budget_s=args.budget_s,
    )
    status = frontier.status()
    print(
        f"sweep {manifest.name!r}: {status['done']}/{status['total']} done, "
        f"{status['failed']} failed, {status['pending']} pending "
        f"(this run: {report.executed} executed, "
        f"{report.skipped_done} already done, "
        f"{report.reissued_failed} failures re-issued, "
        f"{report.expired_claims} stale claims expired)"
    )
    for error in report.errors:
        print(f"  failed {error}", file=sys.stderr)
    if report.budget_exhausted and not report.all_done:
        print(
            f"budget exhausted after {report.wall_clock_s:.1f}s; resume "
            f"with: repro-mis sweep --sweep-dir {directory} --resume"
        )
    if frontier.is_complete:
        merged = write_merged(frontier)
        print(f"merged result set: {merged}")
        rows = [
            Trial(**payload["row"])
            for _, payload in frontier.iter_results()
        ]
        _print_trial_table(args, rows)
    return 0 if report.failed == 0 else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.emit_manifest is not None:
        manifest = _sweep_manifest(args)
        manifest.save(args.emit_manifest)
        print(
            f"wrote manifest {manifest.name!r}: {len(manifest)} trials, "
            f"key {manifest.manifest_key()[:12]} -> {args.emit_manifest}"
        )
        return 0
    if args.server is not None and (
        args.sweep_dir is not None or args.resume or args.budget_s is not None
    ):
        print(
            "error: --server runs trials remotely and cannot drive a "
            "local disk-backed frontier; drop --server, or drop "
            "--sweep-dir/--resume/--budget-s",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.server is not None:
        from .analysis.complexity import Trial

        def remote(client) -> int:
            manifest = _sweep_manifest(args)
            response = client.sweep(manifest.to_dict())
            rows = [Trial(**row) for row in response.rows]
            _print_trial_table(args, rows)
            return EXIT_OK

        return _with_server(args, remote, lambda: _cmd_sweep_local(args))
    return _cmd_sweep_local(args)


def _cmd_sweep_local(args: argparse.Namespace) -> int:
    if args.sweep_dir is not None:
        return _cmd_sweep_frontier(args)
    if args.resume or args.budget_s is not None:
        print(
            "error: --resume/--budget-s need a disk-backed frontier; "
            "pass --sweep-dir DIR",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.manifest is not None:
        if args.jobs is not None and args.jobs > 1:
            print(
                "error: a --manifest sweep runs its trials in this process; "
                "for --jobs workers pass --sweep-dir DIR",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        from .sweeps import SweepManifest, execute_trial

        from .analysis.complexity import Trial

        manifest = SweepManifest.load(args.manifest)
        rows = [
            Trial(**execute_trial(spec.plan, spec.seed)["row"])
            for spec in manifest
        ]
    else:
        rows = sweep(
            sizes=args.sizes, plan=plan_from_args(args),
            trials=args.trials, seed0=args.seed,
        )
    _print_trial_table(args, rows)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    plan = plan_from_args(args)

    def local() -> int:
        table = build_table1(
            sizes=args.sizes, plan=plan,
            trials=args.trials, seed0=args.seed,
        )
        print(table.to_markdown() if args.markdown else table.to_text())
        return EXIT_OK

    def remote(client) -> int:
        response = client.table1(
            plan.to_dict(), sizes=args.sizes,
            trials=args.trials, seed0=args.seed,
        )
        table = Table(
            title=response.title,
            headers=list(response.headers),
            rows=[list(row) for row in response.rows],
        )
        print(table.to_markdown() if args.markdown else table.to_text())
        return EXIT_OK

    return _with_server(args, remote, local)


def _cmd_tree(args: argparse.Namespace) -> int:
    # The tree needs result.protocols, so the plan stays on the
    # generator engine (plan_from_args' fallback for flagless commands).
    plan = plan_from_args(args)
    graph = make_family_graph(args.family, args.n, seed=args.seed)
    result, _ = run_trial(graph, plan=plan, family=args.family)
    root = build_tree(result)
    print(render_tree(root, max_depth=args.max_depth))
    stats = tree_stats(root)
    print()
    print(
        f"calls={stats['calls']} max_depth={stats['max_depth']} "
        f"leaves={stats['leaves']} base_calls={stats['base_calls']}"
    )
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    graph = make_family_graph(args.family, args.n, seed=args.seed)
    table = Table(
        title=f"Energy on {args.family} n={args.n} "
        f"(tx={DEFAULT_MODEL.tx}, rx={DEFAULT_MODEL.rx}, "
        f"idle={DEFAULT_MODEL.idle}, sleep={DEFAULT_MODEL.sleep})",
        headers=["algorithm", "total energy", "avg awake", "valid"],
    )
    plan = plan_from_args(args)
    for algorithm in ("luby", "sleeping", "fast-sleeping"):
        _, trial = run_trial(
            graph, plan=plan.replace(algorithm=algorithm), family=args.family
        )
        table.add_row(
            algorithm,
            f"{trial.total_energy:.1f}",
            f"{trial.node_averaged_awake:.2f}",
            trial.valid,
        )
    print(table.to_text())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import build_report

    report = build_report(
        sizes=args.sizes,
        family=args.family,
        trials=args.trials,
        seed0=args.seed,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        cache_size=args.cache_size,
        default_deadline_s=args.deadline_s,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "table1": _cmd_table1,
        "tree": _cmd_tree,
        "energy": _cmd_energy,
        "serve": _cmd_serve,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # e.g. --engine vectorized with an algorithm it cannot run.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
