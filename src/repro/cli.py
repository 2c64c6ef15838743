"""Command-line interface.

Six subcommands::

    python -m repro run --protocol modified-paxos --workload partitioned-chaos --n 7 --seed 42
    python -m repro run --workload smr-stable --n 9 --commands 20 --target-pid 0
    python -m repro run --env '{"adversary": {"kind": "drop-all"}}' --n 7
    python -m repro list-protocols
    python -m repro list-workloads
    python -m repro list-environments
    python -m repro experiments --scale smoke --jobs 4 --out results/ --store runs.jsonl --resume
    python -m repro results ls --store runs.jsonl

``run`` executes a single (workload, protocol) pair and prints the run
report; workloads are resolved by name through the
:data:`~repro.workloads.registry.WORKLOADS` table, protocols through the
:data:`~repro.consensus.registry.PROTOCOLS` table.  Choosing an ``smr-*``
workload instead runs the multi-decree Modified Paxos service
(:mod:`repro.smr`) under a uniform command schedule shaped by
``--commands`` / ``--command-start`` / ``--command-interval`` /
``--target-pid``.  ``run --env`` takes an inline
:class:`~repro.env.spec.EnvironmentSpec` JSON object, composed from the
primitives ``list-environments`` prints, and runs it through the
catalogue's ``environment`` workload; the named environments are workloads.
A configuration error, whether an unknown protocol, an ``--env`` value that
is not a JSON object, or one found while building the scenario or while
validating its fault plan, prints one line and exits 2.  ``experiments``
delegates to the campaign runner (:mod:`repro.harness.campaign`); with ``--jobs N`` the runs fan out over a
process pool, ``--store`` streams every run record into a
:class:`~repro.results.store.JsonlStore`, and ``--resume`` loads runs
already present instead of re-executing them.  ``results`` inspects such
stores: ``ls``, ``show <key>``, ``query``, ``export`` (JSON/CSV), and
``diff`` over two stores' decision-lag aggregates
(:mod:`repro.results`).
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_run_report
from repro.analysis.timeline import render_timelines
from repro.consensus.registry import PROTOCOLS
from repro.env.registry import ADVERSARY_KINDS, FAULT_KINDS
from repro.errors import ConfigurationError
from repro.harness.campaign import run_campaign, write_report
from repro.harness.runner import run_scenario
from repro.params import TimingParams
from repro.results.store import open_store
from repro.workloads.registry import WORKLOADS
from repro.workloads.smr import is_smr_workload

__all__ = ["main", "build_parser", "WORKLOADS"]


def _workload_kwargs(args: argparse.Namespace, params: TimingParams) -> Dict[str, object]:
    kwargs: Dict[str, object] = {"n": args.n, "params": params, "seed": args.seed}
    if args.ts is not None:
        # Let a workload without a ts knob (e.g. "stable") reject it clearly.
        kwargs["ts"] = args.ts
    return kwargs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'How Fast Can Eventual Synchrony Lead to Consensus?' "
            "(Dutta, Guerraoui, Lamport, DSN 2005)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one workload with one protocol")
    # Default None so an explicit --protocol can be detected when it conflicts
    # with an smr-* workload (whose protocol is always multi-paxos-smr).
    run_parser.add_argument("--protocol", default=None,
                            help="protocol name (default: modified-paxos)")
    # Default None so an explicit --workload can be distinguished from the
    # fallback when it conflicts with --env; resolved in _command_run.
    run_parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                            help="workload name (default: partitioned-chaos)")
    run_parser.add_argument(
        "--env", default=None, metavar="JSON",
        help="run an inline EnvironmentSpec JSON object instead of --workload, composed "
             "from the primitives `repro list-environments` prints",
    )
    run_parser.add_argument("--n", type=int, default=7, help="number of processes")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--ts", type=float, default=None,
                            help="stabilization time (defaults per workload)")
    run_parser.add_argument("--delta", type=float, default=1.0)
    run_parser.add_argument("--epsilon", type=float, default=0.5)
    run_parser.add_argument("--rho", type=float, default=0.01)
    run_parser.add_argument("--allow-unsafe", action="store_true",
                            help="report safety violations instead of raising")
    run_parser.add_argument("--timeline", action="store_true",
                            help="also print a per-process timeline of the run")
    smr_group = run_parser.add_argument_group(
        "smr workloads", "command schedule for smr-* workloads (ignored otherwise)"
    )
    smr_group.add_argument("--commands", type=int, default=10,
                           help="number of uniform commands to submit (default 10)")
    smr_group.add_argument("--command-start", type=float, default=10.0,
                           help="submission time of the first command (default 10)")
    smr_group.add_argument("--command-interval", type=float, default=0.7,
                           help="spacing between consecutive commands (default 0.7)")
    smr_group.add_argument("--target-pid", type=int, default=None,
                           help="submit every command at this replica (default: round-robin)")
    smr_group.add_argument("--machine", choices=("kv", "ledger"), default="kv",
                           help="state machine the replicas apply (default kv)")

    subparsers.add_parser("list-protocols", help="list registered protocols")
    list_workloads = subparsers.add_parser(
        "list-workloads", help="list registered workloads and their parameters"
    )
    list_workloads.add_argument("--params", action="store_true",
                                help="also print each workload's parameter schema")

    subparsers.add_parser(
        "list-environments",
        help="list the adversary and fault primitives an EnvironmentSpec composes",
    )

    experiments_parser = subparsers.add_parser(
        "experiments", help="run the experiment campaign (E1-E9)"
    )
    experiments_parser.add_argument("--scale", choices=("smoke", "full"), default="smoke")
    experiments_parser.add_argument("--out", default="results")
    experiments_parser.add_argument(
        "--experiment", action="append", dest="experiments",
        help="run only this experiment id (repeatable)",
    )
    experiments_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment runs (1 = serial)",
    )
    experiments_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="persist every run record in this JSON-lines file (*.jsonl)",
    )
    experiments_parser.add_argument(
        "--resume", action="store_true",
        help="load runs already present in --store instead of re-executing them",
    )

    results_parser = subparsers.add_parser(
        "results", help="inspect result stores written by experiments --store"
    )
    results_subparsers = results_parser.add_subparsers(dest="results_command", required=True)

    def add_store_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--store", required=True, metavar="PATH",
                         help="result store path (*.jsonl)")

    results_ls = results_subparsers.add_parser("ls", help="list stored records")
    add_store_argument(results_ls)

    results_show = results_subparsers.add_parser("show", help="show one record in full")
    results_show.add_argument("key", help="content key (as printed by `results ls`)")
    add_store_argument(results_show)
    results_show.add_argument("--json", action="store_true", dest="as_json",
                              help="print the raw serialized record instead of the report")

    results_query = results_subparsers.add_parser(
        "query", help="filter records by protocol / workload / tags"
    )
    add_store_argument(results_query)
    results_query.add_argument("--protocol", default=None)
    results_query.add_argument("--workload", default=None)
    results_query.add_argument(
        "--tag", action="append", dest="tags", default=[], metavar="KEY=VALUE",
        help="tag equality filter (repeatable); values parse as JSON when possible",
    )
    results_query.add_argument("--json", action="store_true", dest="as_json",
                               help="print matching records as a JSON array")

    results_export = results_subparsers.add_parser(
        "export", help="export a store as JSON or CSV"
    )
    add_store_argument(results_export)
    results_export.add_argument("--format", choices=("json", "csv"), default="json")
    results_export.add_argument("--out", default=None,
                                help="write here instead of stdout")

    results_diff = results_subparsers.add_parser(
        "diff", help="compare two stores' decision-lag aggregates"
    )
    results_diff.add_argument("store_a", help="baseline store path")
    results_diff.add_argument("store_b", help="candidate store path")

    return parser


def _command_run_smr(args: argparse.Namespace, params: TimingParams) -> int:
    """Run an ``smr-*`` workload through the multi-decree service."""
    from repro.analysis.report import render_smr_run_report
    from repro.errors import ExperimentError, ReproError
    from repro.harness.executors import SmrTask
    from repro.smr.workload import ScheduleSpec

    task = SmrTask(
        workload=args.workload,
        workload_kwargs=_workload_kwargs(args, params),
        schedule=ScheduleSpec(
            num_commands=args.commands,
            start=args.command_start,
            interval=args.command_interval,
            target_pid=args.target_pid,
        ),
        machine=args.machine,
        # --allow-unsafe mirrors the single-decree run: invariant violations
        # are reported in the output instead of raised.
        enforce_consistency=not args.allow_unsafe,
    )
    try:
        result = task.run()
    except (ConfigurationError, ExperimentError) as error:
        print(error)
        return 2
    except ReproError as error:
        print(f"run failed: {error}")
        return 1
    print(render_smr_run_report(result))
    if args.timeline:
        print()
        print("per-process timeline:")
        config = result.scenario.config
        print(render_timelines(result.simulator.trace, config.n, ts=config.ts))
    ok = result.replicas_agree and result.all_commands_learned_everywhere
    ok = ok and all(report.ok for report in result.invariants.values())
    return 0 if ok else 1


def _command_run(args: argparse.Namespace) -> int:
    params = TimingParams(delta=args.delta, rho=args.rho, epsilon=args.epsilon)
    if args.env is not None and args.workload is not None:
        print("pass either --workload or --env, not both")
        return 2
    if args.workload is not None and is_smr_workload(args.workload):
        if args.protocol is not None and args.protocol != "multi-paxos-smr":
            print(f"workload {args.workload!r} always runs the multi-decree service "
                  "(multi-paxos-smr); drop --protocol")
            return 2
        return _command_run_smr(args, params)
    protocol = args.protocol if args.protocol is not None else "modified-paxos"
    kwargs = _workload_kwargs(args, params)
    workload = args.workload if args.workload is not None else "partitioned-chaos"
    if args.env is not None:
        try:
            env = json.loads(args.env)
        except ValueError:
            env = None
        if not isinstance(env, dict):
            print("--env takes an EnvironmentSpec JSON object; "
                  "to run a named environment use --workload NAME")
            return 2
        kwargs["env"] = env
        workload = "environment"
    try:
        scenario = WORKLOADS.create(workload, **kwargs)
        # The protocol name and the fault plan are checked when the run
        # starts, so the run itself can still raise a configuration error.
        result = run_scenario(
            scenario,
            protocol,
            enforce_safety=not args.allow_unsafe,
            enforce_invariants=not args.allow_unsafe,
        )
    except ConfigurationError as error:
        print(error)
        return 2
    print(render_run_report(result))
    if args.timeline:
        print()
        print("per-process timeline:")
        print(render_timelines(result.simulator.trace, scenario.config.n, ts=scenario.config.ts))
    return 0 if result.safety.valid else 1


def _render_listing(entries: Sequence[Tuple[str, str]]) -> str:
    """One aligned ``name  summary`` line per table entry."""
    if not entries:
        return ""
    width = max(len(name) for name, _ in entries)
    return "\n".join(
        f"{name.ljust(width)}  {summary}" if summary else name for name, summary in entries
    )


def _command_list_protocols(_args: argparse.Namespace) -> int:
    print(_render_listing([(name, PROTOCOLS[name][1]) for name in sorted(PROTOCOLS)]))
    return 0


def _command_list_workloads(args: argparse.Namespace) -> int:
    names = sorted(WORKLOADS)
    print(_render_listing([(name, WORKLOADS[name][1]) for name in names]))
    if args.params:
        for name in names:
            print()
            print(WORKLOADS.describe(name))
    return 0


def _command_list_environments(_args: argparse.Namespace) -> int:
    print("adversary primitives (compose into EnvironmentSpec JSON):")
    print(_render_listing([(kind, ADVERSARY_KINDS[kind].summary) for kind in sorted(ADVERSARY_KINDS)]))
    print()
    print("fault-schedule primitives:")
    print(_render_listing([(kind, FAULT_KINDS[kind].summary) for kind in sorted(FAULT_KINDS)]))
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.errors import ResultSchemaError, ResultStoreError

    if args.resume and args.store is None:
        print("--resume needs --store")
        return 2
    try:
        result = run_campaign(
            scale=args.scale, experiments=args.experiments, progress=print, jobs=args.jobs,
            store=args.store, resume=args.resume,
        )
    except (ConfigurationError, ResultSchemaError, ResultStoreError) as error:
        print(error)
        return 2
    report = write_report(result, args.out)
    print(f"wrote {report}")
    if args.store is not None:
        with open_store(args.store) as store:
            print(f"store {args.store}: {len(store)} records")
    return 0


def _parse_tag_filters(pairs: Sequence[str]) -> Dict[str, object]:
    """``KEY=VALUE`` tag filters; values parse as JSON scalars when possible."""
    tags: Dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ConfigurationError(f"tag filter must look like KEY=VALUE, got {pair!r}")
        try:
            tags[key] = json.loads(raw)
        except ValueError:
            tags[key] = raw
    return tags


def _command_results(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_record_report
    from repro.errors import ResultSchemaError, ResultStoreError
    from repro.harness.tables import render_table
    from repro.results import diff_aggregates, export_csv, export_json

    command = args.results_command
    specs = [args.store_a, args.store_b] if command == "diff" else [args.store]
    for spec in specs:
        # open_store treats a missing path as a new, empty store, so a
        # mistyped path must fail before it opens.
        if not os.path.exists(spec):
            print(f"no store at {spec}")
            return 2
    try:
        if command == "diff":
            with open_store(args.store_a) as a, open_store(args.store_b) as b:
                rows = diff_aggregates(a.records(), b.records())
            if not rows:
                print("both stores are empty")
                return 0
            headers = ["protocol", "workload", "runs_a", "runs_b", "mean_lag_a",
                       "mean_lag_b", "mean_lag_diff", "max_lag_a", "max_lag_b",
                       "max_lag_diff"]
            print(f"decision-lag aggregates (delta units): A={args.store_a} B={args.store_b}")
            print(render_table(headers, [[row[h] for h in headers] for row in rows]))
            return 0

        with open_store(args.store) as store:
            if command == "ls":
                records = list(store.records())
                if not records:
                    print("store is empty")
                    return 0
                for record in records:
                    print(record.describe())
                print(f"{len(records)} records ({store.backend})")
            elif command == "show":
                record = store.get(args.key)
                if record is None:
                    print(f"no record under key {args.key!r}")
                    return 1
                if args.as_json:
                    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
                else:
                    print(render_record_report(record))
            elif command == "query":
                tags = _parse_tag_filters(args.tags)
                records = store.query_records(
                    protocol=args.protocol, workload=args.workload, tags=tags
                )
                if args.as_json:
                    print(export_json(records))
                else:
                    for record in records:
                        print(record.describe())
                    print(f"{len(records)} matching records")
            elif command == "export":
                text = export_csv(store.records()) if args.format == "csv" \
                    else export_json(store.records())
                if args.out:
                    with open(args.out, "w", encoding="utf-8") as handle:
                        handle.write(text)
                        if not text.endswith("\n"):
                            handle.write("\n")
                    print(f"wrote {args.out}")
                else:
                    print(text)
    except (ResultSchemaError, ResultStoreError, ConfigurationError) as error:
        print(error)
        return 2
    return 0


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "run": _command_run,
    "list-protocols": _command_list_protocols,
    "list-workloads": _command_list_workloads,
    "list-environments": _command_list_environments,
    "experiments": _command_experiments,
    "results": _command_results,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised through __main__
    raise SystemExit(main())
