"""Command-line interface: repair, partition, evaluate and generate
subcommands over CSV data and plain-text FD files. ``bench_cells`` times
repairs over generated instances for the scaling demo and criterion 10."""

import argparse
import json
import statistics
import sys
import time

from .datagen import GenConfig, generate
from .evaluate import evaluate
from .fds import load_fds, rule_lines, save_fds
from .partition import fds_by_entering_class
from .priority import pilot_fds
from .relation import load_csv, save_csv
from .repair_functions import BUILTINS
from .swipe import plan, swipe


def _load_inputs(args):
    rel = load_csv(args.data, null_token=args.null_token,
                   tid_column=args.tid_column)
    fds = load_fds(args.fds, rel.schema)
    return rel, fds


def _load_fn_map(path):
    fn_map = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line in rule_lines(fh):
            attr, _, name = map(str.strip, line.partition("="))
            if not _:
                raise ValueError("malformed fn-map line %r, expected attr=fn" % line)
            if attr in fn_map:
                raise ValueError("fn-map line %r names attribute %r again"
                                 % (line, attr))
            fn_map[attr] = name
    return fn_map


def _load_priority_file(path):
    override = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line in rule_lines(fh):
            try:  # no colon, or an index that is not an integer
                index, order = line.split(":", 1)
                index = int(index)
            except ValueError:
                raise ValueError("malformed priority line %r, expected "
                                 "'class_index: a > b'" % line) from None
            if index in override:
                raise ValueError("priority line %r names class %d again"
                                 % (line, index))
            override[index] = [a.strip() for a in order.split(">")]
    return override


def _class_report(outcome):
    return [{
        "attributes": c.attributes,
        "fixes_per_fd": {str(fd): n for fd, n in c.stats.fixes_per_fd.items()},
        "polls_per_fd": {str(fd): n for fd, n in c.stats.polls_per_fd.items()},
        "priority": c.stats.priority,
        "vio_sizes": dict(c.stats.vio_sizes),
        "revisions": c.stats.revisions,
        "cells_changed": c.cells_changed,
        "cells_changed_per_attribute": c.cells_changed_per_attribute,
        "duration_s": c.duration,
    } for c in outcome.classes]


def cmd_repair(args):
    rel, fds = _load_inputs(args)
    fn_map = _load_fn_map(args.fn_map) if args.fn_map else None
    override = _load_priority_file(args.priority_file) if args.priority_file else None
    outcome = swipe(rel, fds, repair_fn=args.repair_fn, fn_map=fn_map,
                    seed=args.seed, priority_override=override,
                    null_equals_null=not args.null_unequal)
    save_csv(outcome.repaired, args.out, null_token=args.null_token,
             tid_column=args.tid_column)
    report = {
        "seed": outcome.seed,
        "repair_fn": args.repair_fn,
        "partition": outcome.partition,
        "non_repairable": outcome.non_repairable,
        "classes": _class_report(outcome),
        "cells_changed": outcome.cells_changed,
        "duration_s": outcome.duration,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    print("repaired %d cells in %d classes (seed %d, %.3fs)"
          % (outcome.cells_changed, len(outcome.partition),
             outcome.seed, outcome.duration))
    return 0


def cmd_partition(args):
    rel, fds = _load_inputs(args)
    cover, part, non_rep = plan(fds, rel.schema,
                                null_equals_null=not args.null_unequal)
    entering = fds_by_entering_class(cover, part)
    for i, (cls, fds_i) in enumerate(zip(part.classes, entering), start=1):
        print("C%d: %s" % (i, ", ".join(cls)))
        pilots, rest = pilot_fds(cls, fds_i)
        for fd in pilots:
            print("  pilot:     %s" % fd)
        for fd in rest:
            print("  non-pilot: %s" % fd)
    if non_rep:
        print("non-repairable: %s" % ", ".join(non_rep))
    return 0


def cmd_evaluate(args):
    dirty = load_csv(args.dirty, null_token=args.null_token,
                     tid_column=args.tid_column)
    repaired = load_csv(args.repaired, null_token=args.null_token,
                        tid_column=args.tid_column)
    gold = load_csv(args.gold, null_token=args.null_token,
                    tid_column=args.tid_column)
    report = evaluate(dirty, repaired, gold)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2)
    print(json.dumps(report.as_dict()))
    print("precision=%.3f recall=%.3f f=%.3f"
          % (report.precision, report.recall, report.f_score))
    return 0


def cmd_generate(args):
    rel, fds = generate(GenConfig(args.rows, args.attrs, seed=args.seed,
                                  domain_size=args.domain_size))
    save_csv(rel, args.out_data)
    save_fds(fds, args.out_fds)
    print("wrote %d rows to %s and %d FDs to %s"
          % (len(rel), args.out_data, len(fds), args.out_fds))
    return 0


def bench_cells(rows_list, attrs_list, repetitions, seed):
    """Mean repair wall-clock per (rows, attrs) cell; generation excluded."""
    cells = []
    for rows in rows_list:
        for attrs in attrs_list:
            times = []
            for rep in range(repetitions):
                rel, fds = generate(GenConfig(rows, attrs,
                                              seed=seed + rep))
                t0 = time.perf_counter()
                swipe(rel, fds, seed=seed + rep)
                times.append(time.perf_counter() - t0)
            cells.append({"rows": rows, "attrs": attrs,
                          "repetitions": repetitions,
                          "mean_s": statistics.mean(times)})
    return cells


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdrepair",
        description="Repair functional-dependency violations in CSV data "
                    "with a single-pass, priority-ordered strategy.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--null-token", default="",
                       help="cell text treated as NULL (default: empty)")
        p.add_argument("--tid-column", default=None,
                       help="CSV column holding tuple ids (default: row order)")

    def add_semantics(p):
        p.add_argument("--null-unequal", action="store_true",
                       help="treat NULL as unequal to NULL when grouping")

    p = sub.add_parser("repair", help="repair a CSV file against an FD file")
    p.add_argument("--data", required=True)
    p.add_argument("--fds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--repair-fn", default="mv", choices=list(BUILTINS))
    p.add_argument("--fn-map", help="per-attribute overrides, 'attribute=fn' lines")
    p.add_argument("--priority-file",
                   help="manual priority, 'class_index: a > b' lines")
    p.add_argument("--seed", type=int, default=None)
    add_semantics(p)
    add_io(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser(
        "partition", help="show the induced attribute partition",
        description="List the induced attribute partition and each class's "
                    "pilot and non-pilot FDs: what 'repair' with the same "
                    "--null-unequal setting repairs.")
    p.add_argument("--data", required=True)
    p.add_argument("--fds", required=True)
    add_semantics(p)
    add_io(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("evaluate", help="score a repair against a gold standard")
    p.add_argument("--dirty", required=True)
    p.add_argument("--repaired", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--report", help="write the JSON report here")
    add_io(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="generate synthetic data and FDs")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--attrs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain-size", type=int, default=10)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-fds", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and exit non-zero
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
