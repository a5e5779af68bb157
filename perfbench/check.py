"""Output checks that feed the benchmark's failure count.

The checks re-read the repaired CSV with the standard library and group rows
with the benchmark's own dict grouping, so they share no code with the
engine they judge.
"""

import csv
import json

import jsonschema

from perfbench.workloads import groups, sha256_file


class CheckError(Exception):
    """A repaired output breaks a property every correct repair has."""


def read_csv(path):
    """Header and rows of a CSV written by the program; empty cells are NULL."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[None if c == "" else c for c in row] for row in reader]


def check_repair(wl, out_path, report_path, report_schema):
    """Check one repaired CSV and its JSON report against the workload's
    input; return the output's sha256."""
    header, rows = read_csv(wl.data)
    out_header, out_rows = read_csv(out_path)
    if out_header != header:
        raise CheckError("header changed: %r -> %r" % (header, out_header))
    if len(out_rows) != len(rows):
        raise CheckError("row count changed: %d -> %d"
                         % (len(rows), len(out_rows)))
    col = {a: i for i, a in enumerate(header)}
    for lhs, rhs in wl.fd_list:
        rhs_i = col[rhs]
        grouped = groups(out_rows, [col[a] for a in lhs], wl.null_unequal)
        for members in grouped.values():
            if len({out_rows[p][rhs_i] for p in members}) > 1:
                raise CheckError("%s -> %s still violated at row %d"
                                 % (",".join(lhs), rhs, members[0] + 2))
    rhs_attrs = {rhs for _, rhs in wl.fd_list}
    for a, i in col.items():
        before = [row[i] for row in rows]
        after = [row[i] for row in out_rows]
        if a not in rhs_attrs:
            if after != before:
                raise CheckError("attribute %s is no FD's rhs but changed" % a)
        else:
            foreign = set(after) - set(before)
            if foreign:
                raise CheckError("attribute %s gained values absent from the "
                                 "input: %r" % (a, sorted(foreign, key=str)[:3]))
    check_report(report_path, report_schema)
    return sha256_file(out_path)


def check_report(report_path, report_schema):
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    try:
        jsonschema.validate(report, report_schema)
    except jsonschema.ValidationError as exc:
        raise CheckError("report breaks its schema: %s" % exc.message) from None


class OutputChecker:
    """Checks every repair of one workload input made with one seed.

    The first output gets the full check and fixes the expected sha256;
    every later output must match it byte for byte, so it needs no more
    than a digest and a report check.
    """

    def __init__(self, wl, report_schema):
        self.wl = wl
        self.report_schema = report_schema
        self.digest = None

    def __call__(self, out_path, report_path):
        if self.digest is None:
            self.digest = check_repair(self.wl, out_path, report_path,
                                       self.report_schema)
            return self.digest
        digest = sha256_file(out_path)
        if digest != self.digest:
            raise CheckError("repaired CSV %s differs from the first run's %s"
                             % (digest[:12], self.digest[:12]))
        check_report(report_path, self.report_schema)
        return digest
