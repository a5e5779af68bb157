"""Outside-in tracing of one repair.

The tracer replaces module globals and class attributes of ``fdrepair`` with
timing wrappers at the places the program looks them up, so the program's
own files stay untouched. Each wrapped call records a span (name, start,
end, parent, run id) in memory; repair-function calls, which are many and
small, only bump counters. ``restore`` puts every original object back.
"""

import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:

    def __init__(self, run_id=0):
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.counters = Counter()
        self.run_id = run_id
        self._stack = []
        self._inner = defaultdict(float)  # span index -> counted-call time
        self._saved = []
        self._built = weakref.WeakSet()
        self._used = weakref.WeakSet()

    # -------------------------------------------------------------- patching

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def install(self):
        """Wrap every traced entry point; ``restore`` undoes it."""
        import fdrepair.cli as cli
        import fdrepair.dsf as dsf
        import fdrepair.fds as fds
        import fdrepair.priority as priority
        import fdrepair.relation as relation
        import fdrepair.repair_functions as repair_functions
        # the package re-exports the function ``swipe`` under the module's name
        swipe_mod = sys.modules["fdrepair.swipe"]

        def wrap(owner, attr, name, after=None):
            self._patch(owner, attr,
                        self._span_wrapper(name, vars(owner)[attr], after))

        c = self.counters
        wrap(cli, "load_csv", "relation.load_csv")
        wrap(cli, "save_csv", "relation.save_csv")
        wrap(cli, "swipe", "swipe", lambda a, out: c.update(
            {"swipe.cells_changed": out.cells_changed}))
        wrap(relation.Relation, "copy", "relation.copy")
        wrap(swipe_mod, "minimal_cover", "fds.minimal_cover")
        for attr in ("build_preorder", "check_forward_repairable",
                     "fds_entering_at"):
            wrap(swipe_mod, attr, "partition")
        wrap(swipe_mod, "induced_partition", "partition", self._partition)
        wrap(swipe_mod, "priority_repair", "priority.repair",
             lambda a, stats: c.update({"revisions_total": stats.revisions}))
        wrap(swipe_mod, "violates", "fds.violates.final",
             lambda a, bad: c.update({"fds.violates.calls": 1}))
        wrap(priority, "estimate_priority", "priority.estimate")
        wrap(priority, "fix", "priority.fix", lambda a, fixes: c.update(
            {"priority.polls": 1, "priority.productive_polls": fixes > 0}))
        wrap(priority, "violates", "fds.violates.sweep", lambda a, bad: c.update(
            {"fds.violates.calls": 1, "priority.sweep_reenqueues": bool(bad)}))
        wrap(priority, "group_rows", "fds.group_rows", self._count_group_rows)
        wrap(fds, "group_rows", "fds.group_rows", self._count_group_rows)
        wrap(priority, "DisjointSetForest", "dsf.init",
             lambda a, forest: self._built.add(forest))
        wrap(dsf.DisjointSetForest, "classes", "dsf.classes")
        self._patch(priority, "update_dsf",
                    self._update_dsf(vars(priority)["update_dsf"]))
        self._patch(repair_functions.RepairFunction, "__call__",
                    self._counted(vars(repair_functions.RepairFunction)["__call__"]))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- records

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _partition(self, args, part):
        self.counters["partition.classes"] += len(part.classes)
        self.counters["partition.max_class_size"] = max(
            self.counters["partition.max_class_size"],
            max((len(cls) for cls in part.classes), default=0))

    def _count_group_rows(self, args, out):
        self.counters["fds.group_rows.calls"] += 1

    def _update_dsf(self, fn):
        span_wrapper = self._span_wrapper("priority.update_dsf", fn)

        def wrapper(rel, fd, forest, *args, **kwargs):
            before = forest.class_count
            result = span_wrapper(rel, fd, forest, *args, **kwargs)
            self.counters["dsf.merges"] += before - forest.class_count
            if forest in self._built and forest not in self._used:
                self._used.add(forest)
                self.counters["dsf.forests_used"] += 1
            return result
        return wrapper

    def _counted(self, fn):
        def wrapper(this, values, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(this, values, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.counters["repair_functions.calls"] += 1
            self.counters["repair_functions.bag_cells"] += len(values)
            self.counters["repair_functions.s"] += elapsed
            if self._stack:
                self._inner[self._stack[-1]] += elapsed
            return result
        return wrapper

    # ------------------------------------------------------------- summaries

    def forests_built(self):
        return sum(1 for s in self.spans if s[0] == "dsf.init")

    def self_times(self):
        """Layer name -> summed self time: span duration minus child spans
        and counted calls made directly inside it."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i] - self._inner[i]
        out["repair_functions"] += self.counters["repair_functions.s"]
        return dict(out)

    def inclusive_times(self):
        """Layer name -> summed duration of its outermost spans."""
        names = [s[0] for s in self.spans]
        out = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is None or names[parent] != name:
                out[name] += end - start
        return dict(out)

    def write(self, fh):
        """Append the spans to an open text file, one JSON object a line."""
        for name, start, end, parent, run in self.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "run": run}) + "\n")
