"""Walk through a repair of a small hospital excerpt, step by step.

Shows the pipeline stages individually: minimal cover, attribute
partition, per-attribute change estimates, and the final repair with the
cells it changed. Run with: python3 demos/hospital_walkthrough.py
"""

import random

from fdrepair import FD, Relation, Schema, swipe
from fdrepair.fds import minimal_cover
from fdrepair.partition import build_preorder, induced_partition
from fdrepair.priority import estimate_priority, vio

rel = Relation(Schema(["hospital name", "#provider", "city",
                       "measure code", "condition"]))
rows = [
    (1, ["callahan eye", "10006", "birmingham", "AMI-2", "heart attack"]),
    (2, ["callahan eye", "10006", "birmingham", "CAC-1", "asthma"]),
    (3, ["callahan eye", "10006", "birmingham", "HF-3", "heart failure"]),
    (4, ["callahan eye", "1x006", "birmingham", "PN-4", "pneumonia"]),
    (5, ["marshall medical", "10035", "boaz", "AMI-2", "hxart attack"]),
    (6, ["marshall medical", "1003x", "boaz", "SCIP-1", "surgery"]),
]
for tid, row in rows:
    rel.append(tid, row)

fds = [
    FD({"hospital name"}, "#provider"),
    FD({"#provider"}, "hospital name"),
    FD({"hospital name"}, "city"),
    FD({"measure code"}, "condition"),
]

cover = minimal_cover(fds)
print("minimal cover:")
for fd in cover:
    print("  ", fd)

part = induced_partition(build_preorder(cover, rel.schema), rel.schema)
print("\nrepair order (one class at a time):")
for i, cls in enumerate(part.classes, 1):
    print("  C%d: %s" % (i, ", ".join(cls)))

rng = random.Random(0)
print("\nestimated changes needed per attribute of C1:")
order, sizes = estimate_priority(rel, part.classes[0], cover, rng)
for a in order:
    print("  %-15s %d tuples  (tids %s)"
          % (a, sizes[a], sorted(vio(rel, a, cover, random.Random(0)))))

out = swipe(rel, fds, seed=0)
print("\ncells changed (%d):" % out.cells_changed)
for tid, attr, old, new in out.changes():
    print("  tid %d  %-13s %r -> %r" % (tid, attr, old, new))

print("\nrepaired rows:")
for tid in out.repaired.tids:
    print("  %d  %s" % (tid, out.repaired.row_of(tid)))
