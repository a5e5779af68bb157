import pytest
from hypothesis import settings

from fdrepair import FD, Relation, Schema

# more examples for the property tests: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def hospital_snippet():
    """Six-row hospital excerpt: rows 1-4 share a hospital, rows 5-6 another.

    Known dirt: tid 4 has a mistyped provider number (majority is 10006),
    tids 5 and 6 disagree on the provider number (a genuine tie), and tids
    1 and 5 share a measure code but disagree on the condition.
    """
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
    return rel


@pytest.fixture
def hospital_fds():
    """The attested FD subset over the snippet's attributes."""
    return [
        FD({"hospital name"}, "#provider"),
        FD({"#provider"}, "hospital name"),
        FD({"hospital name"}, "city"),
        FD({"measure code"}, "condition"),
    ]
