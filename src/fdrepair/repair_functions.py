"""Repair functions: map a bag of conflicting values to one value.

All built-ins are preservative (the chosen value is always a bag member),
hence idempotent and unable to introduce values absent from the input.
NULL participates as an ordinary candidate in the voting functions but
loses every tie against a constant; for max it is the minimum.

``mv`` and ``wv`` are voting functions (``RepairFunction.vote_exponent``),
whose votes ``priority.fix`` counts itself wherever int64 holds their
totals, calling them only to settle a tied class. ``max`` and
user-supplied functions are called once per class on its whole bag.
"""

from dataclasses import dataclass
from functools import partial


def _break_tie(candidates, rng):
    """Pick among tied values: constants beat NULL, then a seeded choice."""
    constants = [v for v in candidates if v is not None]
    pool = constants if constants else candidates
    if len(pool) == 1:
        return pool[0]
    return rng.choice(sorted(set(pool)))


def vote(values, null_counts, schema_width, rng, exponent):
    """A value of largest summed weight ``(schema_width - N) ** exponent``
    over the bag entries, N being the NULL count of each entry's tuple
    (exponent 0: a plain majority). A constant beats NULL on a tie, and
    tied constants are settled by ``rng.choice`` of them sorted."""
    if not values:
        raise ValueError("empty bag")
    weights = {}  # a plain dict: Counter pays a Python call per new key
    get = weights.get
    for v, n in zip(values, null_counts, strict=True):
        weights[v] = get(v, 0) + (schema_width - n) ** exponent
    best = max(weights.values())
    return _break_tie([v for v, w in weights.items() if w == best], rng)


def _numeric_key(values):
    """The key of numeric order, equal numbers in text order, if every
    value parses as a number and none as NaN (the one float unequal to
    itself), which no order ranks; else None, for text order."""
    try:
        numbers = {v: (float(v), v) for v in values}
    except (TypeError, ValueError):
        return None
    return numbers.get if all(x == x for x, _ in numbers.values()) else None


def max_value(values):
    """Maximum bag member; numeric order when every constant parses as a
    number and none as NaN, else lexicographic. Equal numbers, such as
    ``1`` and ``1.0``, rank in text order, so the bag's order never
    matters. NULL ranks below every constant."""
    if not values:
        raise ValueError("empty bag")
    constants = [v for v in values if v is not None]
    if not constants:
        return None
    return max(constants, key=_numeric_key(constants))


@dataclass
class RepairFunction:
    """A named bag-to-value function plus its preservative capability flag.

    A set ``vote_exponent`` e, a non-negative int (anything else but None
    raises ValueError), marks a voting function, which picks as
    ``vote(..., exponent=e)`` does; ``MV`` and ``WV`` are built from it.
    ``fix`` trusts the exponent: it votes on codes itself and calls the
    function only for a class whose top is tied, handing it the tied values
    once each at equal weight (no NULLs in their tuples), so ``_pick`` must
    be such a vote, whose tie rule looks only at the tied values.
    """
    name: str
    preservative: bool
    _pick: callable
    vote_exponent: int | None = None

    def __post_init__(self):
        e = self.vote_exponent
        if e is not None and not (isinstance(e, int) and e >= 0):
            raise ValueError("repair function %s: vote_exponent must be None "
                             "or a non-negative int, not %r" % (self.name, e))

    def __call__(self, values, null_counts, schema_width, rng):
        value = self._pick(values, null_counts, schema_width, rng)
        if self.preservative and value not in values:
            raise ValueError("preservative function %s produced a value "
                             "outside the bag" % self.name)
        return value


MV, WV = (RepairFunction(name, True, partial(vote, exponent=e),
                         vote_exponent=e) for name, e in (("mv", 0), ("wv", 4)))
MAX = RepairFunction("max", True, lambda vs, ns, w, rng: max_value(vs))

BUILTINS = {fn.name: fn for fn in (MV, WV, MAX)}


def get_function(name):
    try:
        return BUILTINS[name]
    except KeyError:
        raise ValueError("unknown repair function %r (choose from %s)"
                         % (name, ", ".join(sorted(BUILTINS)))) from None
