"""Library calls that take a size raise only the package's own errors.

Each call gets two drawn integers, negative ones included, as its sizes (and
as a seed where it needs one).  It must either return or raise an
``errors.ExpanderLtcError``; any other exception fails the test.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from expander_ltc import errors
from expander_ltc.f2 import BitMatrix, BitVector
from expander_ltc.groups import block_action, left_regular_action, make_cyclic
from expander_ltc.search import layered_cayley, random_generating_set

CALLS = {
    "BitVector": lambda n, m: BitVector(n, m),
    "BitVector.from_support": lambda n, m: BitVector.from_support(n, [m]),
    "BitMatrix": lambda n, m: BitMatrix(n, m),
    "block_action": lambda n, _: block_action(left_regular_action(make_cyclic(3)), n),
    "make_cyclic": lambda n, _: make_cyclic(n),
    "random_generating_set": lambda n, m: random_generating_set(
        make_cyclic(5), n, random.Random(m)
    ),
    "layered_cayley": lambda n, m: layered_cayley(make_cyclic(4), n, m, random.Random(0)),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CALLS)), st.integers(-3, 8), st.integers(-3, 8))
def test_sizes_raise_only_package_errors(name, n, m):
    try:
        CALLS[name](n, m)
    except errors.ExpanderLtcError:
        pass
