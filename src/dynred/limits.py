"""Desk-scale size guards.

Every brute-force or exponential-size construction checks one of these caps
before allocating. Guards raise GuardError, never silently truncate. The node
cap honours an environment override so larger experiments stay possible.
"""

import os

# exhaustive assignment enumeration: 2^n iterations
ORACLE_SAT_MAX_VARS = 24

# variables folded into the assignment block of a clause gadget: 2^split nodes
ASSIGN_BLOCK_MAX_BITS = 20

# bitmask DP for max-weight perfect matchings: 2^n states on the smaller side
ORACLE_PM_DP_MAX_SIDE = 20

# tripartite listing instances: per-side node budget
TRIPARTITE_MAX_SIDE = 512

# set systems: total stored sets across one engine run
MAX_SETS = 500_000

# dense query buffers (the diameter's n x n matrix, the assignment solver's
# left x right cost matrix): cells per buffer
MAX_DENSE_CELLS = 4_000_000

# built gadget graphs: node budget, overridable for bigger runs
MAX_STATE_NODES = 5_000_000


def max_state_nodes() -> int:
    """The node budget: REDUX_MAX_STATE_NODES when set, else MAX_STATE_NODES.

    Read at each use, so a malformed value fails the graph construction
    that needs it with a DomainError, not the import of the package.
    """
    raw = os.environ.get("REDUX_MAX_STATE_NODES")
    if raw is None:
        return MAX_STATE_NODES
    try:
        return int(raw)
    except ValueError:
        from .model import DomainError  # model imports this module

        raise DomainError(
            f"REDUX_MAX_STATE_NODES must be an integer, got {raw!r}") from None
