"""flowgate: a userspace edge-router data plane comparing two table designs.

The baseline pipeline consults NAT, connection-state, QoS, and routing
tables separately for every packet; the integrated pipeline folds all four
into one session-table entry so established flows need a single lookup.
"""

__version__ = "0.1.0"
