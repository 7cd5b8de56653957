"""flowgate: a userspace edge-router data plane comparing two table designs.

The baseline pipeline consults NAT, connection-state, QoS, and routing
tables separately for every packet; the integrated pipeline folds all four
into one session-table entry so established flows need a single lookup.
"""

from flowgate.errors import ConfigError, TraceError
from flowgate.filters import Action, FilterRule, RuleSet, evaluate, parse_rules
from flowgate.harness import (
    ComparisonResult,
    MetricsReport,
    TraceSpec,
    bench,
    compare,
    generate_packets,
    generate_trace,
    run_pipeline,
)
from flowgate.nat import (
    NatConfig,
    NatPoolExhausted,
    NatTable,
    inbound_sid,
    outbound_sid,
    parse_nat_config,
)
from flowgate.packet import (
    ACK,
    FIN,
    RST,
    SYN,
    Cidr,
    Direction,
    Packet,
    SessionId,
    load_trace,
    merge_dscp,
    parse_trace_record,
    render_trace_record,
)
from flowgate.pipelines import (
    BaselinePipeline,
    Dropped,
    DropReason,
    Forwarded,
    IntegratedPipeline,
    LookupAccounting,
    RouterConfig,
    Verdict,
)
from flowgate.qos import QosPolicy, QosRule, classify, parse_qos
from flowgate.routing import RouteEntry, RoutingTable, parse_routes
from flowgate.session_table import (
    SessionEntry,
    SessionState,
    SessionTable,
    TableFullError,
    Timeouts,
)

__version__ = "0.1.0"
