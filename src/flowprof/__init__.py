"""Traffic profiling for smart-home devices: event signatures, iterative
flow blocking, signature-tree exploration, and a simulated device network."""

from .core import (
    AppSelector,
    CoapSelector,
    Direction,
    DnsSelector,
    FlowId,
    HostKind,
    HostRef,
    HttpSelector,
    ParsedPacket,
    SchemaError,
    Topology,
    Transport,
    canonicalize,
    sorted_flows,
)
from .pcapio import (
    MalformedHeader,
    Trace,
    TruncatedRecord,
    UnresolvedHost,
    dissect,
    filter_control_plane,
    read_pcap,
    write_pcap,
)
from .signature import (
    DnsTable,
    EventSignature,
    accept_signature,
    aggregate_flows,
    extract_signature,
)
from .blocklist import (
    Rule,
    RuleSet,
    RuleSyntaxError,
    compile_rules,
    matches_flow,
    matches_packet,
    parse,
    render,
)
from .sigtree import (
    NodeAlreadyVisited,
    NodeStatus,
    RootFailed,
    SigNode,
    SigTree,
    TreeStats,
    explore,
)
from .simnet import (
    CaptureResult,
    DeviceModel,
    FlowSpec,
    GuardCycle,
    SimDriver,
    UnknownFlowRef,
    UnresolvedDomain,
    load_model,
    oracle_tree,
    run_capture,
)
from .profiler import (
    BlockingViolation,
    DnsStats,
    EventReport,
    ProfileConfig,
    build_report,
    dns_stats,
    profile_event,
    render_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AppSelector", "CoapSelector", "Direction", "DnsSelector", "FlowId",
    "HostKind", "HostRef", "HttpSelector", "ParsedPacket", "SchemaError",
    "Topology", "Transport", "canonicalize", "sorted_flows",
    "MalformedHeader", "Trace", "TruncatedRecord", "UnresolvedHost",
    "dissect", "filter_control_plane", "read_pcap", "write_pcap",
    "DnsTable", "EventSignature", "accept_signature",
    "aggregate_flows", "extract_signature",
    "Rule", "RuleSet", "RuleSyntaxError", "compile_rules", "matches_flow",
    "matches_packet", "parse", "render",
    "NodeAlreadyVisited", "NodeStatus", "RootFailed", "SigNode", "SigTree",
    "TreeStats", "explore",
    "CaptureResult", "DeviceModel", "FlowSpec", "GuardCycle", "SimDriver",
    "UnknownFlowRef", "UnresolvedDomain", "load_model", "oracle_tree",
    "run_capture",
    "BlockingViolation", "DnsStats", "EventReport", "ProfileConfig",
    "build_report", "dns_stats", "profile_event", "render_csv",
]
