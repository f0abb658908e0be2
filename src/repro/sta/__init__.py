"""Static timing analysis: graph, analyzer, sign-off derate, critical
binning."""

from .analyzer import EndpointTiming, StaReport, analyze
from .corners import TT, WORST_CASE, Corner, DeratingModel
from .critical import CriticalPathReport, MonitoredPath, bin_critical_paths
from .graph import StaError, TimingGraph

__all__ = [
    "EndpointTiming", "StaReport", "analyze",
    "TT", "WORST_CASE", "Corner", "DeratingModel",
    "CriticalPathReport", "MonitoredPath", "bin_critical_paths",
    "StaError", "TimingGraph",
]
