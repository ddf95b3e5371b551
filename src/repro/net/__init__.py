"""Departmental LAN model: nodes, messages, RPCs, bulk transfers."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Network": "network", "Node": "network", "BulkTransfer": "network",
    "RpcTicket": "network", "BatchTicket": "network",
    "ReliableSender": "reliable",
    "DEFAULT_LATENCY": "network", "DEFAULT_BANDWIDTH_MB_S": "network",
})
