"""Core structural parameters (paper Table 1)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core configuration.

    Defaults mirror the paper's simulated system: "Instruction issue &
    decode bandwidth: 8 issues per cycle; Reorder buffer size: 64; LSQ
    size: 32", a 2-level hybrid branch predictor, and a 2-ported d-cache.
    """

    fetch_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_size: int = 64
    lsq_size: int = 32
    dcache_ports: int = 2
    int_latency: int = 1
    fp_latency: int = 4
    branch_latency: int = 1
    #: Extra cycles between branch resolution and fetch restart.
    redirect_penalty: int = 1
    #: Branch predictor table sizes (2-level hybrid).
    bimodal_entries: int = 2048
    gshare_entries: int = 4096
    history_bits: int = 12
    chooser_entries: int = 2048
    btb_entries: int = 2048
    ras_depth: int = 16

    def __post_init__(self) -> None:
        for label in (
            "fetch_width",
            "dispatch_width",
            "issue_width",
            "commit_width",
            "rob_size",
            "lsq_size",
            "dcache_ports",
            "int_latency",
            "fp_latency",
            "branch_latency",
        ):
            if getattr(self, label) < 1:
                raise ValueError(f"{label} must be >= 1")
        if self.redirect_penalty < 0:
            raise ValueError("redirect_penalty must be >= 0")
