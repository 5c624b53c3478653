"""Canonical machine configurations for the paper's experiments.

One place defines the simulated machine every experiment runs on, so
Figure 5, Figure 6, Figure 7 and Figure 10 are all measured on the same
system -- as in the paper.  See DESIGN.md Section 5 for how this scaled
configuration corresponds to the paper's MIPS-class target.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import HierarchyConfig, MachineConfig
from repro.cpu.timing import TimingConfig

#: L1 line sizes swept by Figures 5 and 6 for most applications.
DEFAULT_LINE_SIZES = (32, 64, 128)

#: BH's cells are ~72 B, so its sweep extends to 256 B lines (the paper
#: notes meaningful clustering needs 256 B or longer).
BH_LINE_SIZES = (64, 128, 256)

#: Line size used by the prefetching study (Figure 7).
FIGURE7_LINE_SIZE = 32

#: Per-application workload seeds (fixed so results are reproducible).
APP_SEEDS = {
    "health": 7,
    "mst": 3,
    "radiosity": 11,
    "vis": 5,
    "eqntott": 13,
    "bh": 17,
    "compress": 23,
    "smv": 29,
    # Phase-changing inputs for the adaptive experiment: same seeds as
    # their parents so the pre-flip workload is identical.
    "mst_phase": 3,
    "health_phase": 7,
}


def line_sizes_for(app: str) -> tuple[int, ...]:
    """The Figure 5 line-size sweep for one application."""
    return BH_LINE_SIZES if app == "bh" else DEFAULT_LINE_SIZES


def experiment_config(line_size: int = 32) -> MachineConfig:
    """The canonical experiment machine at a given L1 line size."""
    return MachineConfig(
        hierarchy=HierarchyConfig(line_size=line_size),
        timing=TimingConfig(),
    )


def config_without_speculation(line_size: int = 32) -> MachineConfig:
    """Ablation: data-dependence speculation disabled."""
    return replace(experiment_config(line_size), speculation_window=0)
