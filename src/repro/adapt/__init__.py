"""Online, feedback-driven relocation policies (DESIGN.md §5j).

The subsystem turns the timeline's live per-window feedback into
mid-run relocation decisions executed through the forwarding-safe
primitives:

- :mod:`repro.adapt.config` — ``AdaptConfig``, nested in
  ``MachineConfig`` and hence in every config fingerprint;
- :mod:`repro.adapt.profile` — decayed per-region heat model;
- :mod:`repro.adapt.policy` — threshold / hysteresis / epsilon-greedy
  policies emitting auditable ``RelocationDecision``s;
- :mod:`repro.adapt.engine` — the on_window driver with its
  cost/benefit ledger;
- :mod:`repro.adapt.experiment` — the ``python -m repro adapt``
  static-never vs static-once vs adaptive headline matrix.
"""

from repro._lazy import lazy_exports

# Re-exported lazily: ``repro.adapt.config`` sits under every machine
# config and must not pull in the policy machinery (DESIGN.md §5l).
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.adapt.config": ("POLICIES", "AdaptConfig"),
    "repro.adapt.policy": (
        "Policy",
        "RelocationDecision",
        "WindowFeedback",
        "make_policy",
    ),
    "repro.adapt.profile": ("HeatProfile",),
})

__all__ = [
    "AdaptConfig",
    "POLICIES",
    "Policy",
    "RelocationDecision",
    "WindowFeedback",
    "make_policy",
    "HeatProfile",
]
