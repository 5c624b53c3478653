"""The eight applications of Table 1, each in unoptimized and optimized form.

Each application module registers its class in
:data:`repro.apps.base.APPLICATIONS` when imported.  The modules load on
first use -- :func:`load_applications` imports them all, as does the
first read of ``repro.apps.APPLICATIONS`` or of an application class
name here -- so code that only names an application (cell identity, a
cached artifact) never imports the simulator (DESIGN.md §5l).  Use
:func:`repro.apps.get_application` to instantiate one by name.
"""

from importlib import import_module

from repro.apps.base import (
    Application,
    AppResult,
    Variant,
    get_application,
)

#: The seven applications of Figures 5-7 (SMV is evaluated separately in
#: Figure 10, as in the paper).
FIGURE5_APPS = ("health", "mst", "radiosity", "vis", "eqntott", "bh", "compress")

#: Phase-changing inputs for the adaptive-relocation experiment
#: (``python -m repro adapt``); deliberately *not* in FIGURE5_APPS so the
#: paper-figure manifests are untouched.
PHASE_APPS = ("mst_phase", "health_phase")

#: Application class -> the module that defines (and registers) it.
_APP_CLASSES = {
    "BH": "repro.apps.bh",
    "Compress": "repro.apps.compress",
    "Eqntott": "repro.apps.eqntott",
    "Health": "repro.apps.health",
    "HealthPhase": "repro.apps.phased",
    "MST": "repro.apps.mst",
    "MSTPhase": "repro.apps.phased",
    "Radiosity": "repro.apps.radiosity",
    "SMV": "repro.apps.smv",
    "VIS": "repro.apps.vis",
}


def load_applications() -> dict:
    """Import every application module; returns the full registry."""
    for module in dict.fromkeys(_APP_CLASSES.values()):
        import_module(module)
    from repro.apps.base import APPLICATIONS

    return APPLICATIONS


def __getattr__(name: str):
    if name == "APPLICATIONS":
        value = load_applications()
    elif name in _APP_CLASSES:
        value = getattr(import_module(_APP_CLASSES[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "APPLICATIONS",
    "Application",
    "AppResult",
    "BH",
    "Compress",
    "Eqntott",
    "FIGURE5_APPS",
    "Health",
    "HealthPhase",
    "MST",
    "MSTPhase",
    "PHASE_APPS",
    "Radiosity",
    "SMV",
    "VIS",
    "Variant",
    "get_application",
    "load_applications",
]
