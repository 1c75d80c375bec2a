"""ionpulse: pulse-schedule compilation and verification for a trapped ion.

Simulates the conditional laser-ion dynamics of a single trapped two-level
ion to all orders in the Lamb-Dicke parameter, compiles pulse schedules
(frequencies, phases, durations) that synthesize target motional and
entangled states, and verifies every schedule against an independent
Hamiltonian-propagation oracle.  The synthesis and oracle names load on first use.
"""

import importlib

from . import core, states
from .core import *
from .states import *

__version__ = "0.1.0"

# the modules that load on first use, each with its public names (listed only here)
_LAZY = {
    "synthesis": ("FockTarget", "SuperpositionTarget", "PhaseStateTarget", "CoherentTarget",
                  "ParityCoherentTarget", "BellTarget", "TargetState", "SynthesisReport",
                  "compile_target", "target_state_vector", "default_fock_dim"),
    "oracle": ("HamiltonianMatrix", "build_hamiltonian", "propagate", "verify_schedule"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = [*core.__all__, *states.__all__, *_LAZY["synthesis"], *_LAZY["oracle"], "__version__"]


def __getattr__(name: str):
    """Import the module that owns name and bind all its public names here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    globals().update({key: getattr(module, key) for key in _LAZY[_HOME[name]]})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_HOME})
