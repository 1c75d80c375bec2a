"""ionpulse: pulse-schedule compilation and verification for a trapped ion.

Simulates the conditional laser-ion dynamics of a single trapped two-level
ion to all orders in the Lamb-Dicke parameter, compiles pulse schedules
(frequencies, phases, durations) that synthesize target motional and
entangled states, and verifies every schedule against an independent
Hamiltonian-propagation oracle.
"""

from . import core, oracle, states, synthesis
from .core import *
from .states import *
from .synthesis import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *states.__all__, *synthesis.__all__, *oracle.__all__, "__version__"]
