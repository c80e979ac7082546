"""``save_checkpoint`` and ``censored_travel_time`` under this module's name.

Grid training is ``training.train`` at any K. These two names stay here
because perfbench's tracer imports this module and wraps them by attribute.
"""

from .networks import save_checkpoint  # noqa: F401  re-export
from .training import censored_travel_time  # noqa: F401  re-export
