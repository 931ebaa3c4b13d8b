"""Desk-scale simulator for OAM-entangled photon pairs in turbulence.

Each public name lives in the one module whose `__all__` lists it, and
is imported from there, for example
`from skysim.experiments import RunConfig, run_static`. Importing the
package loads none of them, so the command line can cap the numeric
thread pools before numpy starts.
"""

__version__ = "0.1.0"
