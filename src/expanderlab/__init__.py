"""Spectral-expander laboratory.

Certificates for (n, (1±gamma)d, lambda)-graphs, mixing-lemma audits,
random-subset sampling experiments, expander matching lemmas, a port
connector, and a constructive, verifiable
Hamilton-cycle pipeline on desk-scale expanders.
"""

from . import (errors, extend, graphs, hamilton, linalg, matching, mixing,
               rng, sampling)

__all__ = ["errors", "extend", "graphs", "hamilton", "linalg", "matching",
           "mixing", "rng", "sampling"]
__version__ = "0.1.0"
