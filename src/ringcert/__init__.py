"""ringcert: certificates for polynomial irreducibility and for bases of
rings of integers, with a verifier that re-derives everything from exact
arithmetic and trusts nothing the generator says."""

from .exactalg import ZZ
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = ["ZZ", "Verdict", "__version__"]
