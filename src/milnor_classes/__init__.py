"""Exact Milnor-class calculator for singular hypersurfaces.

Chow-ring arithmetic is exact over the integers; every class of a singular
hypersurface or transversal intersection is computed by several
independent routes that are cross-validated for exact equality.
"""

__version__ = "0.1.0"
