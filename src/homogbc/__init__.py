"""Effective Dirichlet boundary data for oscillating elliptic problems.

Modules: geometry (directions, equidistribution counts, domains),
operators (Pucci, linear, Bellman specs), fdsolver (monotone
wide-stencil schemes), barriers (explicit super/subsolutions),
corrector (half-space strips and ray limits), effective (the sandwich
pipeline), cli (batch driver).
"""

__version__ = "0.1.0"
