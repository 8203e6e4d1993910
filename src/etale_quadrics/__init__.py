"""Exact 2-adic etale cohomology of anisotropic quadrics over the reals.

Closed-form tables for Rost motives and their quadrics, an independent
Bockstein/universal-coefficient computation route that re-derives every
table, cycle-map images and non-algebraic class inventories, graded-rank
checks of explicit ring presentations, and a deterministic CLI.
"""

__version__ = "0.1.0"
