"""Exact computations around wildly ramified covers of the line.

Subpackages cover exact arithmetic (exactmath), the finite-group engine
with its subgroup search (groups), SL2/PSL2 group data (psl2),
upper-numbering ramification filtrations (ramification), explicit
Artin-Schreier-Witt towers (towers), tail configuration constraints
(tails), verification suites (checks) and the command line front end
(cli).
"""

__version__ = "0.1.0"
