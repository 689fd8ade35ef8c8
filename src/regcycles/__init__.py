"""Exact tools for regular cycles of permutation-group elements.

Subpackages:

- ``numtheory``: factorization, omega, the prime-count and series bounds.
- ``perm``: permutations, cycle structure, stabilizer chains.
- ``regcycle``: regular-cycle tests, fixed-point ratios, S(g, Omega).
- ``geometry``: finite fields, classical forms, subspace action domains.
- ``bounds``: closed-form certification that S(g, Omega) < 1, and scans.
- ``cli``: batch command-line front end.
"""

__version__ = "0.1.0"
