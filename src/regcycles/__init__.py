"""Exact tools for regular cycles of permutation-group elements.

Subpackages:

- ``numtheory``: factorization, omega, the prime-count and series bounds.
- ``perm``: permutations, cycle structure, stabilizer chains.
- ``regcycle``: regular-cycle tests, fixed-point ratios, S(g, Omega).
- ``geometry``: finite fields, classical forms, subspace action domains.
- ``bounds``: closed-form certification that S(g, Omega) < 1, and scans.
- ``cli``: batch command-line front end.

The two caps live here, where importing them imports no submodule (the
CLI's parser reads the element cap without loading numpy); ``perm``
re-exports both.
"""

__version__ = "0.1.0"

# the most group elements a question that needs a stabilizer chain accepts
DEFAULT_ELEMENT_CAP = 10**7
# the most points of any domain, a group file's degree included
DEFAULT_DOMAIN_CAP = 10**6
