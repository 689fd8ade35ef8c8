"""Closed-form domain sizes, as the tests' oracle.

The certification pipelines bound each fixed-point ratio without |Omega|,
so only the tests use these sizes, cross-checked against the exhaustive
counts of the geometry domains.
"""

from regcycles.bounds import GroupId


def omega_size(case: str, gid: GroupId):
    """Exact domain sizes for the closed-form cases.

    case "i": totally singular 1-subspaces; "ii": non-degenerate
    1-subspaces (odd-q orthogonal: both orbits together); "iv":
    anisotropic 2-subspaces; "vi": the two polarizing-form domains of
    Sp_n(2^e), returned as a (plus, minus) pair.
    """
    n, q = gid.n, gid.q
    fam = gid.family
    if case == "i":
        if fam in ("PSL", "PSp"):
            return (q**n - 1) // (q - 1)
        if fam == "PSU":
            return ((q**n - (-1)**n) * (q**(n - 1) - (-1)**(n - 1))
                    // (q**2 - 1))
        if fam == "POmega":
            return (q**(n - 1) - 1) // (q - 1)
        if fam == "POmega+":
            return (q**(n // 2) - 1) * (q**(n // 2 - 1) + 1) // (q - 1)
        return (q**(n // 2 - 1) - 1) * (q**(n // 2) + 1) // (q - 1)
    if case == "ii":
        if fam == "PSU":
            return (q**n - (-1)**n) * q**(n - 1) // (q + 1)
        if fam == "POmega":
            return q**(n - 1)
        if fam in ("POmega+", "POmega-"):
            eps = 1 if fam == "POmega+" else -1
            return q**(n // 2 - 1) * (q**(n // 2) - eps)
        raise ValueError(f"case ii undefined for {fam}")
    if case == "iv":
        m = gid.m
        if fam == "POmega+":
            return (q**(2 * (m - 1)) * (q**m - 1) * (q**(m - 1) - 1)
                    // (2 * (q + 1)))
        if fam == "POmega-":
            return (q**(2 * m) * (q**(m + 1) + 1) * (q**m + 1)
                    // (2 * (q + 1)))
        if fam == "POmega":
            return q**(2 * m - 1) * (q**(2 * m) - 1) // (2 * (q + 1))
        raise ValueError(f"case iv undefined for {fam}")
    if case == "vi":
        if fam != "PSp" or gid.p != 2:
            raise ValueError("case vi needs PSp in characteristic 2")
        m = gid.m
        return (q**m * (q**m + 1) // 2, q**m * (q**m - 1) // 2)
    raise ValueError(f"no closed-form size for case {case!r}")
