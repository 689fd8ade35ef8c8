"""Exact tools for regular cycles of permutation-group elements.

Subpackages:

- ``numtheory``: factorization, omega, the prime-count and series bounds.
- ``perm``: permutations, cycle structure, stabilizer chains.
- ``regcycle``: regular-cycle tests, fixed-point ratios, S(g, Omega).
- ``geometry``: finite fields, classical forms, subspace action domains.
- ``bounds``: closed-form certification that S(g, Omega) < 1, and scans.
- ``cli``: batch command-line front end.

The package root holds what every layer shares and imports no submodule
and no numpy: the two caps (the CLI's parser reads the element cap) and
the text readers, one line reader (``file_lines``) and one integer
reader (``read_ints``), behind group files (``perm``), matrix files
(``geometry``) and tables JSON (``bounds``).  ``perm`` re-exports all
four.
"""

__version__ = "0.1.0"

# the most group elements a question that needs a stabilizer chain accepts
DEFAULT_ELEMENT_CAP = 10**7
# the most points of any domain, a group file's degree included
DEFAULT_DOMAIN_CAP = 10**6


def file_lines(text: str) -> tuple[list[tuple[int, str]], int]:
    """The (number, text) of each line of a group or matrix file that
    holds more than a '#' comment, and the number of the line after the
    last, at which an error at the end of the file is reported."""
    raw = text.splitlines()
    lines = []
    for lineno, line in enumerate(raw, start=1):
        if line := line.partition("#")[0].strip():
            lines.append((lineno, line))
    return lines, len(raw) + 1


def read_ints(tokens: list[str], most: int | None = None,
              bad: str = "expected an integer, got {!r}",
              over: str = "integer {} is too long") -> list[int]:
    """The values of integer fields of a group, matrix or tables file:
    runs of ASCII digits, zeros in front allowed (int() would also take a
    sign, '_' and other scripts' digits).  A field capped at `most` is
    compared with the cap by digit count before int() sees it.
    ValueError(bad) names the first token that is not an integer, else
    ValueError(over) the first past the cap or past int()'s digit limit,
    without its zeros in front; '{}' in a message is the token, cut short
    past 60 characters.
    """
    joined = "".join(tokens)
    if joined.isdigit() and joined.isascii() and most is not None \
            and max(map(len, tokens)) <= len(str(most)):
        values = list(map(int, tokens))  # the common case
        if max(values) <= most:
            return values
    message, values = bad, []
    token = next((t for t in tokens if not (t.isascii() and t.isdigit())),
                 None)
    if token is None:
        message = over
        for token in (t.lstrip("0") or "0" for t in tokens):
            try:
                if most is not None and len(token) > len(str(most)):
                    raise ValueError
                values.append(int(token))
                if most is not None and values[-1] > most:
                    raise ValueError
            except ValueError:
                break
        else:
            return values
    if len(token) > 60:
        token = f"{token[:20]}... ({len(token)} characters)"
    raise ValueError(message.format(token))
