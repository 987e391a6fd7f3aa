"""The paper's literal J arguments, checked against bounds.FAMILIES."""
from liejordan.bounds import FAMILIES


def consistency_check_bounds(n: int) -> bool:
    """Check the paper's literal J arguments against the family table.

    For the Riemannian case this is a genuine identity between two
    differently written expressions: with m = n(n+1)/2,
    2m(2^(m-1) + 5) = m(2^m + 10).
    """
    if n < 1:
        raise ValueError(f"consistency checks need n >= 1, got {n}")
    literal = {
        "lie": n * (2 ** n + 10),
        "algebraic": n * (2 ** (2 * n + 1) + 20),
        "compact-complex": (2 * n * n + n) * (2 ** (2 * n * n + n) + 10),
        "hyperbolic": (2 * n + n * n) * (2 ** (2 * n + n * n) + 10),
        "riemannian": (n * n + n) * (2 ** ((n * n + n - 2) // 2) + 5),
    }
    return all(arg == m * (2 ** m + 10)
               for family, arg in literal.items() for m in [FAMILIES[family](n)])
