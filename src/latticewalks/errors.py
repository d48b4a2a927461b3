"""Shared exception types, and the one rule each for named kinds, path
sizes and orders."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured resource budget."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or missed its tolerance."""


def check_path(n: int, least: int = 1,
               message: str = "path needs at least one vertex") -> int:
    """n, checked to be the vertex count of a path: an int, and at least
    ``least``, else a ValueError with ``message``."""
    if not isinstance(n, int):
        raise ValueError(f"path size must be an integer, got {n!r}")
    if n < least:
        raise ValueError(message)
    return n


def check_order(m: int, what: str) -> int:
    """m, checked to be an order, a nonnegative int, named ``what``."""
    if not isinstance(m, int):
        raise ValueError(f"{what} must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"{what} must be nonnegative")
    return m


class KindTable(dict):
    """The named kinds of one family (lattice, fold, moment, density, product).

    Kinds match exactly.  A known kind is one dict access; an unknown one
    raises ValueError naming the family and its known kinds.
    """

    def __init__(self, family: str, entries):
        super().__init__(entries)
        self.family = family

    def __missing__(self, kind):
        raise ValueError(f"unknown {self.family} kind {kind!r}; "
                         f"known: {', '.join(self)}")

    def params(self, kind: str, requires: tuple[str, ...], **given) -> dict:
        """The values of ``requires`` among ``given``, where None means not
        given: a kind needs every parameter it requires and takes no other."""
        for p in requires:
            if given[p] is None:
                raise ValueError(f"{self.family} kind {kind!r} requires parameter {p}")
        for p, v in given.items():
            if v is not None and p not in requires:
                raise ValueError(f"{self.family} kind {kind!r} does not take parameter {p}")
        return {p: given[p] for p in requires}
