"""Shared exception types, and the one rule for looking up named kinds."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured resource budget."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or missed its tolerance."""


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
