"""One pickling rule for objects with lazily derived members."""

from functools import cached_property


class DerivedState:
    """Mixin: pickles leave out every cached property of the class and
    of its bases (a subclass's included). Each holds a pure function of
    the rest of the state and rebuilds on first use, so a shipped object
    (a TCP worker's ``init`` frame) is the same bytes, and the same
    size, whatever the sender derived."""

    def __getstate__(self) -> dict:
        derived = {
            name
            for klass in type(self).__mro__
            for name, value in vars(klass).items()
            if isinstance(value, cached_property)
        }
        return {k: v for k, v in self.__dict__.items() if k not in derived}
