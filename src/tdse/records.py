"""Base classes of tdse's value types.  Creating one of their subclasses
costs microseconds at import, where a class whose methods a decorator
generates from its annotations costs about a millisecond.

A record lists its fields in __slots__, in the order of its __init__
parameters (a slot whose name starts with '_' holds derived state), and
__init__ validates and sets them.  Record gives a Name(field=value, ...)
repr, field-wise equality (np.array_equal for an array field), pickling
through __init__, and replace(), a copy that __init__ validates again.
Frozen adds immutability and hashing.
"""

import numpy as np


class Record:
    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the slots, in order, from __init__."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def replace(self, **changes):
        """A copy with the given fields changed, built and validated by __init__."""
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):
        return type(self), tuple(self._asdict().values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in zip(self._asdict().values(), other._asdict().values())
        )


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(tuple(self._asdict().values()))
