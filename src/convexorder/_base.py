"""The plain-class value base and the names of the probe groups.

``sweep.RunConfig`` is a ``_Value`` whose test-function groups default to
all the groups, as ``verify-rasa --functions`` does, but a sweep whose rows
relation (c) decides evaluates no test function.  So both names have their
one home here, which ``sweep`` and ``convex_functions`` import from, and a
sweep does not load ``convex_functions``.  This module imports nothing.
"""

# The groups of ``convex_functions.builtin_family``, by the names a sweep
# selects them with.
KNOWN_FUNCTION_GROUPS = ("angles", "monomials", "affine", "random-pwl")


class _Value:
    """An immutable value whose fields are its class's public ``__slots__``.

    Two values are equal when they are of one class and their fields are
    equal, and the hash is that of the field tuple, so a probe can key a
    cache without meeting a probe of another class with equal fields there
    (``Angle(2) != Monomial(2)``).  The repr names every field, and fields
    are set once, in ``__init__`` through ``_fill``.  A slot whose name
    starts with an underscore holds data derived from the fields in
    ``__init__``, outside equality, hash and repr.  A plain class costs far
    less to build at import than a generated one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
