"""The base of slc's immutable value classes.

A ``Value`` subclass lists its fields in ``__slots__``; its ``__init__``
sets each once with ``setfield``, and any later assignment raises
``AttributeError``. Classes built in bulk write ``__init__``, and where
hashing is hot ``__hash__`` and ``__eq__``, by hand; the others take the
base's. Values follow the frozen-dataclass rules, so hashes and set orders
are theirs: equal when class and fields are, hashed as the fields' tuple.
"""

from operator import attrgetter

setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        get = attrgetter(*names) if names else (lambda self: ())
        # The tuple of the fields (attrgetter of one name gives the field itself).
        fields = get if len(names) != 1 else (lambda self: (get(self),))
        methods = {"__hash__": lambda self: hash(fields(self)),
                   "__reduce__": lambda self: (self.__class__, fields(self)),
                   "__eq__": lambda self, other: (fields(self) == fields(other) if
                                                  other.__class__ is self.__class__
                                                  else NotImplemented)}
        for name, method in methods.items():
            if name not in vars(cls):  # not written by hand
                setattr(cls, name, method)

    def __init__(self, *args) -> None:
        if len(args) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, arg in zip(self.__slots__, args):
            setfield(self, name, arg)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot change field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
