"""Immutable value records, the base of the library's record types."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable record compared and hashed by its field values.

    The fields are the class's annotated names, in order, after those of a
    record base class; a class attribute of the same name is the field's
    default.  Instances compare equal when they have the same class and
    equal field values, hash like the tuple of their field values, and
    raise AttributeError on assigning or deleting an attribute.
    `functools.cached_property` still works: it writes the instance
    `__dict__` directly.

    Records are plain subclasses of this class, not made by the standard
    library's data-class decorator, because of start-up cost.  Every CLI
    command is a fresh process, and on desk-scale inputs most of its time is
    start-up.  The decorator's module imports `inspect`, `ast`, `dis` and
    `tokenize`, and each decorated class generates and execs its methods at
    import, which took about half of `import crossedcat.cli`.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(n for n in cls.__dict__.get("__annotations__", {}) if n not in cls._fields)
        names = cls._fields = cls._fields + own
        # one C call reads every field: an attrgetter of two or more names
        # returns their tuple
        if len(names) > 1:
            cls._values = staticmethod(attrgetter(*names))
        elif names:
            one = attrgetter(names[0])
            cls._values = staticmethod(lambda record: (one(record),))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) == len(names) and not kwargs:
            for name, value in zip(names, args):
                object.__setattr__(self, name, value)
            return
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__} takes {len(names)} fields, got {len(args)}")
        for name in kwargs:
            if name not in names[len(args):]:
                raise TypeError(f"{cls.__qualname__} got an unexpected or repeated field {name!r}")
        for i, name in enumerate(names):
            if i < len(args):
                value = args[i]
            elif name in kwargs:
                value = kwargs[name]
            elif hasattr(cls, name):
                value = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__qualname__} is missing field {name!r}")
            # never through self.__dict__: materializing it slows every
            # later attribute read
            object.__setattr__(self, name, value)

    @staticmethod
    def _values(record) -> tuple:
        return ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
