"""Frozen records: the part of ``@dataclass(frozen=True)`` momentlab uses.

Importing ``dataclasses`` also imports ``inspect``, ``ast``, ``dis``,
``tokenize`` and ``linecache``, which costs a one-shot CLI process more
than any of its arithmetic.  ``Record`` gives the same behaviour without
them: the fields are the class's own annotations, in order, and a class
attribute of the same name is the field's default (unannotated class
attributes stay constants); ``__init__`` takes positional or keyword
arguments and then calls ``__post_init__``; equality holds only between
instances of the same class; the hash is that of the field tuple; the
repr is ``QualName(field=value!r, ...)``; setting or deleting an
attribute raises AttributeError; instances pickle; ``replace`` builds a
copy with some fields changed, running ``__post_init__`` again.

A record also answers the public ``dataclasses`` API: ``is_dataclass``,
``fields``, ``replace``, ``asdict`` and ``astuple``.  Those functions only
read the class attribute ``__dataclass_fields__``; on ``Record`` it is a
non-data descriptor that, on first read, imports ``dataclasses``, builds a
``make_dataclass`` twin of the record's fields (with their defaults) and
caches the twin's field map on the record's class.  So only a process
that itself calls into ``dataclasses`` pays for importing it, and
``dataclasses.replace`` builds the copy through ``__init__``, running
``__post_init__`` again.
"""

from __future__ import annotations


class _DataclassFields:
    """``__dataclass_fields__``, built from a ``make_dataclass`` twin on first read."""

    def __get__(self, instance, owner):
        if owner is Record:  # caching on Record would hide every subclass's fields
            raise AttributeError("Record itself has no fields")
        import dataclasses

        spec = [(name, owner.__annotations__[name],
                 dataclasses.field(default=owner._defaults.get(name, dataclasses.MISSING)))
                for name in owner._fields]
        fields = dataclasses.make_dataclass(owner.__name__, spec).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields


class Record:
    _fields = ()
    _defaults = {}
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        if tuple(cls._defaults) != cls._fields[len(cls._fields) - len(cls._defaults):]:
            raise TypeError(f"{cls.__name__}: a field without a default follows a default field")

    def __init__(self, *args, **kwargs):
        cls = type(self)
        name = cls.__name__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for key in kwargs:
            if key not in cls._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**cls._defaults, **values, **kwargs}
        for field in cls._fields:
            if field not in values:
                raise TypeError(f"{name}() missing required argument {field!r}")
            object.__setattr__(self, field, values[field])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the given fields changed, like ``dataclasses.replace``."""
        return type(self)(**dict(zip(self._fields, self._astuple()), **changes))
