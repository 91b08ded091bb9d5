"""Frozen, slotted value classes, built without generating code: a dataclass
compiles its methods from source at import, ``record`` closes over the names."""

from operator import attrgetter


def record(cls):
    """``cls`` rebuilt as a frozen value class with slots over its fields.

    The fields are the class's annotations, ``ClassVar``s excepted, in order;
    a class attribute named after a field is its default.  Instances are built
    positionally or by keyword, then ``__post_init__`` runs if defined.  They
    are equal, hashed and printed as frozen dataclasses are: equal when of one
    class with equal field tuples, hashed as the field tuple (computed on first
    use and kept), and shown as ``Name(f=..., g=...)``.  Assignment and
    deletion raise ``AttributeError``; pickling and copying rebuild from the
    fields.
    """
    ns = dict(cls.__dict__)
    names = tuple(name for name, ann in ns.get("__annotations__", {}).items()
                  if not ann.startswith(("ClassVar", "typing.ClassVar")))
    defaults = {name: ns.pop(name) for name in names if name in ns}
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__slots__"] = names + ("_hash",)
    ns["__qualname__"] = qualname = cls.__qualname__
    arity, post_init = len(names), ns.get("__post_init__")
    if arity > 1:
        fields = attrgetter(*names)
    elif arity == 1:  # attrgetter of one name gives the value, not a 1-tuple
        get = attrgetter(names[0])
        fields = lambda self: (get(self),)  # noqa: E731
    else:
        fields = lambda self: ()  # noqa: E731

    def bind(args, kwargs):
        if len(args) > arity:
            raise TypeError(f"{qualname}() takes {arity} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{qualname}() got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(fields(self))
            put_hash(self, h)
            return h

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
                + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, fields(self)

    ns.update((f.__name__, f) for f in (__init__, __eq__, __hash__, __repr__,
                                        __setattr__, __delattr__, __reduce__))
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    setters = tuple(new.__dict__[name].__set__ for name in names)
    put_hash = new.__dict__["_hash"].__set__
    return new
