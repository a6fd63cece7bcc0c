"""Immutable value records, in place of frozen dataclasses: importing
dataclasses loads inspect, ast, dis and tokenize, several milliseconds and
most of a megabyte at every CLI start."""


class Record:
    """Base of immutable records.  A subclass declares its fields as class
    annotations, in order, with defaults on the trailing ones, and gets an
    __init__ that takes them positionally or by keyword, then runs
    __post_init__ if the class has one.  Records are equal when of the same
    class with equal fields, and hash as their field tuple.  Assignment
    raises AttributeError; functools.cached_property still works, as it
    writes the instance __dict__ directly.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__annotations__)  # in declaration order
        defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        # __init__ is generated with the fields as parameters, as dataclasses
        # does: a generic one over *args takes half as long again per record
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
        body = [f"_state[{n!r}] = {n}" for n in names]
        body.append(f"_state['_values'] = ({''.join(n + ', ' for n in names)})")  # for == and hash
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        scope: dict = {}
        exec(f"def __init__(self, {params}):\n    _state = self.__dict__\n    "
             + "\n    ".join(body), {"_defaults": defaults}, scope)
        scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = scope["__init__"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def require_ints(record: Record, *names: str) -> None:
    """Refuse (ValueError) each named field that is not an int: a float or a
    bool passes the range checks and fails later, in a shift or a range."""
    for name in names:
        if type(getattr(record, name)) is not int:
            raise ValueError(f"{name} must be an integer, got {getattr(record, name)!r}")
