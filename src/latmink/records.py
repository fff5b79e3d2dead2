"""Immutable report records, without the code generation of dataclasses.

A subclass of `Record` names its fields as class annotations, in order, and
behaves as the frozen dataclass of those fields would, `__post_init__` and
repr included; the values live in `__dict__` in field order, so `vars(record)`
is the dict of its fields, and copy and pickle work as for a plain object."""


class Record:
    _fields = ()  # a subclass's field names, read once from its own annotations

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        values = dict(zip(fields, args))
        if len(args) > len(fields) or not kwargs.keys() <= set(fields) - values.keys():
            raise TypeError(f"{name}() takes the fields {fields}, got {len(args)} positional and {sorted(kwargs)}")
        values.update(kwargs)
        if len(values) < len(fields):
            raise TypeError(f"{name}() is missing {[field for field in fields if field not in values]}")
        self.__dict__.update([(field, values[field]) for field in fields])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        items = ", ".join([f"{field}={value!r}" for field, value in self.__dict__.items()])
        return f"{type(self).__qualname__}({items})"
