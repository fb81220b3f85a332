"""Record: the frozen value classes' methods, written once instead of compiled per class."""

import dataclasses
import inspect
import math
from dataclasses import MISSING, Field, FrozenInstanceError, field


class Record:
    """Frozen, equal by value unless `class C(Record, eq=False)`. Subclasses get the field table
    `dataclasses.fields`, `replace` and `is_dataclass` read; dataclass() is not called, since
    from Python 3.13 on it compiles source for every class, even one given no methods."""

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dataclass_fields__ = {}
        for name, tp in inspect.get_annotations(cls).items():
            f = vars(cls).get(name, MISSING)
            f = fields[name] = f if isinstance(f, Field) else field(default=f)
            f.name, f.type, f._field_type = name, tp, dataclasses._FIELD
        cls.__match_args__ = tuple(fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields, values, where = self.__dataclass_fields__, self.__dict__, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{where}() takes {len(fields)} arguments but {len(args)} were given")
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key in values or key not in fields:
                raise TypeError(f"{where}() got a repeated or unknown argument {key!r}")
            values[key] = value
        for f in fields.values():
            if f.name not in values:
                if f.default is MISSING is f.default_factory:
                    raise TypeError(f"{where}() missing required argument {f.name!r}")
                values[f.name] = f.default if f.default_factory is MISSING else f.default_factory()
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self.__match_args__)))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def require_finite(record: Record, *names: str) -> None:
    """Raise ValueError on the first of `names` whose value is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite")
