"""The one base of the package's immutable value classes; it generates no code."""


class Record:
    """An immutable value: its fields are its class's own annotations, in order,
    with class attributes as trailing defaults. Built by position or keyword,
    then ``__post_init__`` runs; ``==``, ``hash`` and ``repr`` go field by field
    as for a frozen dataclass, and assignment raises ``AttributeError``."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs):
        names, defaults = self._fields, self._defaults
        if not kwargs and len(names) - len(defaults) <= len(args) < len(names):
            return args + tuple(defaults.values())[len(args) - len(names):]
        given = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]) or not given.keys() >= set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {list(names)}; got {args} and {kwargs}")
        return [given[name] for name in names]

    def __post_init__(self):
        pass

    # The instance dict holds exactly the fields, in order: nothing else can be set.
    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__
