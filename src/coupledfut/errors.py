"""Error taxonomy and the value-record base shared by all modules.

Each error class carries the process exit code used by the command-line
driver, so library failures map onto stable, machine-readable categories:

  2  parse errors          (malformed scenario text)
  3  validation errors     (well-formed input violating a structural invariant
                           or the consistency of the residues)
  4  computation errors    (poles, degeneracies, unbounded geometry)
  5  cross-validation mismatches
"""

from __future__ import annotations

from operator import attrgetter


class EngineError(Exception):
    """Base class for all engine errors."""

    exit_code = 1


class UsageError(EngineError):
    """Caller combined values that do not belong together (e.g. mixed rings)."""

    exit_code = 3


class ParseError(EngineError):
    """Scenario text could not be parsed; message includes a location."""

    exit_code = 2


class ValidationError(EngineError):
    """Structural invariant violated by otherwise well-formed input."""

    exit_code = 3


class ComputationError(EngineError):
    """Exact computation cannot proceed (pole, degeneracy, unboundedness)."""

    exit_code = 4


class PoleError(ComputationError):
    """Evaluation at a root of a denominator."""


class DegenerateDatumError(ComputationError):
    """An equivariant Euler class with zero scalar part; the fixed-point
    datum violates the nondegeneracy hypothesis of the residue formula."""


class GeometryError(ComputationError):
    """Unbounded, empty, or lower-dimensional polytope realization."""


class CrossValidationError(EngineError):
    """Localized and polytope-side values disagree at some sample."""

    exit_code = 5


class Record:
    """Immutable value record: fields set positionally or by keyword, then frozen.

    A subclass lists its fields as annotations in its class body.  They are
    read once, when the class is created, and every method here is shared, so
    defining a record compiles no code.  Equality needs the same class and
    equal field values, the hash is taken over the field values, and the repr
    reads Name(field=value, ...); a field named in the class keyword `hidden`
    is left out of all three.  There are no __slots__, so cached_property works;
    fields are set by object.__setattr__, as writing __dict__ slows reading them.
    """

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._compared = tuple(f for f in cls._fields if f not in hidden)
        cls._key = attrgetter(*cls._compared)  # a tuple for two or more

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:  # keywords after the positional arguments, in field order
            args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError("%s takes the arguments %s"
                            % (type(self).__name__, ", ".join(fields)))
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._compared))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__
