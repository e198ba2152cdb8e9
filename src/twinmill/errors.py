"""Exception hierarchy shared by all twinmill modules. Bad input or a broken
precondition is an `InvalidInputError`, a bad config is a `ConfigError`, and a
joint configuration pair the coupled model cannot evaluate is a `DomainError`.
A subclass exists only where an `except` clause of twinmill names it or where
it defines its own `__init__`, and no two classes are named by exactly the same
`except` clauses. A refusal's place is data on the error (`index`, `line`,
`path`, `arm`, `file`) as well as text in its message, added by
`raise exc.within(prefix, **place)`, which keeps the type."""


_PLACES = ("index", "line", "path", "arm", "file")


class TwinmillError(Exception):
    """Base class for all toolkit errors. Where a refusal is located, it
    says so as data: `index` is the offending row of a stacked input,
    `line` the 1-based line of a text file (G-code, CSV), `path` the
    schema path of a JSON element (`config.arm1.dh_rows[0][2]`), `arm`
    the arm (1 or 2) and `file` the input file; each is None if unknown."""

    def __init__(self, message, index=None, line=None, path=None, arm=None, file=None):
        super().__init__(message)
        self.index = index
        self.line = line
        self.path = path
        self.arm = arm
        self.file = file

    def within(self, prefix="", **place):
        """This error with `prefix` put in front of its message as given and
        the place fields of `place` set, its type, other fields and cause
        kept: a site that adds a place does `raise exc.within(...)`. A name
        in `place` other than the five place fields raises TypeError."""
        unknown = place.keys() - _PLACES
        if unknown:
            raise TypeError(f"within() takes only the places {', '.join(_PLACES)}, not {', '.join(sorted(unknown))}")
        Exception.__init__(self, f"{prefix}{self}")
        vars(self).update(place)
        return self


class InvalidInputError(TwinmillError):
    """An argument violates a documented precondition."""


class UnreachableTargetError(TwinmillError):
    """IK of one arm failed to converge; carries the best residual seen,
    the failing row as `index` and the rows before it solved as `solved`."""

    def __init__(self, message, pos_residual=None, rot_residual=None, index=None, solved=None):
        super().__init__(message, index)
        self.pos_residual = pos_residual
        self.rot_residual = rot_residual
        self.solved = solved


class DomainError(TwinmillError):
    """A joint configuration pair the coupled model cannot evaluate: a
    rank-deficient Jacobian or a compliance that is not positive definite
    (`gap` None), or flange poses further apart than the coupling geometry
    allows (`gap`, m)."""

    def __init__(self, message, gap=None, index=None):
        super().__init__(message, index)
        self.gap = gap


class ConfigError(TwinmillError):
    """System configuration file is invalid; carries the schema path."""
