"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed input: bad file, unknown vertex id, invalid parameter."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class CapExceededError(RuntimeError):
    """A size cap or search budget ran out: the exhaustive oracle refused
    an instance above its cap, or rejection sampling used up its tries."""


class InternalError(RuntimeError):
    """A bug: an internal invariant failed, such as a returned witness that
    does not validate or a derived instance above a configured cap."""


class RefusalError(RuntimeError):
    """A solver refused an instance that is not pattern-free.

    Carries the offending pattern name and a witness vertex set so the
    caller can report exactly which induced copy was found.
    """

    def __init__(self, pattern: str, witness):
        self.pattern = pattern
        self.witness = frozenset(witness)
        super().__init__(f"input is not {pattern}-free (witness: {sorted(map(str, witness))})")
