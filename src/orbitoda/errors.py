"""Shared exception types."""


class OrbitodaError(Exception):
    pass


class NonUnit(OrbitodaError):
    """Inverse/log of a series whose leading coefficient is not invertible."""


class NotInvertible(OrbitodaError):
    """Reversion/inversion target does not have the required leading shape."""


class WindowUnderflow(OrbitodaError):
    """A requested exponent lies outside the provably-exact window."""


class NotCoprime(OrbitodaError):
    pass


class BadIndex(OrbitodaError):
    pass


class SingularFiber(OrbitodaError):
    """df vanishes identically at the requested parameter slice."""


class NonConvergent(OrbitodaError):
    """An expansion that should terminate does not: a truncated power sum
    (the exponential of a derivation, an operator inverse, a D-chain of a
    bi-infinite sum) whose powers still do not vanish after its limit."""


class DivisionByZeroTau(OrbitodaError):
    pass
