"""Exception hierarchy for the reproduction library.

Every exception raised deliberately by this library derives from
:class:`KernelError`, so callers can catch library failures without
catching genuine programming errors.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all errors raised by the library."""


class ProtocolError(KernelError):
    """A protocol automaton was used incorrectly or misbehaved.

    Raised, for example, when a transition emits a message outside the
    protocol's declared alphabet, or when a receiver write conflicts with
    an already-written item in strict-checking simulators.
    """


class ChannelError(KernelError):
    """A channel operation was invalid.

    Raised when attempting to deliver a message that the channel state
    does not currently make deliverable.
    """


class AlphabetError(KernelError):
    """A message or data item fell outside a declared finite alphabet."""


class SimulationError(KernelError):
    """The simulation driver was misconfigured or hit an internal limit."""


class VerificationError(KernelError):
    """A verification routine was asked an ill-posed question."""


class EncodingError(KernelError):
    """No valid encoding exists for the requested sequence family."""


class EncodingSearchExhausted(EncodingError):
    """An encoding search ran out of its budget before deciding.

    Not a proof that no encoding exists: a caller that reads
    :class:`EncodingError` as "not encodable" must treat this one as
    "unknown".
    """
