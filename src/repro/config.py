"""Configuration knobs: one validation point for the ``AQUA_*`` environment.

The knobs that steer execution were historically each parsed at their
point of use — a typo either crashed deep in the stack or silently fell
back to a default.  This module is the single place a knob value is
read and validated; a bad value raises a one-line
:class:`~repro.errors.QueryError` naming the knob and the accepted
values, whether it arrived via the environment or an explicit argument.

Precedence (documented in the README table):

1. an explicit per-call argument (``budget=``, ...);
2. the :class:`~repro.query.session.Session`'s own keyword;
3. the ``AQUA_*`` environment variable;
4. the built-in default.
"""

from __future__ import annotations

from .errors import QueryError

#: The values the ``parallel=`` keyword accepts (see
#: :func:`validated_parallel`).
PARALLEL_MODES = ("on", "off")

#: Environment knobs configuring deterministic fault injection (parsed
#: and validated by :mod:`repro.faults`, reported here so every knob
#: failure reads the same).
FAULTS_ENV = "AQUA_FAULTS"
FAULT_SEED_ENV = "AQUA_FAULT_SEED"


def invalid_knob(knob: str, value: object, accepted: str) -> QueryError:
    """The one-line diagnostic every ``AQUA_*`` knob failure uses.

    Public so other modules that own a knob's grammar (e.g.
    :mod:`repro.faults` for ``AQUA_FAULTS``) raise the same shape of
    error the core knobs do: the knob name, the offending value, and
    what would have been accepted.
    """
    return QueryError(f"{knob}: invalid value {value!r} (accepted: {accepted})")


def validated_parallel(mode: str | None) -> None:
    """Check a ``parallel=`` keyword: ``on`` | ``off`` | ``None``.

    The keyword is kept only for call compatibility: set ``select`` /
    ``apply`` run one sequential pipeline, so both values run the same
    plan and nothing reads the value after this check.  Concurrency
    across queries is :class:`~repro.api.SessionPool`'s job.
    """
    if mode is not None and mode not in PARALLEL_MODES:
        raise invalid_knob("parallel", mode, " | ".join(PARALLEL_MODES))
