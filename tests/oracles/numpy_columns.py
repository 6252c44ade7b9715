"""A vectorized predicate-column oracle: numpy comparisons over a list.

:class:`repro.storage.columnar.ColumnarList` builds each column by
calling the real predicate once per element.  This module answers the
same question another way — the whole list compared at once by numpy —
wherever that comparison provably agrees with
:class:`~repro.predicates.alphabet.Comparison`'s per-object semantics:
homogeneous native dtypes, every attribute present, a plain constant.
Anywhere else it declines (``None``) and the check is skipped.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.predicates.alphabet import (
    AlphabetPredicate,
    And,
    Comparison,
    Not,
    Or,
    SymbolEquals,
    TruePredicate,
    _MISSING,
    _OPERATORS,
    _read_attribute,
)


def vectorized_leaf(values: Sequence[Any], predicate: AlphabetPredicate):
    """A numpy comparison of one leaf over ``values``, or ``None`` when
    per-object semantics could diverge (mixed dtypes, missing attributes,
    exotic constants)."""
    size = len(values)
    if isinstance(predicate, SymbolEquals):
        raw, constant, op = list(values), predicate.symbol, "="
    elif isinstance(predicate, Comparison):
        raw, constant, op = (
            [_read_attribute(value, predicate.attribute) for value in values],
            predicate.constant,
            predicate.op,
        )
        if any(cell is _MISSING for cell in raw):
            # A missing attribute is False under *every* operator
            # (including ``!=``) — no vectorized comparison says that.
            return None
    else:
        return None
    if isinstance(constant, bool):
        kinds = "b"
    elif isinstance(constant, (int, float)):
        kinds = "if"
    elif isinstance(constant, str):
        kinds = "U"
    else:
        return None
    try:
        array = np.asarray(raw)
    except Exception:
        return None
    if array.ndim != 1 or array.dtype.kind not in kinds:
        return None
    try:
        mask = _OPERATORS[op](array, constant)
    except Exception:
        return None
    if not isinstance(mask, np.ndarray) or mask.shape != (size,):
        return None
    return mask.astype(bool)


def numpy_column(values: Sequence[Any], predicate: AlphabetPredicate) -> list[bool] | None:
    """``predicate``'s outcome per element of ``values``, combined from
    vectorized leaves, or ``None`` when any leaf cannot be vectorized."""
    if isinstance(predicate, (And, Or)):
        parts = [numpy_column(values, term) for term in predicate.terms]
        if any(part is None for part in parts):
            return None
        combine = np.logical_and if isinstance(predicate, And) else np.logical_or
        out = np.asarray(parts[0], dtype=bool)
        for part in parts[1:]:
            out = combine(out, part)
        return [bool(bit) for bit in out]
    if isinstance(predicate, Not):
        part = numpy_column(values, predicate.term)
        return None if part is None else [not bit for bit in part]
    if isinstance(predicate, TruePredicate):
        return [True] * len(values)
    mask = vectorized_leaf(values, predicate)
    return None if mask is None else [bool(bit) for bit in mask]
