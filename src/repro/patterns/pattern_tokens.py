"""What the list- and tree-pattern parsers share.

Pattern text mixes the structural notation of §2 with the pattern
metacharacters of §3; both parsers read it as
:data:`repro.lexer.PATTERN`'s tokens.  Here live:

* the default reading of a bare symbol (:func:`default_resolver`);
* the grouping brackets: ``[[ ]]`` (also written ``⟦ ⟧`` in the paper)
  are two single brackets side by side, so ``[[[a]]*]`` reads as an
  outer ``[``, the group ``[[a]]``, ``*`` and ``]``;
* :data:`COMPILED`, the process-wide cache of patterns compiled from
  text.
"""

from __future__ import annotations

import threading
from types import FunctionType
from typing import Any, Callable

from ..lexer import Cursor
from ..predicates.alphabet import AlphabetPredicate, SymbolEquals

SymbolResolver = Callable[[str], AlphabetPredicate]


def default_resolver(symbol: str) -> AlphabetPredicate:
    return SymbolEquals(symbol)


def _pair(cursor: Cursor, kind: str) -> bool:
    """Are the next two tokens ``kind``, written side by side?"""
    first = cursor.peek()
    if first.kind != kind:
        return False
    second = cursor.peek(1)
    return second.kind == kind and second.position == first.position + 1


def at_group_open(cursor: Cursor) -> bool:
    """Is the cursor at a ``[[`` or ``⟦``?"""
    return cursor.peek().kind == "dlbracket" or _pair(cursor, "lbracket")


def match_group_open(cursor: Cursor) -> bool:
    """Take a ``[[`` or ``⟦``, if the cursor is at one."""
    if cursor.match("dlbracket"):
        return True
    if _pair(cursor, "lbracket"):
        cursor.index += 2
        return True
    return False


def expect_group_close(cursor: Cursor) -> None:
    """Take the ``]]`` or ``⟧`` that closes a group."""
    if cursor.match("drbracket"):
        return
    if _pair(cursor, "rbracket"):
        cursor.index += 2
        return
    raise cursor.error("expected ']]' to close a group", cursor.peek().position)


#: How many compiled patterns :data:`COMPILED` keeps.
COMPILE_CACHE_LIMIT = 4096


class CompileCache:
    """Bounded LRU of compiled patterns, keyed by text and resolver.

    What :func:`~repro.patterns.tree_parser.tree_pattern` and
    :func:`~repro.patterns.list_parser.list_pattern` consult when handed
    a string, so an algebra call that spells its pattern as text inside
    a per-member function (``split_pieces("Brazil(!?* USA !?*)", tree)``
    once per tree of an extent) parses it once per process, not once per
    call.  A hit moves the entry to the back of the dict; a miss at
    capacity (:data:`COMPILE_CACHE_LIMIT`) drops the front.

    A pattern is a function of its text *and* of what the resolver makes
    of each bare symbol, so only a visibly stateless resolver is served:
    ``None`` (the default) or a plain function with no closure cells.  A
    closure, a bound method, a ``partial`` or any other callable object
    may answer differently next time and always parses afresh.  Compiled
    patterns are immutable, so every caller may share one.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, Any] = {}
        self._lock = threading.Lock()

    def get(self, parse: Callable[..., Any], text: str, resolver: Any) -> Any:
        """``parse(text, resolver)``, from the cache when it may be."""
        if resolver is not None and (
            type(resolver) is not FunctionType or resolver.__closure__ is not None
        ):
            return parse(text, resolver)
        key = (parse, text, resolver)
        with self._lock:
            pattern = self._entries.pop(key, None)
            if pattern is not None:
                self._entries[key] = pattern
                return pattern
        pattern = parse(text, resolver)
        with self._lock:
            self._entries[key] = pattern
            while len(self._entries) > COMPILE_CACHE_LIMIT:
                del self._entries[next(iter(self._entries))]
        return pattern

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide compile cache (the ``re`` module keeps one likewise).
COMPILED = CompileCache()
