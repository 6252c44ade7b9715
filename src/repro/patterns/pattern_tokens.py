"""Shared tokenizer for list- and tree-pattern notation.

Pattern text mixes the structural notation of §2 with the pattern
metacharacters of §3:

========  =====================================================
token     meaning
========  =====================================================
``[ ]``   list pattern delimiters
``[[ ]]`` grouping (also written ``⟦ ⟧`` in the paper)
``( )``   tree children list
``*``     Kleene closure (``*@label`` on trees)
``+``     one-or-more (``+@label`` on trees)
``|``     disjunction
``?``     the always-true alphabet-predicate
``!``     prune prefix (§3.4)
``^``     start anchor / ``⊤`` root anchor
``$``     end anchor / ``⊥`` leaf anchor
``@lbl``  concatenation point ``α``/``αlbl``
``{...}`` an embedded alphabet-predicate in the §3.1 text syntax
symbol    resolved to an alphabet-predicate by the caller
========  =====================================================

Symbols follow the compact/word-mode convention of
:mod:`repro.core.notation`: with no whitespace anywhere, all-lowercase
alphabetic runs split into single-character symbols (``[abc]``); any
whitespace or comma switches to whole-word symbols (``[A B C]``).

Both parsers also share :data:`COMPILED`, the process-wide cache of
patterns compiled from text.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import FunctionType
from typing import Any, Callable

from ..core.notation import use_word_mode
from ..errors import NotationError

_SINGLE_CHARS = {
    "*": "star",
    "+": "plus",
    "|": "pipe",
    "?": "any",
    "!": "bang",
    "^": "top",
    "$": "bottom",
    "(": "lparen",
    ")": "rparen",
    ".": "compose",
    "∘": "compose",
    "⊤": "top",
    "⊥": "bottom",
    "⟦": "dlbracket",
    "⟧": "drbracket",
}


@dataclass(frozen=True)
class PatternToken:
    kind: str
    text: str
    position: int


def tokenize_pattern(text: str) -> list[PatternToken]:
    word_mode = use_word_mode(text)
    tokens: list[PatternToken] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace() or c == ",":
            i += 1
            continue
        if c == "[":
            if i + 1 < n and text[i + 1] == "[":
                tokens.append(PatternToken("dlbracket", "[[", i))
                i += 2
            else:
                tokens.append(PatternToken("lbracket", "[", i))
                i += 1
            continue
        if c == "]":
            if i + 1 < n and text[i + 1] == "]":
                tokens.append(PatternToken("drbracket", "]]", i))
                i += 2
            else:
                tokens.append(PatternToken("rbracket", "]", i))
                i += 1
            continue
        if c in _SINGLE_CHARS:
            tokens.append(PatternToken(_SINGLE_CHARS[c], c, i))
            i += 1
            continue
        if c == "@":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(PatternToken("alpha", text[i + 1 : j], i))
            i = j
            continue
        if c == "{":
            depth = 1
            j = i + 1
            while j < n and depth:
                if text[j] == "{":
                    depth += 1
                elif text[j] == "}":
                    depth -= 1
                j += 1
            if depth:
                raise NotationError("unterminated '{'", text, i)
            tokens.append(PatternToken("pred", text[i + 1 : j - 1], i))
            i = j
            continue
        if c in "'\"":
            end = text.find(c, i + 1)
            if end == -1:
                raise NotationError("unterminated quote", text, i)
            tokens.append(PatternToken("sym", text[i + 1 : end], i))
            i = end + 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            run = text[i:j]
            if not word_mode and len(run) > 1 and run.isalpha() and run.islower():
                for offset, char in enumerate(run):
                    tokens.append(PatternToken("sym", char, i + offset))
            else:
                tokens.append(PatternToken("sym", run, i))
            i = j
            continue
        raise NotationError(f"unexpected character {c!r} in pattern", text, i)
    return tokens


class PatternTokenStream:
    """Cursor over a token list with the usual peek/next/expect protocol."""

    def __init__(self, tokens: list[PatternToken], text: str) -> None:
        self._tokens = tokens
        self._text = text
        self._index = 0

    def peek(self) -> PatternToken | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def peek_at(self, offset: int) -> PatternToken | None:
        index = self._index + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def next(self) -> PatternToken:
        token = self.peek()
        if token is None:
            raise NotationError("unexpected end of pattern", self._text, len(self._text))
        self._index += 1
        return token

    def expect(self, kind: str) -> PatternToken:
        token = self.next()
        if token.kind != kind:
            raise NotationError(
                f"expected {kind} but found {token.text!r}", self._text, token.position
            )
        return token

    def match(self, kind: str) -> PatternToken | None:
        token = self.peek()
        if token is not None and token.kind == kind:
            return self.next()
        return None

    # The pattern delimiter `[` and the grouping digraph `[[` collide when
    # a group starts a bracketed pattern (`[[[a]]*]` is outer-`[` + group
    # `[[a]]` + `*` + `]`).  The helpers below let parsers peel single
    # brackets off digraph tokens and reassemble digraphs from adjacent
    # singles, so both readings are available.

    def open_bracket_count(self) -> int:
        """Total ``[`` characters in the stream (digraphs count twice)."""
        total = 0
        for token in self._tokens:
            if token.kind == "lbracket":
                total += 1
            elif token.kind == "dlbracket":
                total += 2
        return total

    def match_single_open(self) -> bool:
        """Consume one ``[``, splitting a ``[[`` token if necessary."""
        token = self.peek()
        if token is None:
            return False
        if token.kind == "lbracket":
            self.next()
            return True
        if token.kind == "dlbracket":
            self._tokens[self._index] = PatternToken("lbracket", "[", token.position + 1)
            return True
        return False

    def expect_single_close(self, text: str = "") -> None:
        """Consume one ``]``, splitting a ``]]`` token if necessary."""
        token = self.peek()
        if token is not None and token.kind == "drbracket":
            self._tokens[self._index] = PatternToken("rbracket", "]", token.position + 1)
            return
        self.expect("rbracket")

    def at_group_open(self) -> bool:
        """Is the cursor at a ``[[`` (digraph or adjacent singles)?"""
        token = self.peek()
        if token is None:
            return False
        if token.kind == "dlbracket":
            return True
        after = self.peek_at(1)
        return (
            token.kind == "lbracket"
            and after is not None
            and after.kind == "lbracket"
            and after.position == token.position + 1
        )

    def match_group_open(self) -> bool:
        """Consume ``[[`` — a digraph token or two adjacent singles."""
        token = self.peek()
        if token is None:
            return False
        if token.kind == "dlbracket":
            self.next()
            return True
        after = self.peek_at(1)
        if (
            token.kind == "lbracket"
            and after is not None
            and after.kind == "lbracket"
            and after.position == token.position + 1
        ):
            self.next()
            self.next()
            return True
        return False

    def expect_group_close(self) -> None:
        """Consume ``]]`` — a digraph token or two adjacent singles."""
        token = self.peek()
        if token is not None and token.kind == "drbracket":
            self.next()
            return
        after = self.peek_at(1)
        if (
            token is not None
            and token.kind == "rbracket"
            and after is not None
            and after.kind == "rbracket"
            and after.position == token.position + 1
        ):
            self.next()
            self.next()
            return
        raise NotationError(
            "expected ']]' to close a group",
            self._text,
            token.position if token is not None else len(self._text),
        )

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._tokens)

    @property
    def text(self) -> str:
        return self._text


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
