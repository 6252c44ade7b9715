"""One lexer for every text the system reads.

Each language is a *token table* (:class:`Lexicon`): one verbose regular
expression of alternatives, read by :func:`lex` in a single ``finditer``
pass.  The languages differ only in their tables; the rules that read a
table are the same for all of them:

* an alternative with no named group (whitespace, commas) is skipped;
* a token's kind is the name of the last group its match closed, its
  text that group's text, its position where the match starts — so
  ``@(?P<alpha>\\w*)`` yields a concatenation point's label without the
  ``@`` and ``"(?P<sym>...)"`` a quoted symbol without its quotes;
* the last alternative, ``error``, takes any character no token starts
  with, so the tokens tile the text; every kind the table has a message
  for is an error, raised in the language's own error type;
* ``run`` is the bare symbol (letters, digits, ``_``), read as one
  ``sym`` — or, in compact style (:func:`use_word_mode`), an
  all-lowercase run as one ``sym`` per letter.

A parser reads the tokens through a :class:`Cursor`.  The five languages
are the §2 list and tree notation (:data:`NOTATION`), list and tree
patterns (:data:`PATTERN` — §3 adds its metacharacters to §2's notation,
and the two pattern languages share their lexical syntax),
alphabet-predicates (:data:`PREDICATE`) and AQL (:data:`AQL`).
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple, TypeVar

from .errors import AquaError, NotationError, PredicateError, QueryError

T = TypeVar("T")

#: The kind of the token :func:`lex` ends every token list with.
END = "end"


class Lexeme(NamedTuple):
    kind: str
    text: str
    position: int


class Lexicon:
    """One language's token table and the errors it reports.

    ``raises(message, text, position)`` builds the language's error.
    ``messages`` maps each error kind of the table to its message, and
    also ``end`` (the text ran out), ``expected`` (:meth:`Cursor.expect`
    met another kind) and ``deep`` (the text nests past Python's stack).
    A message is formatted with ``found`` (the token's text), ``kind``
    (the expected kind), ``text`` and ``rest`` (the text from the token
    on).
    """

    __slots__ = ("finditer", "raises", "messages")

    def __init__(
        self, rules: str, raises: Callable[[str, str, int], AquaError], **messages: str
    ) -> None:
        self.finditer = re.compile(rules, re.VERBOSE).finditer
        self.raises = raises
        self.messages = messages

    def error(
        self, key: str, text: str, position: int, found: str = "", kind: str = ""
    ) -> AquaError:
        message = self.messages[key].format(
            found=found, kind=kind, text=text, rest=text[position:]
        )
        return self.raises(message, text, position)


def lex(lexicon: Lexicon, text: str) -> list[Lexeme]:
    """``text`` as ``lexicon``'s tokens, ending in an :data:`END` token."""
    tokens: list[Lexeme] = []
    append = tokens.append
    # ``Lexeme(...)`` runs a Python-level ``__new__``; one per token costs
    # more than the scan, so tokens are built by ``tuple.__new__``.
    new = tuple.__new__
    messages = lexicon.messages
    compact = None
    for match in lexicon.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        value = match.group(kind)
        if kind == "run":
            kind = "sym"
            if len(value) > 1 and value.isalpha() and value.islower():
                if compact is None:
                    compact = not use_word_mode(text)
                if compact:
                    start = match.start()
                    tokens.extend(
                        new(Lexeme, ("sym", char, start + offset))
                        for offset, char in enumerate(value)
                    )
                    continue
        elif kind in messages:
            raise lexicon.error(kind, text, match.start(), found=value)
        append(new(Lexeme, (kind, value, match.start())))
    append(new(Lexeme, (END, "", len(text))))
    return tokens


class Cursor:
    """A parser's place in a text's tokens: ``peek`` / ``next`` /
    ``expect`` / ``match`` over the token list and an index.  Errors
    are the lexicon's."""

    __slots__ = ("lexicon", "text", "tokens", "index")

    def __init__(self, lexicon: Lexicon, text: str) -> None:
        self.lexicon = lexicon
        self.text = text
        self.tokens = lex(lexicon, text)
        self.index = 0

    def peek(self, offset: int = 0) -> Lexeme:
        """The token ``offset`` places on; look past :data:`END` only
        from a token that is not it."""
        return self.tokens[self.index + offset]

    def next(self) -> Lexeme:
        token = self.tokens[self.index]
        if token.kind == END:
            raise self.lexicon.error("end", self.text, token.position)
        self.index += 1
        return token

    def expect(self, kind: str) -> Lexeme:
        token = self.next()
        if token.kind != kind:
            raise self.lexicon.error(
                "expected", self.text, token.position, found=token.text, kind=kind
            )
        return token

    def match(self, kind: str) -> Lexeme | None:
        """Take the next token if it is a ``kind``."""
        token = self.tokens[self.index]
        if token.kind != kind:
            return None
        self.index += 1
        return token

    @property
    def at_end(self) -> bool:
        return self.tokens[self.index].kind == END

    def error(self, message: str, position: int) -> AquaError:
        return self.lexicon.raises(message, self.text, position)

    def parse(self, rule: Callable[..., T], *args: Any) -> T:
        """``rule(self, *args)``; a text nesting past Python's stack raises
        the language's ``deep`` error, not a bare ``RecursionError``."""
        try:
            return rule(self, *args)
        except RecursionError:
            raise self.lexicon.error("deep", self.text, self.peek().position) from None


# -- the bare symbol ---------------------------------------------------------
#
# §2 writes symbols two ways.  In *compact* style (structure and no
# whitespace or comma anywhere: ``b(d(fg)e)``, ``[abc]``) an all-lowercase
# run of letters is one symbol per letter; a run holding an uppercase
# letter, a digit or ``_`` stays whole (``Mat``).  In *word* style every
# run is one symbol (``Mat(Ann Tom)``, a bare ``figure``).  ``@label`` is a
# concatenation point, and a quoted symbol (``'two words'``, ``"x(y)"``)
# is never split and may hold any character but its quote.

_SEPARATORS = r"[\s,]+"
_SYMBOL = r"""
  | (?P<quote>["'])(?P<sym>[\s\S]*?)(?P=quote)
  | (?P<open_quote>["'])
  | @(?P<alpha>\w*)
  | (?P<run>\w+)
"""
_SPACE_OR_COMMA = re.compile(r"[\s,]")
_STRUCTURE = re.compile(r"[()\[\]{}@]")
_POINT_OR_QUOTE = re.compile(r"""[@'"]""")
_WORD = re.compile(r"\w+")


def use_word_mode(text: str) -> bool:
    """Decide between the paper's compact and word tokenization styles.

    Word mode (runs stay whole) applies when the text contains any
    whitespace or comma, or when it contains no structural characters at
    all — a bare ``figure`` is one symbol.  Otherwise (structure present,
    no whitespace — the figures' style, e.g. ``b(d(fg)e)`` or ``[abc]``)
    compact mode splits all-lowercase runs into single-character
    symbols.  Multi-character lowercase symbols used *with* structure
    must therefore be space-separated or quoted: ``section( figure )``.
    """
    return _SPACE_OR_COMMA.search(text) is not None or _STRUCTURE.search(text) is None


def is_word(text: str) -> bool:
    """Is ``text`` one run of letters, digits and ``_`` — a symbol that
    reads back bare?  Any other symbol is written quoted."""
    return _WORD.fullmatch(text) is not None


def reads_bare(text: str) -> bool:
    """Does ``text`` read back bare as one symbol in either style: one
    run that compact style keeps whole (not two or more lowercase
    letters)?  A pattern prints any other symbol quoted."""
    return is_word(text) and not (len(text) > 1 and text.isalpha() and text.islower())


def compacts(text: str) -> bool:
    """Does ``text`` read back as written in compact style: no ``@`` or
    quote, and every run a single lowercase letter?"""
    return _POINT_OR_QUOTE.search(text) is None and all(
        len(run) == 1 and run.isalpha() and run.islower() for run in _WORD.findall(text)
    )


# -- the five languages ------------------------------------------------------


def _unpositioned(error: type[AquaError]) -> Callable[[str, str, int], AquaError]:
    return lambda message, text, position: error(message)


#: §2's list and tree notation: ``b(d(fg)e)``, ``[A B C]``, ``a(@1 @2)``.
NOTATION = Lexicon(
    _SEPARATORS
    + r"""
  | (?P<lparen>\() | (?P<rparen>\)) | (?P<lbracket>\[) | (?P<rbracket>\])"""
    + _SYMBOL
    + r"| (?P<error>[\s\S])",
    NotationError,
    end="unexpected end of input",
    deep="tree nests too deeply",
    open_quote="unterminated quote",
    error="unexpected character {found!r}",
)

# A ``{...}`` predicate inside pattern text.  A quoted string is opaque
# (a brace inside it neither opens nor closes), a quote with no partner
# later in the text is a plain character, and braces nest four deep.
_BRACED = r"""(?:[^{}"']|"[^"]*"|'[^']*'|"(?![^"]*")|'(?![^']*')"""
_PREDICATE_TEXT = _BRACED + ")*"
for _ in range(4):
    _PREDICATE_TEXT = _BRACED + r"|\{" + _PREDICATE_TEXT + r"\})*"

#: List and tree patterns (§3): the notation plus ``[[ ]]`` / ``⟦ ⟧``
#: grouping, ``*`` / ``+`` closures (``*@lbl`` on trees), ``|``, ``?``,
#: ``!`` prune, ``^`` / ``⊤`` and ``$`` / ``⊥`` anchors, ``.`` / ``∘``
#: concatenation and ``{...}`` predicates.  ``[[`` is two ``lbracket``
#: tokens side by side; the parsers read it by position.
PATTERN = Lexicon(
    _SEPARATORS
    + r"""
  | (?P<lbracket>\[) | (?P<rbracket>\]) | (?P<dlbracket>⟦) | (?P<drbracket>⟧)
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<star>\*) | (?P<plus>\+) | (?P<pipe>\|) | (?P<any>\?) | (?P<bang>!)
  | (?P<top>[\^⊤]) | (?P<bottom>[$⊥]) | (?P<compose>[.∘])
  | \{(?P<pred>"""
    + _PREDICATE_TEXT
    + r""")\}
  | (?P<open_brace>\{)"""
    + _SYMBOL
    + r"| (?P<error>[\s\S])",
    NotationError,
    end="unexpected end of pattern",
    expected="expected {kind} but found {found!r}",
    deep="pattern nests too deeply",
    open_quote="unterminated quote",
    open_brace="unterminated '{{'",
    error="unexpected character {found!r} in pattern",
)

#: Alphabet-predicates (§3.1): ``lambda(p) p.age > 25 and p.citizen = "USA"``.
#: A keyword is a whole identifier, in any case.
PREDICATE = Lexicon(
    r"""\s+
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<lparen>\() | (?P<rparen>\)) | (?P<dot>\.)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<param>\$[A-Za-z_][A-Za-z0-9_]*)
"""
    + "".join(
        f"| (?P<{word}>(?ai:{word})(?![A-Za-z0-9_]))\n"
        for word in ("and", "or", "not", "lambda", "true", "false")
    )
    + r"""
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<error>[\s\S])""",
    _unpositioned(PredicateError),
    end="unexpected end of predicate {text!r}",
    expected="expected {kind} but found {found!r} in {text!r}",
    deep="predicate nests too deeply",
    error="cannot tokenize predicate at {rest!r}",
)

#: AQL: ``root family | sub_select "Brazil(!?* USA !?*)" by citizen``.  A
#: ``{...}`` predicate ends at the first ``}`` outside quotes.
AQL = Lexicon(
    r"""\s+
  | (?P<pipe>\|)
  | (?P<pred>\{(?:[^}"']|"[^"]*"|'[^']*')*\})
  | (?P<pattern>"[^"]*"|'[^']*')
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<error>[\s\S])""",
    _unpositioned(QueryError),
    end="unexpected end of AQL query {text!r}",
    error="cannot tokenize AQL at {rest!r}",
)
