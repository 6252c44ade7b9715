"""Compare two source trees' parsers on the same seeded random texts.

The check a lexer or parser change owes: draw random strings from each
text language's own characters and tokens, parse every string with the
old and the new ``src/``, and list each string on which the two differ —
in result (its ``describe()`` / ``repr``) or in error type and message.

    git archive <parent> | tar -x -C /tmp/parent
    python tools/text_parity.py /tmp/parent/src src --n 200000

Prints every differing string with both readings, then one count line
per language.  Each side runs in its own interpreter; ``--dump SRC LANG``
runs one side alone.
"""

from __future__ import annotations

import argparse
import random
import re
import subprocess
import sys

LANGUAGES = {
    "notation": list("()[](),, @'\"abcAB1_é²*-.{}\t\\%:#") + [
        "'x y'", '"q(r)"', "@1", "@lbl", "ab", "Mat", "%label:", "[[", "]]", "\\'",
        "ſ", "K", "١", "ǅ", "ⅰ",
    ],
    "pattern": list("[]()*+|?!^$.@{}'\" ,abcAB1_é\\%:#=<>⟦⟧⊤⊥∘-") + [
        "[[", "]]", "*@1", "+@", "@1", "{age > 25}", '{name = "}"}', "{a = 'x'}",
        '"x y"', "'}'", "ab", "Mat", "%label:", '\\"', "{{", "}}",
    ],
    "predicate": list("().=<>!$ ,\"'{}#\\-%:_aA19") + [
        " and ", " or ", "not ", "lambda(p) ", "p.", "true", "false", "age", "name",
        '"x"', "'y z'", "25", "-3", "1.5", "$k", "<=", ">=", "!=", "%label:", "AND",
        " Or ", "NOT", "True", "FALSE", "١", "ſ", "andy", "é", "p",
    ],
    "aql": list("|{}\"' (),.#\\-%:") + [
        "root ", "extent ", "family ", "Person ", " | ", "select ", "sselect ",
        "lselect ", "sub_select ", "lsub_select ", "all_anc ", "all_desc ", "project ",
        "name", " by ", "citizen", "{age > 30}", '{name = "}"}', '"a(b c)"', "'[A??F]'",
        '"[[a]]*"', "{x = $k}", "path ", '"//p"', "%label:", "[[", "]]",
        "{A = 1 AND b = 'x'}", "{NOT ſ = 1}",
    ],
}


def _texts(language: str, seed: int, n: int):
    rng = random.Random(f"{language}:{seed}")
    alphabet = LANGUAGES[language]
    for _ in range(n):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))


def _readers(language: str):
    """The parse functions of ``language``, each with how to show its result."""
    from repro.core.concat import ConcatPoint
    from repro.core.notation import parse_list, parse_tree
    from repro.patterns import parse_list_pattern, parse_tree_pattern
    from repro.predicates.parser import parse_predicate
    from repro.query.aql import parse_aql, parse_aql_shape

    def tree(node):
        value = node.value
        head = f"@{value.label}" if isinstance(value, ConcatPoint) else repr(value)
        return head, tuple(tree(child) for child in node.children)

    def entries(lst):
        return [str(e) if isinstance(e, ConcatPoint) else repr(e.contents) for e in lst.entries]

    def pattern(p):
        return f"{p.describe()} {p!r} {p.body!r}"

    return {
        "notation": [
            (parse_tree, lambda t: repr(tree(t.root)) if t.root is not None else "empty"),
            (parse_list, lambda lst: repr(entries(lst))),
        ],
        "pattern": [(parse_tree_pattern, pattern), (parse_list_pattern, pattern)],
        "predicate": [(parse_predicate, lambda p: f"{p!r} {p.describe()}")],
        "aql": [
            (parse_aql, lambda e: re.sub(r"0x[0-9a-f]+", "0x", repr(e))),
            (parse_aql_shape, lambda e: re.sub(r"0x[0-9a-f]+", "0x", repr(e))),
        ],
    }[language]


def dump(src: str, language: str, seed: int, n: int) -> None:
    sys.path.insert(0, src)
    readers = _readers(language)
    for text in _texts(language, seed, n):
        readings = []
        for parse, show in readers:
            try:
                readings.append(show(parse(text)))
            except Exception as error:  # the reading *is* the error
                readings.append(f"{type(error).__name__}: {error}")
        print(" || ".join(readings).replace("\n", "\\n"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the old src/ directory (or, with --dump, the one to run)")
    parser.add_argument("new", nargs="?", help="the new src/ directory")
    parser.add_argument("--lang", action="append", choices=sorted(LANGUAGES))
    parser.add_argument("--n", type=int, default=200_000, help="strings per language")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump", metavar="LANG", help="print one side's readings only")
    args = parser.parse_args()
    if args.dump:
        dump(args.old, args.dump, args.seed, args.n)
        return
    counts = []
    for language in args.lang or sorted(LANGUAGES):
        sides = [
            subprocess.run(
                [sys.executable, __file__, src, "--dump", language,
                 "--seed", str(args.seed), "--n", str(args.n)],
                check=True, capture_output=True, text=True,
            ).stdout.splitlines()
            for src in (args.old, args.new)
        ]
        differing = 0
        for text, old, new in zip(_texts(language, args.seed, args.n), *sides):
            if old != new:
                differing += 1
                print(f"{language} {text!r}\n  old: {old}\n  new: {new}")
        counts.append(f"{language}: {differing} of {args.n} strings differ")
    print("\n".join(counts))


if __name__ == "__main__":
    main()
