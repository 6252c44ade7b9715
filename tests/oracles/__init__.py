"""Independent list-pattern oracles the tests check the engine against.

The engine every query runs is :mod:`repro.patterns.list_match`.  These
modules answer the same language questions another way — Thompson ε-NFA
simulation (:mod:`.nfa`), Brzozowski derivatives (:mod:`.derivatives`),
translation to Python ``re`` (:mod:`.regex_bridge`) — and decide pattern
equivalence and containment over outcome vectors (:mod:`.equivalence`).
No module under ``src/`` imports them.
"""
