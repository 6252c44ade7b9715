"""The logical plan: the algebra expression (:mod:`~repro.plan.expr`) the
front ends build, the §4 optimizer rewrites and the lowering pass turns
into operators, and the per-operator run metrics
(:mod:`~repro.plan.metrics`) EXPLAIN ANALYZE reads.  It sits below all
of its readers."""
