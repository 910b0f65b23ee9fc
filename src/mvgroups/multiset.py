"""An empty module: an n-valued product is a sorted tuple (see ``mvalued``),
and ``flatten``, the n^2-multiset of the associativity axiom, is a test
oracle in ``tests/oracles.py``.  ``bench/tracer.py`` imports this module by
name, so it is kept until the tracer goes."""
