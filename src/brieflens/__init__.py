"""brieflens: structured wildlife trafficking events from enforcement briefs.

The pipeline reads monthly plain-text briefs, finds animal, product and
country mentions with token-aligned gazetteer matching, parses counts and
weights, assembles per-sentence events and their arrest counts with
proximity heuristics, stores them in an embedded relational database and renders
JSON plus static HTML summaries.  Extraction quality is measured against
gold annotations with a four-outcome taxonomy.
"""

__version__ = "0.1.0"
