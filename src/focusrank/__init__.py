"""Learning where a multi-location model change continues.

Given the version history of labeled directed graphs, focusrank diffs
consecutive versions, labels (anchor, candidate) node pairs by whether the
candidate's direct successor changed alongside the anchor, embeds node
labels, and trains a small self-attention ranker to order candidates. The
package also ships the comparison rankers (random, label similarity,
historical co-change), a Precision@k evaluation harness with radius-
restricted candidate sets, a deterministic synthetic-corpus generator, and
a pipeline CLI.

The package root holds only `__version__`: import each name from its
submodule (`focusrank.graphs`, `focusrank.dataset`, `focusrank.ranker`, ...).
"""

__version__ = "0.1.0"
