"""verbscope: corpus ablation, minimal-pair evaluation, and accuracy analysis.

The pipeline, end to end: ingest and split a corpus, build its frequency
table, perturb the training split (REPLACE.WORD / SHUFFLE.ORDER), train
the native Kneser-Ney scorer or attach an external one, generate semantic
and agreement minimal pairs from the untouched test split, score,
evaluate, and analyze (OLS with interactions, trajectories, charts).
"""

__version__ = "0.1.0"
