"""Desk-scale controllable language modeling toolkit.

Submodules:

- ``corpus``: categorized documents and the control-code taxonomy
- ``tokenizer``: BPE training, encode/decode, control-code vocabulary
- ``model``: decoder-only transformer (forward, analytic backward)
- ``trainer``: sequence packing, AdamW training loop
- ``sampler``: nucleus/temperature/repetition-penalty decoding
- ``evaluation``: perplexity, loop detection, self-BLEU, grid search
- ``ngram``: k-gram provenance index, overlap statistics, search
- ``agreement``: Krippendorff alpha, pseudo-alpha, Spearman, ROUGE-L
- ``tasks``: prompt-based benchmark fine-tuning and scoring
- ``fileio``: atomic file writes
- ``cli``: the ``ctrlkit`` command
"""

from . import (
    agreement,
    corpus,
    evaluation,
    fileio,
    model,
    ngram,
    sampler,
    tasks,
    tokenizer,
    trainer,
)

__all__ = [
    "agreement",
    "corpus",
    "evaluation",
    "fileio",
    "model",
    "ngram",
    "sampler",
    "tasks",
    "tokenizer",
    "trainer",
]

__version__ = "0.1.0"
