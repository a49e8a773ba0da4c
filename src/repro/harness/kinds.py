"""The learned-model catalog's names, importable without NumPy.

:mod:`repro.harness.models` trains and caches these models; the CLI parser
reads the names from here, so building it imports no trainer stack.
"""

__all__ = ["DEFAULT_TRAINING_STEPS", "MODEL_KINDS"]

#: Training budget (environment steps) when a caller names none.
DEFAULT_TRAINING_STEPS = 800

#: Every kind :func:`repro.harness.models.get_trained_model` can train.
MODEL_KINDS = ("canopy-shallow", "canopy-deep", "canopy-robust", "orca")
