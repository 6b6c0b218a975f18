"""Paths to the data files shipped with the package."""

from __future__ import annotations

from pathlib import Path

__all__ = ["DATA_DIR", "default_lexicon_paths"]

DATA_DIR = Path(__file__).resolve().parent / "data"


def default_lexicon_paths() -> dict[str, Path]:
    """Shipped lexicon files keyed by kind: animals, products, countries."""
    return {
        "animals": DATA_DIR / "animals.csv",
        "products": DATA_DIR / "products.csv",
        "countries": DATA_DIR / "countries.csv",
    }

