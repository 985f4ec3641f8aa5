"""Bundled demonstration corpus and miniature lexicons."""
from pathlib import Path

_ROOT = Path(__file__).resolve().parent

DEMO_CORPUS = _ROOT / "demo.adc"
LEXICON_DIR = _ROOT / "lexicons"
