"""blcalc: exact computational algebra for totally ordered basic hoops and
BL-algebras, with amalgamation and deductive-interpolation classification."""

__version__ = "0.1.0"
