from . import single_person, two_person
from .single_person import SinglePersonFeatures
from .two_person import TwoPersonFeatures

# Feature kind -> scheme module, in the experiment config's spelling.
FEATURE_MODULES = {"single": single_person, "two_person": two_person}

__all__ = ["single_person", "two_person", "SinglePersonFeatures", "TwoPersonFeatures",
           "FEATURE_MODULES"]
