from . import single_person, two_person

# Feature kind -> scheme module, in the experiment config's spelling.
FEATURE_MODULES = {"single": single_person, "two_person": two_person}

__all__ = ["single_person", "two_person", "FEATURE_MODULES"]
