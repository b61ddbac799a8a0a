"""Exception types shared across the package."""


class OntoweaveError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OntoweaveError):
    """Malformed DSL input: bad token, bad identifier, bad block structure."""


class UnknownSymbol(OntoweaveError):
    """A symbol name is not declared in the governing signature or map."""


class ArityError(OntoweaveError):
    """A known symbol name was applied to the wrong number of arguments."""


class LanguageError(OntoweaveError):
    """A formula does not belong to the expected language."""


class CapExceeded(OntoweaveError):
    """A bounded computation outgrew its configured cap."""


class SignatureError(OntoweaveError):
    """Signatures do not line up for the requested operation."""


class CompositionError(OntoweaveError):
    """Morphism endpoints do not match for composition."""


class UnknownInternIndex(OntoweaveError):
    """An even-indexed variable refers to an unregistered interning slot."""


class OntoSigError(OntoweaveError):
    """Ontological signature is not included in the base signature."""


class ConfigError(OntoweaveError):
    """A check needs configuration (e.g. a designated negation) that is absent."""


class DuplicateName(OntoweaveError):
    """A name is already taken in the enclosing scope."""


class ValidationFailed(OntoweaveError):
    """An ontology failed validation on insertion into a graph."""


class CycleError(OntoweaveError):
    """Adding the link would make the development graph cyclic."""


class EvidenceRefuted(OntoweaveError):
    """The checker refuted the property a link asserts; the link is rejected."""


class UnknownNode(OntoweaveError):
    """A graph operation referenced a node name that does not exist."""


class MissingSplittingLink(OntoweaveError):
    """Decomposition requires a splitting link to every part."""


class FormatError(OntoweaveError):
    """A serialized artifact (manifest, session dump) is corrupt."""
