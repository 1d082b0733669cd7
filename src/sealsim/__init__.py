"""Sealed-message protocol simulator and eavesdropping analysis toolkit.

``qubit`` holds the two-level state and channel arithmetic, ``protocol`` the
shot-level state machine and Monte Carlo harness, ``analysis`` the
closed-form information-gain and disturbance formulas, ``channel_file`` the
JSON channel format, ``textfile`` atomic whole-file writes, and ``cli`` the
command-line front end.

Importing the package loads none of them.  Each name in ``__all__`` and each
``sealsim.<submodule>`` is imported on first use (PEP 562), so a command
line that runs ``sweep`` never loads ``protocol``.
"""

import sys

# The submodule that defines each public name.
_EXPORTS = {
    "analysis": (
        "AnnouncementDistribution",
        "MIResult",
        "MismatchProbability",
        "StringCountClass",
        "bit_announcement_probs",
        "decode_success_probability",
        "expected_mutual_information",
        "mismatch_probability",
        "mutual_information_k",
        "seal_class_masses",
        "seal_expected_mutual_information",
        "seal_expected_mutual_information_grid",
        "seal_mismatch_probability_grid",
        "seal_mutual_information_k",
    ),
    "channel_file": (
        "ChannelFormatError",
        "channel_to_json",
        "load_channel",
        "parse_channel",
        "save_channel",
    ),
    "protocol": (
        "BIT_ANNOUNCEMENT_ALPHABET",
        "Announcement",
        "BitAnnouncement",
        "ProtocolParams",
        "PublicTranscript",
        "ResultAnnouncement",
        "RunOutcome",
        "ShotRecord",
        "SimStats",
        "bob_decode",
        "export_transcript",
        "information_density",
        "matching_basis",
        "monte_carlo",
        "predicted_result",
        "public_transcript",
        "run_protocol",
        "tally_mismatches",
    ),
    "qubit": (
        "BlochVector",
        "ChannelValidation",
        "DensityMatrix",
        "KrausChannel",
        "MeasurementBasis",
        "MeasurementResult",
        "ProtocolPureState",
        "apply_channel",
        "bloch_from_density",
        "born_table",
        "density_from_bloch",
        "dephasing_channel",
        "depolarizing_channel",
        "identity_channel",
        "maximally_mixed",
        "measurement_prob",
        "preparation_images",
        "seal_channel",
        "state_density",
        "state_vector",
        "validate_channel",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("analysis", "channel_file", "cli", "protocol", "qubit", "textfile")

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def _submodule(name: str):
    # the import statement's own machinery, not importlib.import_module, so
    # that ``python -X importtime`` reports the submodule on its own row
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    """Import a submodule, or a public name's submodule, the first time it is used."""
    if name in _SUBMODULES:
        # the import binds the submodule on the package, so this runs once per name
        return _submodule(name)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
