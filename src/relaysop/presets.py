"""Figure-reproduction presets as pure data.

Each preset lists the axis grid, threshold rates, schemes and the sweep-spec
`links` object of each variant; changing a preset never touches engine
code. `figure_sweep_specs` parses a preset's variants with
`sweep.parse_sweep_spec`, like any sweep spec file. The same link data also
parameterizes the cross-validation families (`family_links`,
`family_config`), which must resolve at any relay count: `_FIG4_FRACTIONS`
and the eavesdropper ladder carry the reconstruction rule for counts the
original setup did not state.
"""

from __future__ import annotations

from .sweep import (SpecValidationError, config_from_links, parse_links,
                    parse_sweep_spec)

# mean SNRs in dB unless noted; fractions are linear-scale shares of the axis
_EVE_LADDER_DB = (0.0, 3.0, 6.0, 9.0)
#: per-relay hop fractions of the mixed-rate family at any relay count; both
#: hops of branch k get fraction_k of the axis, and the fractions sum to 0.5
#: so all hop shares total 100%
_FIG4_FRACTIONS = {
    1: (0.5,),
    2: (0.2, 0.3),
    3: (0.10, 0.15, 0.25),
    4: (0.05, 0.10, 0.15, 0.20),
}

PARAM_FAMILIES = ("fig2", "fig3-balanced", "fig3-unbalanced", "fig4")


def _fixed(mean_snr_db) -> dict:
    return {"policy": "fixed-db", "mean_snr_db": mean_snr_db}


def family_links(family: str, n_relays: int) -> dict:
    """Sweep-spec `links` of one parameter family, resolved for n_relays.

    fig2 taps every relay at 3 dB; fig3 taps them on the eavesdropper
    ladder, with the hops splitting the axis (balanced) or S->R pinned at
    30 dB (unbalanced); fig4 gives branch k fraction_k of the axis on both
    hops and the top of the ladder as taps.
    """
    if family == "fig4":
        fr = list(_FIG4_FRACTIONS[n_relays])
        return {"s_relays": {"policy": "fraction-of-axis", "fraction": fr},
                "relays_d": {"policy": "fraction-of-axis", "fraction": fr},
                "s_d": _fixed(3.0),
                "relays_e": _fixed(list(_EVE_LADDER_DB[-n_relays:])),
                "s_e": _fixed(-3.0)}
    if family not in PARAM_FAMILIES:
        raise ValueError(f"unknown parameter family {family!r}")
    links = {"s_relays": {"policy": "equal-split"},
             "relays_d": {"policy": "equal-split"},
             "s_d": _fixed(3.0),
             "relays_e": _fixed(3.0 if family == "fig2"
                                else list(_EVE_LADDER_DB[:n_relays])),
             "s_e": _fixed(0.0)}
    if family == "fig3-unbalanced":
        links["s_relays"] = _fixed(30.0)
        links["relays_d"] = {"policy": "fraction-of-axis", "fraction": 1.0}
    return links


def _variants(family: str, labels: dict) -> tuple:
    return tuple({"label": label, "n_relays": n, "links": family_links(family, n)}
                 for label, n in labels.items())


FIGURE_PRESETS = {
    "fig2": {
        "snr_db": {"start": 0.0, "stop": 40.0, "step": 5.0},
        "rs_values": (0.0, 1.0),
        "schemes": ("max-e", "min-e"),
        "variants": _variants("fig2", {f"n{n}": n for n in (1, 2, 3, 4)}),
    },
    "fig3": {
        "snr_db": {"start": 0.0, "stop": 40.0, "step": 2.0},
        "rs_values": (0.0, 1.0),
        "schemes": ("max-e", "min-e"),
        "variants": (_variants("fig3-balanced", {"balanced": 4})
                     + _variants("fig3-unbalanced", {"unbalanced": 4})),
    },
    "fig4": {
        "snr_db": {"start": 0.0, "stop": 40.0, "step": 5.0},
        "rs_values": (1.0,),
        "schemes": ("max-e", "min-e", "max-mrc", "mrc-mrc"),
        "variants": _variants("fig4", {"n2": 2, "n4": 4}),
    },
}


def family_config(family: str, n_relays: int, snr_db: float):
    """NetworkConfig of one family at one axis point."""
    violations: list = []
    links = parse_links(family_links(family, n_relays), n_relays, violations)
    if violations:
        raise SpecValidationError(violations)
    return config_from_links(links, n_relays, snr_db)


def figure_sweep_specs(figure: str, trials: int = 1_000_000, seed: int = 12345,
                       engines=("analytic", "mc")):
    """(label, SweepSpec) pairs for one figure preset, parsed as sweep specs:
    a bad trial count or seed raises SpecValidationError naming mc.trials or
    mc.seed."""
    preset = FIGURE_PRESETS[figure]
    return [(variant["label"], parse_sweep_spec({
                "n_relays": variant["n_relays"], "snr_db": preset["snr_db"],
                "rs_values": preset["rs_values"], "schemes": preset["schemes"],
                "engines": engines, "links": variant["links"],
                "mc": {"trials": trials, "seed": seed}}))
            for variant in preset["variants"]]
