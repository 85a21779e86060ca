"""The public surface: `misdelay.__all__` and the parameter names of
each callable it exports.

A public name or keyword added or removed fails here, so the change
that makes it has to restate the surface below and say why.
"""

import inspect

import misdelay

# name -> parameter names, in order; None for the version string and
# for the plain exceptions, which have no signature of their own
SURFACE = {
    "__version__": None,
    "ParamError": None,
    "NorGateParams": ("r_n_a", "r_n_b", "r", "alpha1", "alpha2", "c_load",
                      "r5", "delta_min"),
    "CGateParams": ("r_n", "r_p", "alpha1", "alpha2", "alpha3", "alpha4",
                    "c_load", "r5", "delta_min", "inverted"),
    "DelayQuery": ("output_direction", "delta"),
    "nor_delay": ("p", "q"),
    "nor_breakpoints": ("p",),
    "cgate_delay": ("p", "q"),
    "cgate_breakpoints": ("p", "input_direction"),
    "delay_by_inversion": ("gate_kind", "direction", "delta", "params"),
    "delay_by_ode": ("gate_kind", "direction", "delta", "params", "exact_f"),
    "InvalidMeasurementsError": ("problems",),
    "MeasuredDelays": ("d_down_minus_inf", "d_down_zero", "d_down_inf",
                       "d_up_minus_inf", "d_up_zero", "d_up_inf",
                       "delta_min", "c_chosen"),
    "characterize_nor": ("m",),
    "characterize_cgate": ("m", "r5_choice", "inverted"),
    "NetlistError": ("problems",),
    "CausalityError": None,
    "Gate": ("id", "kind", "inputs", "output", "params_ref"),
    "Netlist": ("gates", "nets", "stimuli"),
    "StimulusSpec": ("mu", "sigma", "n_transitions", "seed"),
    "SimResult": ("trace", "changes", "stats"),
    "generate_stimulus": ("mu", "sigma", "n", "seed", "net", "start_value"),
    "build_cross_coupled_chain": ("n_stages", "params_ref", "mu", "sigma",
                                  "n_transitions", "seed"),
    "run": ("nl", "library", "t_end", "max_events"),
    "SchemaError": ("path", "message"),
    "parse_params": ("text",),
    "serialize_params": ("params", "metadata"),
    "parse_measured": ("text", "c_chosen", "delta_min"),
    "serialize_measured": ("m",),
    "parse_netlist": ("text",),
    "serialize_netlist": ("nl", "library"),
    "load_fixture": ("name",),
    "list_fixtures": (),
}


def _parameters(obj):
    if not callable(obj):
        return None
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_exported_names():
    assert misdelay.__all__ == list(SURFACE)


def test_parameter_names():
    got = {name: _parameters(getattr(misdelay, name))
           for name in misdelay.__all__}
    assert got == SURFACE
