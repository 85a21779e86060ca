"""Document formats: JSON parameters, measured delays and netlists,
delay-curve CSV, and VCD traces.

Numeric fields carry SI unit suffixes in their names (_ohm, _ohm_s,
_f, _s) so a document is unambiguous without a units legend.  All
emitters are deterministic byte for byte for fixed inputs, and
`atomic_write` never leaves a partial file behind.

Every JSON document is rendered by `_dumps`, whose output equals
`json.dumps(doc, indent=2) + "\n"` byte for byte.  `json` falls back
to its pure-Python encoder whenever `indent` is set; `_dumps` keeps
the C string encoder and walks the containers itself.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import tempfile
from io import StringIO
from itertools import repeat
from json.encoder import encode_basestring_ascii as _str
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .characterize import _DELAY_FIELDS, MeasuredDelays
from .gates import _KIND_CLASSES, CGateParams, NorGateParams, _is_int, _kind_of
from .sim import Gate, Netlist, SimStats, StimulusSpec, _is_bit

GateParams = Union[NorGateParams, CGateParams]

FIXTURE_DIR_ENV = "MISDELAY_FIXTURES"

CURVE_FAMILIES = ("down_plus", "down_minus", "up_plus", "up_minus")
CURVE_SOURCES = ("closed_form", "trajectory_oracle", "ode_oracle")

# document key -> dataclass attribute
_NOR_FIELDS = (
    ("r_n_a_ohm", "r_n_a"),
    ("r_n_b_ohm", "r_n_b"),
    ("r_ohm", "r"),
    ("alpha1_ohm_s", "alpha1"),
    ("alpha2_ohm_s", "alpha2"),
    ("c_load_f", "c_load"),
    ("r5_ohm", "r5"),
    ("delta_min_s", "delta_min"),
)

_CGATE_FIELDS = (
    ("r_n_ohm", "r_n"),
    ("r_p_ohm", "r_p"),
    ("alpha1_ohm_s", "alpha1"),
    ("alpha2_ohm_s", "alpha2"),
    ("alpha3_ohm_s", "alpha3"),
    ("alpha4_ohm_s", "alpha4"),
    ("c_load_f", "c_load"),
    ("r5_ohm", "r5"),
    ("delta_min_s", "delta_min"),
)

_MEASURED_FIELDS = tuple((f"{name}_s", name) for name in _DELAY_FIELDS)

_METADATA_STRINGS = ("label", "technology")

# document "kind" -> field map; both directions read it
_KINDS = {"nor2": _NOR_FIELDS, "cgate": _CGATE_FIELDS}


class SchemaError(ValueError):
    """A document does not match its schema; `path` names the spot."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _reject_nonfinite(token: str) -> float:
    raise SchemaError("", f"non-finite number {token} is not allowed")


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("", f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text, parse_constant=_reject_nonfinite,
                         object_pairs_hook=_unique_keys)
    except SchemaError:
        raise
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from None
    except ValueError as exc:
        # an integer literal past int's string-conversion digit limit
        raise SchemaError("", f"number out of range: {exc}") from None
    except RecursionError:
        raise SchemaError("", "nesting too deep") from None
    if not isinstance(doc, dict):
        raise SchemaError("", "top level must be an object")
    return doc


def _pop(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(_join(path, key), "missing required field")
    return obj.pop(key)


def _object(val: object, path: str) -> dict:
    # no copy: every object popped from is freshly decoded or a copy
    if not isinstance(val, dict):
        raise SchemaError(path, "expected an object")
    return val


def _number(obj: dict, key: str, path: str) -> float:
    val = _pop(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(_join(path, key), "expected a number")
    try:
        num = float(val)
    except OverflowError:  # an integer literal beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise SchemaError(_join(path, key), "expected a finite number")
    return num


def _integer(obj: dict, key: str, path: str) -> int:
    val = _pop(obj, key, path)
    if not _is_int(val):
        raise SchemaError(_join(path, key), "expected an integer")
    return val


def _string(obj: dict, key: str, path: str) -> str:
    val = _pop(obj, key, path)
    if not isinstance(val, str):
        raise SchemaError(_join(path, key), "expected a string")
    return val


def _no_leftovers(obj: dict, path: str) -> None:
    if obj:
        raise SchemaError(_join(path, sorted(obj)[0]), "unknown field")


# -- JSON rendering --------------------------------------------------------

def _float(val: float) -> str:
    if val != val:
        return "NaN"
    if val in (math.inf, -math.inf):
        return "Infinity" if val > 0.0 else "-Infinity"
    return float.__repr__(val)


def _key(key) -> str:
    # json's key conversion: a scalar key reads as it renders as a value
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json(key, "")
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _wrap(open_: str, items: List[str], pad: str, close: str) -> str:
    # items already rendered one level below pad, the newline-led
    # indentation of the line the container closes on
    if not items:
        return open_ + close
    inner = pad + "  "
    return open_ + inner + ("," + inner).join(items) + pad + close


def _json(val, pad: str) -> str:
    if isinstance(val, str):
        return _str(val)
    if val is None:
        return "null"
    if val is True:
        return "true"
    if val is False:
        return "false"
    if isinstance(val, int):
        return int.__repr__(val)
    if isinstance(val, float):
        return _float(val)
    inner = pad + "  "
    if isinstance(val, (list, tuple)):
        return _wrap("[", [_json(x, inner) for x in val], pad, "]")
    if isinstance(val, dict):
        return _wrap("{", [_str(_key(k)) + ": " + _json(x, inner)
                           for k, x in val.items()], pad, "}")
    raise TypeError(f"Object of type {val.__class__.__name__} "
                    "is not JSON serializable")


def _dumps(doc) -> str:
    """`json.dumps(doc, indent=2) + "\n"`, byte for byte."""
    return _json(doc, "\n") + "\n"


# -- gate parameter documents -------------------------------------------

def _metadata_from_doc(meta: object, path: str) -> Dict[str, object]:
    meta = _object(meta, path)
    out: Dict[str, object] = {key: _string(meta, key, path)
                              for key in _METADATA_STRINGS if key in meta}
    if "wire_length_um" in meta:
        out["wire_length_um"] = _number(meta, "wire_length_um", path)
    _no_leftovers(meta, path)
    return out


def _params_from_doc(doc: dict, path: str) -> GateParams:
    kind = _string(doc, "kind", path)
    if kind not in _KINDS:
        raise SchemaError(_join(path, "kind"),
                          f"expected 'nor2' or 'cgate', got {kind!r}")
    fields = {attr: _number(doc, key, path) for key, attr in _KINDS[kind]}
    if kind == "cgate" and "inverted" in doc:
        val = doc.pop("inverted")
        if not isinstance(val, bool):
            raise SchemaError(_join(path, "inverted"), "expected a boolean")
        fields["inverted"] = val
    _metadata_from_doc(doc.pop("metadata", {}), _join(path, "metadata"))
    _no_leftovers(doc, path)
    return _KIND_CLASSES[kind](**fields)


def _params_to_doc(params: GateParams) -> Dict[str, object]:
    kind = _kind_of(params)
    doc: Dict[str, object] = {"kind": kind}
    doc.update((key, getattr(params, attr)) for key, attr in _KINDS[kind])
    if kind == "cgate" and params.inverted:
        doc["inverted"] = True
    return doc


def parse_params(text: str) -> GateParams:
    """Parse a parameter document into NorGateParams or CGateParams.

    Unknown fields anywhere in the document are rejected; parameter
    invariant violations surface as ParamError from the dataclass
    constructors.
    """
    return _params_from_doc(_load_document(text), "")


def serialize_params(params: GateParams) -> str:
    """Render a parameter document through `_dumps`."""
    return _dumps(_params_to_doc(params))


# -- measured-delay documents --------------------------------------------

def parse_measured(text: str, c_chosen: float,
                   delta_min: float = 0.0) -> MeasuredDelays:
    """Parse the six extremal delays of a measured-delay document.

    The chosen load capacitance and transport delay are not part of
    the document; they travel as CLI flags and are supplied here.
    """
    doc = _load_document(text)
    fields = {attr: _number(doc, key, "") for key, attr in _MEASURED_FIELDS}
    _no_leftovers(doc, "")
    return MeasuredDelays(delta_min=delta_min, c_chosen=c_chosen, **fields)


def serialize_measured(m: MeasuredDelays) -> str:
    """Render the six extremal delays through `_dumps`."""
    return _dumps({key: getattr(m, attr) for key, attr in _MEASURED_FIELDS})


# -- netlist documents ----------------------------------------------------

def parse_netlist(text: str) -> Tuple[Netlist, Dict[str, GateParams]]:
    """Parse a netlist document; returns (netlist, parameter library)."""
    doc = _load_document(text)

    raw_gates = _pop(doc, "gates", "")
    if not isinstance(raw_gates, list):
        raise SchemaError("gates", "expected an array")
    gates = []
    for i, entry in enumerate(raw_gates):
        path = f"gates[{i}]"
        entry = _object(entry, path)
        gid = _string(entry, "id", path)
        kind = _string(entry, "kind", path)
        inputs = entry.pop("inputs", [])
        if (not isinstance(inputs, list)
                or not all(isinstance(x, str) for x in inputs)):
            raise SchemaError(_join(path, "inputs"),
                              "expected an array of net names")
        output = _string(entry, "output", path)
        ref = _string(entry, "params_ref", path) if "params_ref" in entry else ""
        _no_leftovers(entry, path)
        gates.append(Gate(id=gid, kind=kind, inputs=tuple(inputs),
                          output=output, params_ref=ref))

    nets: Dict[str, int] = {}
    for name, val in _object(_pop(doc, "nets", ""), "nets").items():
        if not _is_bit(val):
            raise SchemaError(_join("nets", name), "expected 0 or 1")
        nets[name] = val

    stimuli: Dict[str, StimulusSpec] = {}
    for sid, spec in _object(doc.pop("stimuli", {}), "stimuli").items():
        spath = _join("stimuli", sid)
        spec = _object(spec, spath)
        mu = _number(spec, "mu_s", spath)
        sigma = _number(spec, "sigma_s", spath)
        n_tr = _integer(spec, "n_transitions", spath)
        seed = _integer(spec, "seed", spath)
        _no_leftovers(spec, spath)
        stimuli[sid] = StimulusSpec(mu=mu, sigma=sigma,
                                    n_transitions=n_tr, seed=seed)

    library: Dict[str, GateParams] = {}
    for ref, entry in _object(doc.pop("params", {}), "params").items():
        lpath = _join("params", ref)
        library[ref] = _params_from_doc(_object(entry, lpath), lpath)

    _no_leftovers(doc, "")

    for i, g in enumerate(gates):
        if g.kind in _KINDS and g.params_ref not in library:
            raise SchemaError(f"gates[{i}].params_ref",
                              f"no entry {g.params_ref!r} in params")
    return Netlist(gates=tuple(gates), nets=nets, stimuli=stimuli), library


def _gate_json(g: Gate, pad: str) -> str:
    # one gates[] entry as _json renders its dict, fields written in place
    inner = pad + "  "
    text = f'{{{inner}"id": {_str(g.id)},{inner}"kind": {_str(g.kind)},'
    if g.inputs:
        item = inner + "  "
        names = ("," + item).join(map(_str, g.inputs))
        text += f'{inner}"inputs": [{item}{names}{inner}],'
    text += f'{inner}"output": {_str(g.output)}'
    if g.params_ref:
        text += f',{inner}"params_ref": {_str(g.params_ref)}'
    return text + pad + "}"


def serialize_netlist(nl: Netlist, library: Mapping[str, GateParams]) -> str:
    """Render a netlist document through `_dumps`'s writer.

    Each `gates[]` entry is written straight from its Gate, whose
    fields must be strings: a gate field of another type raises
    TypeError naming the gate, where `json.dumps` would have written
    a document that `parse_netlist` rejects.
    """
    pad = "\n  "
    gates = []
    for i, g in enumerate(nl.gates):
        try:
            gates.append(_gate_json(g, pad + "  "))
        except TypeError:
            raise TypeError(f"gates[{i}]: every field must be a string "
                            f"(inputs a sequence of them), got {g!r}"
                            ) from None
    members = ['"gates": ' + _wrap("[", gates, pad, "]"),
               '"nets": ' + _json({name: nl.nets[name]
                                   for name in sorted(nl.nets)}, pad)]
    if nl.stimuli:
        members.append('"stimuli": ' + _json({
            sid: {"mu_s": s.mu, "sigma_s": s.sigma,
                  "n_transitions": s.n_transitions, "seed": s.seed}
            for sid, s in sorted(nl.stimuli.items())
        }, pad))
    if library:
        members.append('"params": ' + _json({
            ref: _params_to_doc(library[ref]) for ref in sorted(library)
        }, pad))
    return _wrap("{", members, "\n", "}") + "\n"


# -- delay-curve CSV -------------------------------------------------------

def write_curve_csv(rows: Iterable[Tuple[float, float, str, str]]) -> str:
    """Render delay-curve rows (delta, delay, family, source) as CSV.

    Enforces the curve invariants: known family and source labels, no
    NaN cells, strictly increasing delta within each (family, source)
    series.
    """
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("delta_s", "delay_s", "family", "source"))
    last: Dict[Tuple[str, str], float] = {}
    for i, (delta, delay, family, source) in enumerate(rows):
        if family not in CURVE_FAMILIES:
            raise ValueError(f"row {i}: unknown family {family!r}")
        if source not in CURVE_SOURCES:
            raise ValueError(f"row {i}: unknown source {source!r}")
        if math.isnan(delta) or math.isnan(delay):
            raise ValueError(f"row {i}: NaN cell")
        key = (family, source)
        if key in last and delta <= last[key]:
            raise ValueError(
                f"row {i}: delta not increasing within {family}/{source}")
        last[key] = delta
        writer.writerow((repr(delta), repr(delay), family, source))
    return out.getvalue()


# -- VCD traces ------------------------------------------------------------

def _vcd_id(i: int) -> str:
    # identifier codes over the printable range '!'..'~', base 94
    chars = []
    while True:
        chars.append(chr(33 + i % 94))
        i //= 94
        if i == 0:
            return "".join(chars)


def write_vcd(trace: Mapping[str, Sequence[Tuple[float, int]]],
              initial: Mapping[str, int]) -> str:
    """Render per-net value changes as a VCD document.

    `initial` maps every net to its value at time zero; `trace` holds
    time-ordered (time, value) changes per net.  Every value must be
    the int 0 or 1.  The timescale is 1 fs so sub-picosecond delays
    stay representable; change times are rounded to the nearest
    femtosecond, and a time that is not finite raises ValueError
    naming its net.  Changes are written in (femtosecond, net index)
    order, nets indexed by name; one net's changes within one
    femtosecond keep their trace order.
    """
    unknown = sorted(set(trace) - set(initial))
    if unknown:
        raise ValueError(f"trace nets missing from the net map: {unknown}")
    nets = sorted(initial)
    codes = [_vcd_id(i) for i in range(len(nets))]

    lines = ["$timescale 1 fs $end", "$scope module top $end"]
    lines += [f"$var wire 1 {code} {net} $end"
              for net, code in zip(nets, codes)]
    lines += ["$upscope $end", "$enddefinitions $end", "$dumpvars"]
    for net, code in zip(nets, codes):
        value = initial[net]
        if not _is_bit(value):
            raise ValueError(f"net {net!r}: initial value must be 0 or 1")
        lines.append(f"{value}{code}")
    lines.append("$end")

    # nets are concatenated in index order, so a stable sort on the
    # femtosecond alone gives (fs, index) order, trace order within both
    fs: List[int] = []
    tokens: List[str] = []
    for net, code in zip(nets, codes):
        changes = trace.get(net)
        if not changes:
            continue
        times, values = zip(*changes)
        if not (set(values) <= {0, 1} and set(map(type, values)) == {int}):
            raise ValueError(f"net {net!r}: change value must be 0 or 1")
        if any(map(operator.gt, times, times[1:])):
            raise ValueError(f"net {net!r}: trace not time-ordered")
        start = len(fs)
        try:
            try:
                fs += map(float.__round__,
                          map(operator.mul, times, repeat(1e15)))
            except TypeError:  # a time whose product is not a float
                fs[start:] = map(round, map(operator.mul, times, repeat(1e15)))
        except (OverflowError, ValueError):
            raise ValueError(
                f"net {net!r}: change time is not finite") from None
        tokens += map((f"0{code}", f"1{code}").__getitem__, values)

    append = lines.append
    current_fs = None
    for i in sorted(range(len(fs)), key=fs.__getitem__):
        if fs[i] != current_fs:
            current_fs = fs[i]
            append(f"#{current_fs}")
        append(tokens[i])
    return "\n".join(lines) + "\n"


# -- stats reports ----------------------------------------------------------

def serialize_stats(stats: SimStats) -> str:
    """Render a run's statistics through `_dumps`, nets sorted."""
    return _dumps({
        "events": stats.events,
        "transitions": {net: stats.transitions[net]
                        for net in sorted(stats.transitions)},
        "wall_clock_s": stats.wall_clock_s,
    })


# -- file plumbing -----------------------------------------------------------

def atomic_write(path: Union[str, os.PathLike], text: str) -> None:
    """Write text to path via a same-directory temp file and rename.

    A failure mid-write leaves the target untouched; readers never see
    a partial document.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def fixture_dir() -> Path:
    """Directory of bundled parameter fixtures.

    The MISDELAY_FIXTURES environment variable overrides the packaged
    directory.
    """
    override = os.environ.get(FIXTURE_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).with_name("fixtures")


def list_fixtures() -> List[str]:
    return sorted(p.stem for p in fixture_dir().glob("*.json"))


def _read_document(path: Union[str, os.PathLike]) -> str:
    """A document file's text; SchemaError unless it is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("", f"not valid UTF-8: {exc}") from None


def load_fixture(name: str) -> GateParams:
    try:
        text = _read_document(fixture_dir() / f"{name}.json")
    except FileNotFoundError:
        raise KeyError(f"no fixture named {name!r} in {fixture_dir()}") from None
    return parse_params(text)
