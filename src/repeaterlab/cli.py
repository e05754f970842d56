"""Command-line front end: analyze chains, sweep grids, simulate, compare.

Subcommands
    analyze   equilibrium + throughput + latency report for one parameter set
    sweep     grid evaluation driven by a JSON spec file, CSV out
    simulate  Monte Carlo run, per-trajectory CSV + JSON summary
    compare   analytical vs simulated rate with a sigma-distance column

Exit codes: 0 success, 2 validation error, 3 numerical failure. Errors,
bad flags included, are emitted as one JSON object on stderr. CSV cells use
17 significant digits with '.' as the decimal separator; non-finite values
abort with exit 3 instead of being written. File outputs are written to a
temporary file and renamed into place, so a failed run never leaves a
partial file behind. They get what a plain write would give: an existing
file keeps its mode, a new one follows the umask, and a symlinked path
rewrites the file the link points to. The rename is kept for a path that
does not exist yet and for a regular file with one link whose owner and
group a new file would get. Any other existing target (a FIFO, a device, a
file with more hard links, another owner's file) is rewritten in place, not
atomically, so that it stays what it was.

Units: a chain step lasts tau time units (default 1.0). Sweep columns:
equilibrium, nested_type1, nested_type2 and simulated_mean are successes per
step; mean_latency is in time units; latency_std_over_mean has no unit;
naive_var and exact_var are variances of the per-time-unit rate over horizon
steps. compare reports rates per step; analyze reports throughput per time
unit and latency in time units.

A sweep is columnar from spec to CSV. _SweepPlan builds the grid once, as a
(points x varied) array in itertools.product order, and from it one float
column per protocol slot (aliases and fixed values resolved once), in the
slot order that protocols names through the params' slot_names. One check
per protocol masks every column at once; if a point fails, the first failing
point raises the error it would raise alone (its params' from_row, or, for
a nested k that is integral, estimators.check_nested). Each block of points
then passes its rows to its family's builder in protocols.FAMILIES as one
stack, with no params object per point; every chain metric, exact_var
included, is one column of that stack, and the CSV rows come from one float
table per block.
A block's simulated_mean is one engine call over all its targets,
simulate_chain on its stacked chain or simulate_nested on its (k, p) pairs,
which draws each trajectory stream once and returns the counts per target
and trajectory; _rate_stats turns them into rates. Each nested estimate is
one call over its k and p columns. compare and simulate evaluate a one-row
block the same way, from their params' .row, and take their statistics from
_rate_stats. analyze builds its chain through build_chain and its closed-form
deltas from its family's pair in FAMILIES (null where there is none). The
argparse parser is built on the first main call and reused by later calls.

Each rule has one owner, which this module reads rather than restates: the
flags a family takes are its params fields in protocols.FAMILIES, through
_FIELD_FLAGS; the run defaults and least values are _RUN_SETTINGS, for the
flags and the sweep alike (simulator.SimConfig has no defaults); the nested
range is estimators.nested_ok; a new file's mode is the one the kernel gives
it under the umask, which this module never reads.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import estimators, markov, protocols, simulator

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# run settings: the sweep outputs that read each, its default and its least
# value. A sweep spec may set one in fixed_params only when it asks for an
# output that reads it; the --horizon, --steps and --trajectories flags take
# their defaults from here (--seed has none: it is drawn)
_Setting = NamedTuple("_Setting", [("readers", tuple), ("default", int), ("least", int)])
_RUN_SETTINGS = {"horizon": _Setting(("naive_var", "exact_var"), 100_000, 1),
                 "seed": _Setting(("simulated_mean",), 0, 0),
                 "steps": _Setting(("simulated_mean",), 100_000, 1),
                 "trajectories": _Setting(("simulated_mean",), 1_000, 1)}

# sweep parameter names that configure the run rather than the protocol;
# they may only appear in fixed_params
_RESERVED_FIXED = ("tau", "n", *_RUN_SETTINGS)

# params field (see protocols.FAMILIES) -> the flag that sets it
_FIELD_FLAGS = {"round_probs": "--probs", "left_probs": "--pl", "right_probs": "--pr",
                "swap_prob": "--ps"}

# flags that describe a protocol chain, in the order errors list them
_CHAIN_FLAGS = ("--protocol", *_FIELD_FLAGS.values(), "--tau", "--params-json")


class CliValidationError(ValueError):
    """Bad flag combination, malformed spec file, or inconsistent inputs."""


class _Parser(argparse.ArgumentParser):
    """A parser, and through add_subparsers its subparsers, whose usage errors
    raise CliValidationError, so that main reports them like any other."""

    def error(self, message):
        raise CliValidationError(message)


class NumericalOutputError(Exception):
    """A result that should be finite is NaN or infinite."""


# ---------------------------------------------------------------- helpers

def _assert_finite_tree(obj, path="report"):
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NumericalOutputError(f"non-finite value at {path}")
    elif isinstance(obj, dict):
        for key, val in obj.items():
            _assert_finite_tree(val, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _assert_finite_tree(val, f"{path}[{i}]")


def _atomic_write(path: str, text: str):
    # through any symlink, so that the link stays and its target is rewritten
    target = os.path.realpath(path)
    try:
        existing = os.stat(target)
    except FileNotFoundError:
        existing = None
    if existing is not None:
        parent = os.stat(os.path.dirname(target))
        group = parent.st_gid if parent.st_mode & stat.S_ISGID else os.getegid()
        if not (stat.S_ISREG(existing.st_mode) and existing.st_nlink == 1
                and (existing.st_uid, existing.st_gid) == (os.geteuid(), group)):
            # a rename would turn a FIFO or a device into a regular file, leave
            # the other hard links reading the old contents, or hand another
            # owner's file to this one, so the target is rewritten in place, as
            # a plain write would, keeping its inode, mode and owner
            with open(target, "w", newline="") as handle:
                handle.write(text)
            return
    # created as a plain write would create it, 0o666 under the umask, which the
    # kernel applies; O_EXCL never opens a file that is already there
    tmp = os.path.join(os.path.dirname(target), f".rlab-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            if existing is not None:
                os.fchmod(fd, stat.S_IMODE(existing.st_mode))  # it keeps its own mode
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output_path):
    if output_path is None:
        print(text)
    else:
        _atomic_write(output_path, text if text.endswith("\n") else text + "\n")


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma-separated numbers: {text!r}") from None


def _require_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliValidationError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise CliValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < minimum:
        raise CliValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


# --------------------------------------------------- protocol flag parsing

def _given(args, flags) -> list[str]:
    """Those of ``flags`` that were set on the command line."""
    return [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]


def _params_from_args(args):
    """Resolve (--params-json | --protocol + prob flags) into (params, tau)."""
    inline = _given(args, _CHAIN_FLAGS[:-1])
    if args.params_json is not None:
        if inline:
            raise CliValidationError(
                f"--params-json conflicts with {', '.join(inline)}")
        with open(args.params_json, "r") as handle:
            return protocols.params_from_json(handle.read())
    if args.protocol is None:
        raise CliValidationError("either --protocol or --params-json is required")
    tau = 1.0 if args.tau is None else args.tau
    family = protocols.FAMILIES[args.protocol].params
    wanted = [_FIELD_FLAGS[field.name] for field in dataclasses.fields(family)]
    given = _given(args, _FIELD_FLAGS.values())
    if given != wanted:
        raise CliValidationError(f"--protocol {args.protocol} takes {', '.join(wanted)}; "
                                 f"given {', '.join(given) or 'none'}")
    params = family(*(getattr(args, flag[2:]) for flag in wanted))
    got = protocols.protocol_name(params)
    if got != args.protocol:
        # only a two-link family's round count can name another family
        raise CliValidationError(
            f"--pl/--pr carry {len(args.pl)} heralding round(s), which is "
            f"protocol {got!r}, not {args.protocol!r}")
    return params, tau


# ----------------------------------------------------------------- analyze

def _closed_form_deltas(params, chain, success, latency_mean, latency_var):
    closed_forms = protocols.FAMILIES[protocols.protocol_name(params)].closed_forms
    if closed_forms is None:
        return None
    cf_eq, cf_var = (form(params) for form in closed_forms)
    return {
        "equilibrium": abs(cf_eq - success),
        "latency_mean": abs(chain.tau / cf_eq - latency_mean),
        "latency_variance": abs(cf_var * chain.tau**2 - latency_var),
    }


def cmd_analyze(args) -> int:
    params, tau = _params_from_args(args)
    chain = protocols.build_chain(params, tau)
    pi = chain.equilibrium
    success = float(pi[chain.success_state])
    mean_rate, naive_var = estimators.estimate_throughput(chain, args.horizon)
    exact = estimators.exact_throughput_variance(chain, args.horizon) if args.exact else None
    latency_mean, latency_var = estimators.estimate_latency(chain)
    try:
        deltas = _closed_form_deltas(params, chain, success, latency_mean, latency_var)
    except protocols.ProtocolError:
        deltas = None  # closed form undefined at this parameter point
    report = {
        "protocol": protocols.protocol_name(params),
        "params": json.loads(protocols.params_to_json(params, tau)),
        "labels": list(chain.labels),
        "matrix": {"n": chain.n, "rows": chain.matrix.rows.tolist()},
        "equilibrium": {
            "by_state": dict(zip(chain.labels, pi.tolist())),
            "success_probability": success,
        },
        "throughput": {
            "mean_rate": mean_rate,
            "naive_variance": naive_var,
            "exact_variance": exact,
            "horizon_N": args.horizon,
        },
        "latency": {"mean": latency_mean, "variance": latency_var},
        "closed_form_deltas": deltas,
    }
    _assert_finite_tree(report)
    _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK


# ------------------------------------------------------- blocks and metrics

class _Block:
    """Targets of one protocol and one tau, evaluated together.

    A chain block holds one row of slot values per target, an array of
    shape (targets, slots) with the slots in the order of its params' .row
    (see protocols); its stacked chain and the chain's latency (mean, variance)
    are built once each, on first use. A nested block holds (k, p) pairs.
    """

    def __init__(self, protocol: str, rows, tau: float = 1.0):
        self.protocol, self.rows, self.tau = protocol, rows, tau

    @functools.cached_property
    def chain(self) -> protocols.ProtocolChain:
        return protocols.FAMILIES[self.protocol].chain(self.rows, self.tau)

    @functools.cached_property
    def latency(self) -> tuple[np.ndarray, np.ndarray]:
        return estimators.estimate_latency(self.chain)

    def simulate(self, config: simulator.SimConfig) -> np.ndarray:
        """Per-trajectory success counts, one row per target, from one engine
        call over the block, which draws each trajectory stream once."""
        if self.protocol == "nested":
            return simulator.simulate_nested(self.rows, config)
        return simulator.simulate_chain(self.chain, config)


def _rate_stats(counts: np.ndarray, steps: int):
    """Per row of per-trajectory success counts over steps: the mean rate, the
    sample variance of the rates (ddof=1; 0.0 for one trajectory) and the
    standard error of the mean."""
    rates = counts / steps
    var = rates.var(axis=-1, ddof=min(1, rates.shape[-1] - 1))
    return rates.mean(axis=-1), var, np.sqrt(var / rates.shape[-1])


def _nested(method: str):
    return lambda b, plan: estimators.nested_throughput(
        np.array([p for _, p in b.rows]), np.array([k for k, _ in b.rows]), method)


# metric -> (the sweep protocols it applies to, its values at a block b given
# the sweep plan, one per target, its row in compare or None); the module
# docstring has units. Each chain metric is one column of the block's stacked
# chain; nested_* and simulated_mean (through _Block.simulate) are one call per block.
_CHAIN = protocols.PROTOCOL_NAMES
_METRICS = {
    "equilibrium": (_CHAIN, lambda b, plan: b.chain.equilibrium[:, b.chain.success_state],
                    "mean_throughput_per_step"),
    "mean_latency": (_CHAIN, lambda b, plan: b.latency[0], None),
    "latency_std_over_mean": (
        _CHAIN, lambda b, plan: np.sqrt(b.latency[1]) / b.latency[0], None),
    "naive_var": (_CHAIN, lambda b, plan: estimators.estimate_throughput(
        b.chain, plan.horizon)[1], None),
    "exact_var": (_CHAIN, lambda b, plan: estimators.exact_throughput_variance(
        b.chain, plan.horizon), None),
    "nested_type1": (("nested",), _nested("type1"), "nested_type1_rate"),
    "nested_type2": (("nested",), _nested("type2"), "nested_type2_rate"),
    "simulated_mean": ((*_CHAIN, "nested"), lambda b, plan: _rate_stats(
        b.simulate(plan.sim_config), plan.sim_config.steps_per_trajectory)[0], None),
}


def _csv_lines(table: np.ndarray) -> list[str]:
    """One CSV line per row of a float table, each cell as '%.17g'.

    Raises:
        NumericalOutputError: at the first non-finite cell in row-major order.
    """
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        raise NumericalOutputError(f"non-finite value {float(table[tuple(bad[0])])!r} in output")
    template = ",".join(["%.17g"] * table.shape[1])
    return [template % tuple(row) for row in table.tolist()]


# ------------------------------------------------------------------- sweep

def _multiherald_aliases(prob_names, fixed):
    """The aliases and the slot names of a multiherald sweep, whose names fix n."""
    if "p" in prob_names:
        if len(prob_names) > 1:
            raise CliValidationError(
                "tied round probability 'p' cannot be mixed with per-round names")
        n = fixed.get("n")
        if n is None:
            raise CliValidationError("tied 'p' needs fixed_params entry 'n'")
        slots = protocols.MultiHeraldParams.slot_names(_require_int("fixed_params.n", n, 1))
        return {"p": slots}, slots
    if "n" in fixed:
        raise CliValidationError("fixed_params 'n' only applies with the tied 'p' alias")
    for name in prob_names:
        if not (name.startswith("p") and name[1:].isdigit() and not name[1:].startswith("0")):
            raise CliValidationError(f"unknown multiherald parameter {name!r}")
    if not prob_names:
        raise CliValidationError("multiherald sweep names no round probabilities")
    # the distinct names cover p1..pn if there are n, checked before any name is made
    n = max(int(name[1:]) for name in prob_names)
    if n != len(prob_names):
        raise CliValidationError(f"round probabilities must cover p1..p{n} with no gaps or repeats")
    slots = protocols.MultiHeraldParams.slot_names(n)
    return {slot: (slot,) for slot in slots}, slots


def _nested_check(rows: np.ndarray, tau) -> None:
    """Reject fixed_params' tau (None if unset) outright, and the first grid
    point (k, p) whose k is not an integral level in range or whose p is not a
    link probability, with that point's own error."""
    if tau is not None:
        raise CliValidationError("fixed_params 'tau' does not apply to protocol 'nested'")
    k = rows[:, 0]
    # a NaN, infinite or huge k casts to some level outside the range, or is not integral
    with np.errstate(invalid="ignore"):
        level = np.rint(k)
        integral = np.isfinite(k) & (np.abs(k - level) <= 1e-9)
        k_ok, p_ok = estimators.nested_ok(level.astype(np.int64), rows[:, 1])
    bad = np.flatnonzero(~(integral & k_ok & p_ok))
    if bad.size:
        k, p = rows[bad[0]].tolist()
        if not integral[bad[0]]:
            raise CliValidationError(f"nesting level k must be an integer, got {k!r}")
        estimators.check_nested(int(level[bad[0]]), p)


def _probability_check(params) -> Callable:
    """The grid check of a chain family with this params class: the first point
    with a slot outside [0, 1] (NaN included) raises its params' own error,
    through from_row; fixed_params' tau is left to the chain builder."""
    def check(rows: np.ndarray, tau) -> None:
        bad = np.flatnonzero(~((0.0 <= rows) & (rows <= 1.0)).all(axis=-1))
        if bad.size:
            params.from_row(rows[bad[0]].tolist())
    return check


class _Protocol(NamedTuple):
    """A sweep protocol's parameters and how its grid points are checked."""

    # parameter name -> the slots it sets; or, where the names fix the slot
    # count, a function of (names, fixed_params) giving that and the slots
    aliases: dict | Callable
    # the slot names in the order of the params' .row (see protocols), which
    # is the column order of rows; None where aliases is a function
    slots: tuple | None
    # (rows, fixed_params' tau or None) -> None, or the first bad point's own
    # error; raises where a tau does not apply at all
    check: Callable


_PROTOCOLS = {
    "multiherald": _Protocol(_multiherald_aliases, None,
                             _probability_check(protocols.MultiHeraldParams)),
    "shs": _Protocol(
        {"pl": ("pl",), "pr": ("pr",), "ps": ("ps",), "p": ("pl", "pr")},
        protocols.TwoLinkParams.slot_names(1), _probability_check(protocols.TwoLinkParams)),
    "dhs": _Protocol(
        {"pl1": ("pl1",), "pl2": ("pl2",), "pr1": ("pr1",), "pr2": ("pr2",), "ps": ("ps",),
         "p1": ("pl1", "pr1"), "p2": ("pl2", "pr2"), "pl": ("pl1", "pl2"),
         "pr": ("pr1", "pr2"), "p": ("pl1", "pl2", "pr1", "pr2")},
        protocols.TwoLinkParams.slot_names(2), _probability_check(protocols.TwoLinkParams)),
    "nested": _Protocol({"k": ("k",), "p": ("p",)}, ("k", "p"), _nested_check),
}


class _SweepPlan:
    """Validated sweep: the grid, one row of slot values per grid point, run settings.

    grid has shape (points, varied), in itertools.product order of the
    varied axes. rows holds the targets of _Block: for a chain protocol an
    array of shape (points, slots), for nested a list of (k, p).
    """

    def __init__(self, spec: dict):
        allowed_keys = {"protocol", "varied_params", "fixed_params", "outputs", "description"}
        unknown = set(spec) - allowed_keys
        if unknown:
            raise CliValidationError(f"unknown sweep spec keys {sorted(unknown)}")
        for required in ("protocol", "varied_params", "outputs"):
            if required not in spec:
                raise CliValidationError(f"sweep spec is missing {required!r}")
        for key, kind, what in (("outputs", str, "names"), ("varied_params", dict, "objects")):
            if not (isinstance(spec[key], list) and all(isinstance(x, kind) for x in spec[key])):
                raise CliValidationError(f"{key} must be a list of {what}")
        fixed = spec.get("fixed_params", {})
        if not isinstance(fixed, dict):
            raise CliValidationError("fixed_params must be an object")

        self.protocol = spec["protocol"]
        if self.protocol not in _PROTOCOLS:
            raise CliValidationError(f"unknown sweep protocol {self.protocol!r}")

        self.outputs = spec["outputs"]
        if not self.outputs:
            raise CliValidationError("outputs must name at least one metric")
        if len(set(self.outputs)) != len(self.outputs):
            raise CliValidationError("outputs contains duplicates")
        for metric in self.outputs:
            if metric not in _METRICS:
                raise CliValidationError(f"unknown metric {metric!r}")
            if self.protocol not in _METRICS[metric][0]:
                raise CliValidationError(
                    f"metric {metric!r} does not apply to protocol {self.protocol!r}")

        axes = []  # (name, (start, stop, count)), made linspaces once the grid fits
        for entry in spec["varied_params"]:
            keys = {"name", "start", "stop", "count"}
            unknown, missing = set(entry) - keys, keys - set(entry)
            if unknown:
                raise CliValidationError(f"unknown varied_params entry keys {sorted(unknown)}")
            if missing:
                raise CliValidationError(f"varied_params entry is missing {sorted(missing)}")
            name = entry["name"]
            if not isinstance(name, str):
                raise CliValidationError(f"varied_params name must be a string, got {name!r}")
            if name in _RESERVED_FIXED:
                raise CliValidationError(f"{name!r} may only appear in fixed_params")
            count = _require_int(f"count for {name!r}", entry["count"], 2)
            start, stop = (protocols._real(f"{bound} for {name!r}", entry[bound])
                           for bound in ("start", "stop"))
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise CliValidationError(f"non-finite grid bounds for {name!r}")
            axes.append((name, (start, stop, count)))

        fixed_probs = {k: v for k, v in fixed.items() if k not in _RESERVED_FIXED}
        prob_names = [name for name, _ in axes] + list(fixed_probs)
        if len(set(prob_names)) != len(prob_names):
            raise CliValidationError("a parameter name appears more than once")

        protocol = _PROTOCOLS[self.protocol]
        if callable(protocol.aliases):
            aliases, slots = protocol.aliases(prob_names, fixed)
        elif "n" in fixed:
            raise CliValidationError(
                f"fixed_params 'n' does not apply to protocol {self.protocol!r}")
        else:
            aliases, slots = protocol.aliases, protocol.slots

        slot_owner = {}
        for name in prob_names:
            if name not in aliases:
                raise CliValidationError(
                    f"unknown parameter {name!r} for protocol {self.protocol!r}")
            for slot in aliases[name]:
                if slot in slot_owner:
                    raise CliValidationError(
                        f"parameters {slot_owner[slot]!r} and {name!r} both set {slot!r}")
                slot_owner[slot] = name
        uncovered = set(slots) - set(slot_owner)
        if uncovered:
            raise CliValidationError(f"parameters not set: {sorted(uncovered)}")

        run = {}
        for setting, (readers, default, least) in _RUN_SETTINGS.items():
            if setting in fixed and not set(readers) & set(self.outputs):
                raise CliValidationError(
                    f"fixed_params {setting!r} is read only by outputs {list(readers)}")
            run[setting] = _require_int(f"fixed_params.{setting}",
                                        fixed.get(setting, default), least)
        self.horizon = run["horizon"]
        if "naive_var" in self.outputs or "exact_var" in self.outputs:
            estimators.check_horizon(self.horizon)
        self.sim_config = simulator.SimConfig(seed=run["seed"], steps_per_trajectory=run["steps"],
                                              trajectories=run["trajectories"])

        tau = protocols._real("fixed_params.tau", fixed["tau"]) if "tau" in fixed else None
        sizes = [count for _, (_, _, count) in axes]
        try:
            self.grid = np.empty((math.prod(sizes), len(sizes)))
            rows = np.empty((len(self.grid), len(slots)))
        except (MemoryError, ValueError) as exc:
            raise CliValidationError(
                f"the sweep grid of {math.prod(sizes)} points does not fit in memory") from exc
        self.varied = [(name, np.linspace(*axis)) for name, axis in axes]
        # column j repeats each value of axis j once per point of the later
        # axes, and the whole axis once per point of the earlier ones
        for j, (_, axis) in enumerate(self.varied):
            self.grid[:, j] = np.tile(np.repeat(axis, math.prod(sizes[j + 1:])),
                                      math.prod(sizes[:j]))
        values = {name: column for (name, _), column in zip(self.varied, self.grid.T)}
        values.update({name: protocols._real(f"fixed_params.{name}", value)
                       for name, value in fixed_probs.items()})
        for name, value in values.items():
            for slot in aliases[name]:
                rows[:, slots.index(slot)] = value

        # every point is checked before any is evaluated, so a bad point late
        # in the grid fails the run before earlier points are simulated; the
        # first bad point raises its own error
        protocol.check(rows, tau)
        self.tau = 1.0 if tau is None else tau
        self.rows = rows if self.protocol in protocols.FAMILIES else list(zip(
            np.rint(rows[:, 0]).astype(int).tolist(), rows[:, 1].tolist()))


# a sweep evaluates its points in blocks of at most this many, so the stacked
# chain of a block, and the memory it takes, stay bounded on any grid
_BLOCK = 1024


def cmd_sweep(args) -> int:
    with open(args.spec, "r") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise CliValidationError("sweep spec must be a JSON object")
    plan = _SweepPlan(spec)
    header = [name for name, _ in plan.varied] + list(plan.outputs)
    lines = [",".join(header)]
    for start in range(0, len(plan.grid), _BLOCK):
        block = _Block(plan.protocol, plan.rows[start:start + _BLOCK], plan.tau)
        # simulation last: a numerical failure anywhere in the block then costs none
        columns = {metric: _METRICS[metric][1](block, plan)
                   for metric in sorted(plan.outputs, key=lambda m: m == "simulated_mean")}
        lines += _csv_lines(np.column_stack(
            [plan.grid[start:start + _BLOCK]]
            + [np.asarray(columns[metric], dtype=float) for metric in plan.outputs]))
    _atomic_write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# -------------------------------------------------------- simulate/compare

def _sim_target(args):
    """The one-target block a simulate/compare command line names, and the
    target entry of simulate's summary."""
    if args.nested:
        chain_flags = _given(args, _CHAIN_FLAGS)
        if chain_flags:
            raise CliValidationError(
                f"--nested conflicts with protocol chain flags {', '.join(chain_flags)}")
        if args.k is None or args.p is None:
            raise CliValidationError("--nested requires --k and --p")
        return _Block("nested", [(args.k, args.p)]), {"kind": "nested", "k": args.k, "p": args.p}
    nested_flags = _given(args, ("--k", "--p"))
    if nested_flags:
        raise CliValidationError(f"{', '.join(nested_flags)} require --nested")
    params, tau = _params_from_args(args)
    name = protocols.protocol_name(params)
    return _Block(name, np.array([params.row]), tau), {
        "kind": "chain", "protocol": name,
        "params": json.loads(protocols.params_to_json(params, tau))}


def _sim_config_from_args(args) -> simulator.SimConfig:
    seed = int.from_bytes(os.urandom(8), "little") if args.seed is None else args.seed
    return simulator.SimConfig(seed=seed, steps_per_trajectory=args.steps,
                               trajectories=args.trajectories)


def cmd_simulate(args) -> int:
    block, target = _sim_target(args)
    config = _sim_config_from_args(args)
    t0 = time.perf_counter()
    counts, = block.simulate(config)
    wall_time = time.perf_counter() - t0
    if args.csv_out is not None:
        lines = ["trajectory_index,success_count"]
        lines += [f"{i},{count}" for i, count in enumerate(counts.tolist())]
        _atomic_write(args.csv_out, "\n".join(lines) + "\n")
    mean, var, err = map(float, _rate_stats(counts, config.steps_per_trajectory))
    summary = {
        "target": target,
        "config": {**dataclasses.asdict(config), "rng_algorithm": simulator.RNG_ALGORITHM},
        "mean_throughput": mean,
        "throughput_variance": var,
        "std_error": err,
        "wall_time": wall_time,
    }
    _assert_finite_tree(summary)
    _emit(json.dumps(summary, indent=2), args.json_out)
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.trajectories < 2:
        raise CliValidationError(
            f"compare needs --trajectories >= 2 for a standard error, got {args.trajectories}")
    block, _ = _sim_target(args)
    # the analytical side first: a numerical failure there costs no simulation;
    # compare rows read no sweep settings, so they get no plan
    analytical = [(row, value(block, None)[0]) for applies, value, row in _METRICS.values()
                  if row is not None and block.protocol in applies]
    config = _sim_config_from_args(args)
    simulated, _, err = map(float, _rate_stats(block.simulate(config)[0],
                                               config.steps_per_trajectory))

    def sigma(rate: float) -> float:
        gap = abs(rate - simulated)
        if err == 0.0:
            if gap == 0.0:
                return 0.0
            raise NumericalOutputError(
                "zero standard error with nonzero analytical-simulated gap")
        return gap / err

    table = np.array([[rate, simulated, err, sigma(rate)] for _, rate in analytical])
    lines = ["quantity,analytical,simulated,std_error,sigma_distance"]
    lines += [f"{quantity},{line}" for (quantity, _), line in zip(analytical, _csv_lines(table))]
    _emit("\n".join(lines), args.output)
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _add_protocol_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("protocol parameters")
    group.add_argument("--protocol", choices=protocols.PROTOCOL_NAMES,
                       help="protocol family for an analytical chain")
    group.add_argument("--probs", type=_comma_floats, metavar="P1,...,PN",
                       help="multiherald per-round success probabilities")
    group.add_argument("--pl", type=_comma_floats, metavar="P[,P2]",
                       help="left link probabilities (1 value for shs, 2 for dhs)")
    group.add_argument("--pr", type=_comma_floats, metavar="P[,P2]",
                       help="right link probabilities (1 value for shs, 2 for dhs)")
    group.add_argument("--ps", type=float, help="swap success probability")
    group.add_argument("--tau", type=float, help="elementary step duration (default 1.0)")
    group.add_argument("--params-json", metavar="FILE",
                       help="read protocol parameters from a JSON file instead of flags")


def _add_sim_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("simulation")
    group.add_argument("--nested", action="store_true",
                       help="simulate a 2^k-link nested swapping chain")
    group.add_argument("--k", type=int, help="nesting level (with --nested)")
    group.add_argument("--p", type=float,
                       help="elementary link success probability (with --nested)")
    group.add_argument("--steps", type=int, default=_RUN_SETTINGS["steps"].default,
                       help="steps per trajectory (default %(default)s)")
    group.add_argument("--trajectories", type=int,
                       default=_RUN_SETTINGS["trajectories"].default,
                       help="independent trajectories (default %(default)s)")
    group.add_argument("--seed", type=int,
                       help="RNG seed; drawn from OS entropy and echoed if omitted")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call and reused after it."""
    parser = _Parser(
        prog="repeaterlab",
        description="Analytical and Monte Carlo statistics for repeater-chain "
                    "entanglement distribution protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report on one protocol chain")
    _add_protocol_flags(analyze)
    analyze.add_argument("--horizon", type=int, default=_RUN_SETTINGS["horizon"].default,
                         help="finite horizon N for throughput variance (default %(default)s)")
    analyze.add_argument("--exact", action="store_true",
                         help="also compute the exact finite-horizon variance")
    analyze.add_argument("--output", metavar="FILE", help="write the JSON report here")
    analyze.set_defaults(handler=cmd_analyze)

    sweep = sub.add_parser("sweep", help="evaluate metrics over a parameter grid")
    sweep.add_argument("--spec", required=True, metavar="FILE", help="sweep spec JSON")
    sweep.add_argument("--output", required=True, metavar="FILE", help="CSV destination")
    sweep.set_defaults(handler=cmd_sweep)

    simulate = sub.add_parser("simulate", help="run the Monte Carlo engines")
    _add_protocol_flags(simulate)
    _add_sim_flags(simulate)
    simulate.add_argument("--csv-out", metavar="FILE",
                          help="write per-trajectory success counts here")
    simulate.add_argument("--json-out", metavar="FILE",
                          help="write the JSON summary here instead of stdout")
    simulate.set_defaults(handler=cmd_simulate)

    compare = sub.add_parser("compare", help="analytical vs simulated throughput")
    _add_protocol_flags(compare)
    _add_sim_flags(compare)
    compare.add_argument("--output", metavar="FILE", help="write the comparison CSV here")
    compare.set_defaults(handler=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (NumericalOutputError, markov.MarkovError, np.linalg.LinAlgError,
            ArithmeticError) as exc:
        return _fail("numerical", exc)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        return _fail("validation", exc)


def _fail(category: str, exc: Exception) -> int:
    payload = {"error": {"category": category, "type": type(exc).__name__,
                         "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    return EXIT_NUMERICAL if category == "numerical" else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
