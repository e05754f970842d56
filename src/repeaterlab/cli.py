"""Command-line front end: analyze chains, sweep grids, simulate, compare.

Subcommands
    analyze   equilibrium + throughput + latency report for one parameter set
    sweep     grid evaluation driven by a JSON spec file, CSV out
    simulate  Monte Carlo run, per-trajectory CSV + JSON summary
    compare   analytical vs simulated rate with a sigma-distance column

Exit codes: 0 success, 2 validation error, 3 numerical failure. Errors are
emitted as one JSON object on stderr. CSV cells use 17 significant digits
with '.' as the decimal separator; non-finite values abort with exit 3
instead of being written. File outputs are written to a temporary file and
renamed into place, so a failed run never leaves a partial file behind.

Units: a chain step lasts tau time units (default 1.0). Sweep columns:
equilibrium, nested_type1, nested_type2 and simulated_mean are successes per
step; mean_latency is in time units; latency_std_over_mean has no unit;
naive_var and exact_var are variances of the per-time-unit rate over horizon
steps. compare reports rates per step; analyze reports throughput per time
unit and latency in time units.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import estimators, markov, protocols, simulator

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# sweep run settings -> the outputs that read them; a spec may set one only
# when it asks for such an output
_RUN_SETTINGS = {"horizon": ("naive_var", "exact_var"), "steps": ("simulated_mean",),
                 "trajectories": ("simulated_mean",), "seed": ("simulated_mean",)}

# sweep parameter names that configure the run rather than the protocol;
# they may only appear in fixed_params
_RESERVED_FIXED = ("tau", "n", *_RUN_SETTINGS)

# flags that describe a protocol chain, in the order errors list them
_CHAIN_FLAGS = ("--protocol", "--probs", "--pl", "--pr", "--ps", "--tau", "--params-json")


class CliValidationError(ValueError):
    """Bad flag combination, malformed spec file, or inconsistent inputs."""


class NumericalOutputError(Exception):
    """A result that should be finite is NaN or infinite."""


# ---------------------------------------------------------------- helpers

def _fmt(value) -> str:
    v = float(value)
    if not math.isfinite(v):
        raise NumericalOutputError(f"non-finite value {v!r} in output")
    return f"{v:.17g}"


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
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".rlab-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
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
    return tuple(float(part) for part in text.split(","))


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
    if args.protocol == "multiherald":
        if args.probs is None:
            raise CliValidationError("--probs is required for --protocol multiherald")
        if args.pl is not None or args.pr is not None or args.ps is not None:
            raise CliValidationError("--pl/--pr/--ps do not apply to multiherald")
        params = protocols.MultiHeraldParams(args.probs)
    else:
        if args.probs is not None:
            raise CliValidationError(f"--probs does not apply to {args.protocol}")
        if args.pl is None or args.pr is None or args.ps is None:
            raise CliValidationError(f"--pl, --pr and --ps are required for {args.protocol}")
        params = protocols.TwoLinkParams(args.pl, args.pr, args.ps)
        got = protocols.protocol_name(params)
        if got != args.protocol:
            raise CliValidationError(
                f"--pl/--pr carry {len(args.pl)} heralding round(s), which is "
                f"protocol {got!r}, not {args.protocol!r}")
    return params, tau


# ----------------------------------------------------------------- analyze

def _closed_form_deltas(params, chain, success, latency):
    name = protocols.protocol_name(params)
    if name == "multiherald":
        cf_eq = protocols.cf_equilibrium_multiheralded(params)
        cf_var = protocols.cf_latency_variance_multiheralded(params)
    elif name == "shs":
        cf_eq = protocols.cf_equilibrium_shs(params)
        cf_var = protocols.cf_latency_variance_shs(params)
    else:
        return None
    return {
        "equilibrium": abs(cf_eq - success),
        "latency_mean": abs(chain.tau / cf_eq - latency.mean),
        "latency_variance": abs(cf_var * chain.tau**2 - latency.variance),
    }


def cmd_analyze(args) -> int:
    params, tau = _params_from_args(args)
    chain = protocols.build_chain(params, tau)
    pi = chain.equilibrium
    success = float(pi[chain.success_state])
    throughput = estimators.estimate_throughput(chain, args.horizon, exact=args.exact)
    latency = estimators.estimate_latency(chain)
    try:
        deltas = _closed_form_deltas(params, chain, success, latency)
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
            "mean_rate": throughput.mean_rate,
            "naive_variance": throughput.naive_variance,
            "exact_variance": throughput.exact_variance,
            "horizon_N": throughput.horizon_N,
        },
        "latency": {"mean": latency.mean, "variance": latency.variance},
        "closed_form_deltas": deltas,
    }
    _assert_finite_tree(report)
    _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK


# ------------------------------------------------------- points and metrics

class _Point:
    """One target: chain params with their tau, or a nested level k and link p.

    The chain and its latency estimate are built once each, on first use.
    """

    def __init__(self, params=None, tau=None, k=None, p=None):
        self.params, self.k, self.p = params, k, p
        self.tau = 1.0 if tau is None else tau
        self.protocol = "nested" if params is None else protocols.protocol_name(params)
        self._chain = self._latency = None

    @property
    def chain(self) -> protocols.ProtocolChain:
        if self._chain is None:
            self._chain = protocols.build_chain(self.params, self.tau)
        return self._chain

    @property
    def latency(self) -> estimators.LatencyEstimate:
        if self._latency is None:
            self._latency = estimators.estimate_latency(self.chain)
        return self._latency

    def simulate(self, config: simulator.SimConfig) -> simulator.SimulationResult:
        if self.params is None:
            return simulator.simulate_nested(self.k, self.p, config)
        return simulator.simulate_chain(self.chain, config)


# metric -> (the sweep protocols it applies to, its value at a point pt given
# the sweep plan, its row in compare or None); the module docstring has units
_CHAIN = protocols.PROTOCOL_NAMES
_METRICS = {
    "equilibrium": (_CHAIN, lambda pt, plan: pt.chain.equilibrium[pt.chain.success_state],
                    "mean_throughput_per_step"),
    "mean_latency": (_CHAIN, lambda pt, plan: pt.latency.mean, None),
    "latency_std_over_mean": (
        _CHAIN, lambda pt, plan: math.sqrt(pt.latency.variance) / pt.latency.mean, None),
    "naive_var": (_CHAIN, lambda pt, plan: estimators.estimate_throughput(
        pt.chain, plan.horizon).naive_variance, None),
    "exact_var": (_CHAIN, lambda pt, plan: estimators.estimate_throughput(
        pt.chain, plan.horizon, exact=True).exact_variance, None),
    "nested_type1": (("nested",), lambda pt, plan: estimators.nested_throughput(
        pt.p, pt.k, "type1").rate, "nested_type1_rate"),
    "nested_type2": (("nested",), lambda pt, plan: estimators.nested_throughput(
        pt.p, pt.k, "type2").rate, "nested_type2_rate"),
    "simulated_mean": ((*_CHAIN, "nested"),
                       lambda pt, plan: pt.simulate(plan.sim_config).mean_throughput, None),
}


# ------------------------------------------------------------------- sweep

def _multiherald_aliases(prob_names, fixed):
    if "p" in prob_names:
        if len(prob_names) > 1:
            raise CliValidationError(
                "tied round probability 'p' cannot be mixed with per-round names")
        n = fixed.get("n")
        if n is None:
            raise CliValidationError("tied 'p' needs fixed_params entry 'n'")
        n = _require_int("fixed_params.n", n, 1)
        return {"p": tuple(f"p{i}" for i in range(1, n + 1))}
    if "n" in fixed:
        raise CliValidationError("fixed_params 'n' only applies with the tied 'p' alias")
    indices = []
    for name in prob_names:
        if not (name.startswith("p") and name[1:].isdigit() and not name[1:].startswith("0")):
            raise CliValidationError(f"unknown multiherald parameter {name!r}")
        indices.append(int(name[1:]))
    if not indices:
        raise CliValidationError("multiherald sweep names no round probabilities")
    n = max(indices)
    if sorted(indices) != list(range(1, n + 1)):
        raise CliValidationError(
            f"round probabilities must cover p1..p{n} with no gaps or repeats")
    return {f"p{i}": (f"p{i}",) for i in range(1, n + 1)}


def _nested_point(slots, tau) -> _Point:
    if tau is not None:
        raise CliValidationError("fixed_params 'tau' does not apply to protocol 'nested'")
    k, p = slots["k"], slots["p"]
    if not (math.isfinite(k) and abs(k - round(k)) <= 1e-9):
        raise CliValidationError(f"nesting level k must be an integer, got {k!r}")
    k = int(round(k))
    estimators.check_nested(k, p)
    return _Point(k=k, p=p)


# sweep protocol -> (its parameter aliases, name -> the slots it sets, or a
# function of (names, fixed_params) giving them; a function of the slot values
# and fixed_params' tau (None if unset) giving the validated point)
_PROTOCOLS = {
    "multiherald": (_multiherald_aliases, lambda slots, tau: _Point(protocols.MultiHeraldParams(
        tuple(slots[f"p{i}"] for i in range(1, len(slots) + 1))), tau)),
    "shs": ({"pl": ("pl",), "pr": ("pr",), "ps": ("ps",), "p": ("pl", "pr")},
            lambda slots, tau: _Point(protocols.TwoLinkParams(
                (slots["pl"],), (slots["pr"],), slots["ps"]), tau)),
    "dhs": ({"pl1": ("pl1",), "pl2": ("pl2",), "pr1": ("pr1",), "pr2": ("pr2",), "ps": ("ps",),
             "p1": ("pl1", "pr1"), "p2": ("pl2", "pr2"), "pl": ("pl1", "pl2"),
             "pr": ("pr1", "pr2"), "p": ("pl1", "pl2", "pr1", "pr2")},
            lambda slots, tau: _Point(protocols.TwoLinkParams(
                (slots["pl1"], slots["pl2"]), (slots["pr1"], slots["pr2"]), slots["ps"]), tau)),
    "nested": ({"p": ("p",), "k": ("k",)}, _nested_point),
}


class _SweepPlan:
    """Validated sweep: grid axes, slot resolution and every grid point."""

    def __init__(self, spec: dict):
        allowed_keys = {"protocol", "varied_params", "fixed_params", "outputs", "description"}
        unknown = set(spec) - allowed_keys
        if unknown:
            raise CliValidationError(f"unknown sweep spec keys {sorted(unknown)}")
        for required in ("protocol", "varied_params", "outputs"):
            if required not in spec:
                raise CliValidationError(f"sweep spec is missing {required!r}")

        self.protocol = spec["protocol"]
        if self.protocol not in _PROTOCOLS:
            raise CliValidationError(f"unknown sweep protocol {self.protocol!r}")

        self.outputs = list(spec["outputs"])
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

        fixed = dict(spec.get("fixed_params", {}))
        self.varied = []
        for entry in spec["varied_params"]:
            missing = {"name", "start", "stop", "count"} - set(entry)
            if missing:
                raise CliValidationError(f"varied_params entry is missing {sorted(missing)}")
            name = entry["name"]
            if name in _RESERVED_FIXED:
                raise CliValidationError(f"{name!r} may only appear in fixed_params")
            count = _require_int(f"count for {name!r}", entry["count"], 2)
            start, stop = float(entry["start"]), float(entry["stop"])
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise CliValidationError(f"non-finite grid bounds for {name!r}")
            self.varied.append((name, np.linspace(start, stop, count)))

        self.fixed_probs = {k: v for k, v in fixed.items() if k not in _RESERVED_FIXED}
        prob_names = [name for name, _ in self.varied] + list(self.fixed_probs)
        if len(set(prob_names)) != len(prob_names):
            raise CliValidationError("a parameter name appears more than once")

        aliases, build = _PROTOCOLS[self.protocol]
        if callable(aliases):
            aliases = aliases(prob_names, fixed)
        elif "n" in fixed:
            raise CliValidationError(
                f"fixed_params 'n' does not apply to protocol {self.protocol!r}")

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
        self.aliases = aliases
        uncovered = set().union(*aliases.values()) - set(slot_owner)
        if uncovered:
            raise CliValidationError(f"parameters not set: {sorted(uncovered)}")

        for setting, readers in _RUN_SETTINGS.items():
            if setting in fixed and not set(readers) & set(self.outputs):
                raise CliValidationError(
                    f"fixed_params {setting!r} is read only by outputs {list(readers)}")
        self.horizon = _require_int("fixed_params.horizon", fixed.get("horizon", 100_000), 1)
        if "naive_var" in self.outputs or "exact_var" in self.outputs:
            estimators.check_horizon(self.horizon)
        self.sim_config = None
        if "simulated_mean" in self.outputs:
            self.sim_config = simulator.SimConfig(
                seed=_require_int("fixed_params.seed", fixed.get("seed", 0), 0),
                steps_per_trajectory=_require_int(
                    "fixed_params.steps", fixed.get("steps", 100_000), 1),
                trajectories=_require_int(
                    "fixed_params.trajectories", fixed.get("trajectories", 1_000), 1),
            )

        # every point is checked before any is evaluated, so a bad point late
        # in the grid fails the run before earlier points are simulated
        tau = float(fixed["tau"]) if "tau" in fixed else None
        self.points = [(combo, build(self.slots_for(combo), tau)) for combo in self.grid()]

    def grid(self):
        return list(itertools.product(*[axis for _, axis in self.varied]))

    def slots_for(self, combo) -> dict:
        named = zip([name for name, _ in self.varied], combo)
        return {slot: float(value) for name, value in (*named, *self.fixed_probs.items())
                for slot in self.aliases[name]}


def cmd_sweep(args) -> int:
    with open(args.spec, "r") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise CliValidationError("sweep spec must be a JSON object")
    plan = _SweepPlan(spec)
    header = [name for name, _ in plan.varied] + list(plan.outputs)
    lines = [",".join(header)]
    for combo, point in plan.points:
        metrics = [_METRICS[metric][1](point, plan) for metric in plan.outputs]
        point._chain = point._latency = None  # so the next point reuses their memory
        lines.append(",".join([_fmt(v) for v in combo] + [_fmt(v) for v in metrics]))
    _atomic_write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# -------------------------------------------------------- simulate/compare

def _sim_point(args) -> _Point:
    """The point a simulate/compare command line names."""
    if args.nested:
        chain_flags = _given(args, _CHAIN_FLAGS)
        if chain_flags:
            raise CliValidationError(
                f"--nested conflicts with protocol chain flags {', '.join(chain_flags)}")
        if args.k is None or args.p is None:
            raise CliValidationError("--nested requires --k and --p")
        return _Point(k=args.k, p=args.p)
    nested_flags = _given(args, ("--k", "--p"))
    if nested_flags:
        raise CliValidationError(f"{', '.join(nested_flags)} require --nested")
    return _Point(*_params_from_args(args))


def _sim_config_from_args(args) -> simulator.SimConfig:
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "little")
    return simulator.SimConfig(seed=seed, steps_per_trajectory=args.steps,
                               trajectories=args.trajectories)


def cmd_simulate(args) -> int:
    point = _sim_point(args)
    if point.params is None:
        target = {"kind": "nested", "k": point.k, "p": point.p}
    else:
        target = {"kind": "chain", "protocol": point.protocol,
                  "params": json.loads(protocols.params_to_json(point.params, point.tau))}
    result = point.simulate(_sim_config_from_args(args))
    if args.csv_out is not None:
        lines = ["trajectory_index,success_count"]
        lines += [f"{i},{count}" for i, count in enumerate(result.success_counts)]
        _atomic_write(args.csv_out, "\n".join(lines) + "\n")
    summary = {
        "target": target,
        "config": {
            "seed": result.config_echo.seed,
            "steps_per_trajectory": result.config_echo.steps_per_trajectory,
            "trajectories": result.config_echo.trajectories,
            "rng_algorithm": simulator.RNG_ALGORITHM,
        },
        "mean_throughput": result.mean_throughput,
        "throughput_variance": result.throughput_variance,
        "std_error": result.std_error(),
        "wall_time": result.wall_time,
    }
    _assert_finite_tree(summary)
    _emit(json.dumps(summary, indent=2), args.json_out)
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.trajectories < 2:
        raise CliValidationError(
            f"compare needs --trajectories >= 2 for a standard error, got {args.trajectories}")
    point = _sim_point(args)
    # the analytical side first: a numerical failure there costs no simulation;
    # compare rows read no sweep settings, so they get no plan
    analytical = [(row, value(point, None)) for applies, value, row in _METRICS.values()
                  if row is not None and point.protocol in applies]
    result = point.simulate(_sim_config_from_args(args))
    simulated = result.mean_throughput
    err = result.std_error()

    def sigma(rate: float) -> float:
        gap = abs(rate - simulated)
        if err == 0.0:
            if gap == 0.0:
                return 0.0
            raise NumericalOutputError(
                "zero standard error with nonzero analytical-simulated gap")
        return gap / err

    lines = ["quantity,analytical,simulated,std_error,sigma_distance"]
    for quantity, rate in analytical:
        lines.append(",".join([quantity] + [_fmt(v) for v in (rate, simulated, err, sigma(rate))]))
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
    group.add_argument("--steps", type=int, default=100_000,
                       help="steps per trajectory (default 100000)")
    group.add_argument("--trajectories", type=int, default=1_000,
                       help="independent trajectories (default 1000)")
    group.add_argument("--seed", type=int,
                       help="RNG seed; drawn from OS entropy and echoed if omitted")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeaterlab",
        description="Analytical and Monte Carlo statistics for repeater-chain "
                    "entanglement distribution protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report on one protocol chain")
    _add_protocol_flags(analyze)
    analyze.add_argument("--horizon", type=int, default=100_000,
                         help="finite horizon N for throughput variance (default 100000)")
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
    args = _build_parser().parse_args(argv)
    try:
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
