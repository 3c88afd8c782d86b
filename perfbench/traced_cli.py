"""Run one steptree CLI command with a span around every call into a layer.

Usage: python3 traced_cli.py SPANS_JSON -- <steptree arguments>

Each public layer function listed in ``LAYER_CALLS`` is rebound, in every
steptree module that holds it, to a wrapper that opens a span around the
call, so the command's own code runs unchanged and calls the layers in its
own order. Calls a composite function makes to another listed function
become child spans, so every span's self time is the time spent in its own
layer's code. Whatever no span covers (interpreter start-up, imports,
argparse, CSV and text output) is the command line's own time. On exit the
per-name self times and a few work counters go to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, self_times

# (defining module, attribute, span name); methods are given as "Class.method".
LAYER_CALLS = (
    ("io", "iter_groups", "io.iter_groups"),
    ("io", "parse_group_record", "io.parse_group_record"),
    ("io", "effective_config", "io.effective_config"),
    ("io", "weight_record", "io.weight_record"),
    ("io", "write_jsonl", "io.write_jsonl"),
    ("core", "reward_stats", "core.reward_stats"),
    ("core", "outcome_advantages", "core.outcome_advantages"),
    ("tree", "build_process_tree", "tree.build_process_tree"),
    ("tree", "assign_tokens", "tree.assign_tokens"),
    ("rewards", "step_advantages", "rewards.step_advantages"),
    ("objectives", "ratio_terms", "objectives.ratio_kl"),
    ("objectives", "kl_terms", "objectives.ratio_kl"),
    ("objectives", "objective_grpo", "objectives.objective_grpo"),
    ("objectives", "objective_prm", "objectives.objective_prm"),
    ("objectives", "objective_lambda", "objectives.objective_lambda"),
    ("objectives", "lambda_weights", "objectives.lambda_weights"),
    ("metrics", "group_metrics", "metrics.group_metrics"),
    ("metrics", "MetricsSummary.add", "metrics.summary_add"),
    ("verify", "generate_random_group", "verify.generate_random_group"),
    ("verify", "verify_equivalence", "verify.verify_equivalence"),
    ("verify", "verify_proof_identities", "verify.verify_proof_identities"),
    ("verify", "run_verification", "verify.run_verification"),
    ("sim", "rollout_group", "sim.rollout_group"),
    ("sim", "analytic_gradient", "sim.analytic_gradient"),
    ("sim", "expected_reward", "sim.expected_reward"),
    ("sim", "run_experiment", "sim.run_experiment"),
    ("sim", "ToyPolicy.apply_gradient", "sim.apply_gradient"),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in LAYER_CALLS))

# Work counters filled from results: attribute -> (counter, result -> increment).
COUNTED = {
    "build_process_tree": ("nodes", lambda tree: len(tree.nodes)),
    "group_metrics": ("trivial_groups", lambda metrics: int(metrics.trivial)),
    "reward_stats": ("degenerate_groups", lambda stats: int(stats.degenerate)),
}

MODULES = ("core", "tree", "rewards", "objectives", "metrics", "io", "verify", "sim", "cli")


def instrument(tracer: Tracer) -> dict[str, int]:
    """Wrap every listed layer call; returns the counters the wrappers fill."""
    import importlib

    modules = {name: importlib.import_module(f"steptree.{name}") for name in MODULES}
    counters = {"groups": 0, "nodes": 0, "trivial_groups": 0, "degenerate_groups": 0}

    def counting(func, counter, measure):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            counters[counter] += measure(result)
            return result

        return counted

    def counting_iter(func, counter):
        def counted(*args, **kwargs):
            for item in func(*args, **kwargs):
                counters[counter] += 1
                yield item

        return counted

    for home, attr, span in LAYER_CALLS:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(modules[home], cls_name)
            setattr(cls, method, tracer.wrap(span, getattr(cls, method)))
            continue
        original = getattr(modules[home], attr)
        if attr == "iter_groups":
            wrapped = tracer.wrap_iter(span, counting_iter(original, "groups"))
        elif attr in COUNTED:
            wrapped = tracer.wrap(span, counting(original, *COUNTED[attr]))
        else:
            wrapped = tracer.wrap(span, original)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
    return counters


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    counters = instrument(tracer)
    from steptree import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"layers": self_times(tracer.spans), "counters": counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
