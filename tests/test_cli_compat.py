"""The documented command lines keep parsing.

Every ``python -m repro ...`` invocation in the CI workflow and the
README is fed to :func:`build_parser`; dropping or renaming a flag they
use fails here.  The ``serve``/``scale`` flags are checked against the
config fields they set.
"""

import re
import shlex
from pathlib import Path

import pytest

import repro
from repro.__main__ import _config_fields, build_parser
from repro.workloads import ScaleConfig, ServeConfig

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"
README = ROOT / "README.md"

#: ``python -m repro`` (not ``repro.obs.schema``) and its arguments, up to
#: the end of the shell command, an inline-code backtick or a comment.
_INVOCATION = re.compile(r"python -m repro\s+([^;|&#>`\n]*)")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def ci_commands():
    """Every ``run:`` shell line of the workflow: inline, folded (``>``,
    joined into one line) or literal (``|``, one command per line)."""
    lines = CI.read_text().splitlines()
    commands = []
    index = 0
    while index < len(lines):
        match = re.match(r"^(\s*)(?:- )?run: ?(.*)$", lines[index])
        index += 1
        if match is None:
            continue
        indent, rest = len(match.group(1)), match.group(2).strip()
        if rest not in (">", "|"):
            commands.append(rest)
            continue
        block = []
        while index < len(lines) and (
            not lines[index].strip() or _indent(lines[index]) > indent
        ):
            block.append(lines[index].strip())
            index += 1
        block = [line for line in block if line]
        commands.extend([" ".join(block)] if rest == ">" else block)
    return commands


def invocations(texts):
    return [
        match.group(1).strip()
        for text in texts
        for match in _INVOCATION.finditer(text)
    ]


CI_INVOCATIONS = invocations(ci_commands())
README_INVOCATIONS = invocations(README.read_text().splitlines())


def test_sources_are_found():
    assert any(line.startswith("serve ") for line in CI_INVOCATIONS)
    assert any(line.startswith("scale ") for line in CI_INVOCATIONS)
    assert any(line.startswith("dst ") for line in CI_INVOCATIONS)
    assert any(line.startswith("serve") for line in README_INVOCATIONS)
    assert any(line.startswith("trace ") for line in README_INVOCATIONS)


@pytest.mark.parametrize(
    "command",
    sorted(set(CI_INVOCATIONS + README_INVOCATIONS)),
)
def test_documented_command_parses(command):
    try:
        build_parser().parse_args(shlex.split(command))
    except SystemExit:
        pytest.fail(f"python -m repro {command!r} no longer parses")


def parse(*argv):
    return build_parser().parse_args(list(argv))


class TestWorkloadFlags:
    def test_serve_flags_set_serve_config(self):
        args = parse(
            "serve",
            "--nodes", "5",
            "--objects", "20",
            "--requests", "64",
            "--rps", "2.5",
            "--zipf", "1.3",
            "--tenants", "2",
            "--diurnal-amplitude", "0.25",
            "--diurnal-period", "60",
            "--flash-crowds", "0",
            "--policy", "hint",
            "--hint-objects", "4",
            "--batch-jobs", "3",
            "--seed", "9",
        )  # fmt: skip
        assert ServeConfig(**_config_fields(args)) == ServeConfig(
            num_nodes=5,
            num_objects=20,
            num_requests=64,
            base_rps=2.5,
            zipf_s=1.3,
            num_tenants=2,
            diurnal_amplitude=0.25,
            diurnal_period=60.0,
            flash_crowds=0,
            policy="hint",
            hint_objects=4,
            batch_jobs=3,
            seed=9,
        )

    def test_unset_serve_flags_keep_config_defaults(self):
        assert ServeConfig(**_config_fields(parse("serve"))) == ServeConfig()

    def test_scale_flags_set_scale_config(self):
        args = parse(
            "scale",
            "--nodes", "200",
            "--jobs", "2000",
            "--interarrival", "0.25",
            "--max-blocks", "16",
            "--seed", "1",
        )  # fmt: skip
        assert ScaleConfig(**_config_fields(args)) == ScaleConfig(
            num_nodes=200,
            num_jobs=2000,
            mean_interarrival=0.25,
            max_blocks_per_job=16,
            seed=1,
        )

    def test_unset_scale_flags_keep_config_defaults(self):
        config = ScaleConfig(**_config_fields(parse("scale")))
        assert config == ScaleConfig()
        assert config.ignem is True

    def test_no_ignem_clears_ignem(self):
        config = ScaleConfig(**_config_fields(parse("scale", "--no-ignem")))
        assert config.ignem is False

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            parse("serve", "--policy", "oracle")


def test_serving_symbols_exported():
    for symbol in ("ServeConfig", "HeatConfig", "HeatEstimator"):
        assert symbol in repro.__all__
        assert hasattr(repro, symbol)
