"""The four benchmark workloads: which CLI invocations one iteration makes,
how the benchmark seed reaches them, and the counts that pin each one down.

Every workload runs single-process and serially. The benchmark seed is
never handed to the program as is: each seeded command receives its own
CLI default seed plus the benchmark seed, so benchmark seed 0 reproduces the
CLI defaults, which is the reference seed whose outputs are stored under
``bench/reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

REFERENCE_SEED = 0

# CLI default seeds of the commands whose output depends on the seed.
# fig6 takes no seed and validate is kept at its default so that both stay
# comparable byte for byte at every benchmark seed.
CLI_DEFAULT_SEEDS = {"fig2": 7, "fig4": 12345, "fig5": 12345}

COINCIDENCE_CONFIG = "ensemble = coincidence\n"

# Sizes the working sets below are computed from; they restate CLI
# defaults and the workload flags.
_DETUNINGS = 121
_LIOUVILLIAN_DIM = 4 * (3 + 1) ** 2  # vec(rho) length at Fock cutoff 3
_FIG4_TRAJECTORIES = 10_000
_FIG4_TIMES = 34 * 2 + 1  # 34 us window at 0.5 us steps
_SAMPLER_BATCH = 5_000
_SAMPLER_CLICKS = 358  # k_max for 7.6e5 /s over 2 * 50 um / 0.3 m/s
_COMPLEX_BYTES = 16
_FLOAT_BYTES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[tuple[str, ...], ...]  # CLI argv of each invocation, in order
    config: str | None = None  # body of the file passed as --config
    # Counts the traced run must reproduce exactly; a drift means the
    # workload changed, not that it got faster.
    exact_counts: dict[str, int] = field(default_factory=dict)
    working_set_bytes: dict[str, int] = field(default_factory=dict)

    def invocations(self, seed: int, out_dir: str, config_path: str | None) -> list[list[str]]:
        """The argv of every CLI invocation of one iteration."""
        out = []
        for step in self.steps:
            argv = [arg if arg != "@config" else str(config_path) for arg in step]
            command = argv[0]
            if command in CLI_DEFAULT_SEEDS:
                argv += ["--seed", str(cli_seed(command, seed))]
            out.append(argv + ["--out", out_dir])
        return out


def cli_seed(command: str, seed: int) -> int:
    """Seed passed to ``command`` for benchmark seed ``seed``."""
    return (CLI_DEFAULT_SEEDS[command] + seed) % 2**31


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lineshape",
            why="fig2 at 20 positions x 121 detunings x 3 powers: 7,260 dense "
            "64x64 complex steady-state solves, nearly all time in lindblad",
            steps=(("fig2", "--samples", "20"),),
            exact_counts={"lindblad.liouvillian_calls": 60},
            working_set_bytes={
                "liouvillian_stack": _DETUNINGS * _LIOUVILLIAN_DIM**2 * _COMPLEX_BYTES,
            },
        ),
        Workload(
            name="ensemble",
            why="fig4 threshold ensemble of 1e4 trajectories then fig5: montecarlo "
            "averaging and optics.t_minus_value dominate, lindblad idle",
            steps=(("fig4",), ("fig5",)),
            exact_counts={"optics.t_minus_value_elements": 169_194_242},
            working_set_bytes={
                "fig4_t_array": _FIG4_TRAJECTORIES * _FIG4_TIMES * _COMPLEX_BYTES,
            },
        ),
        Workload(
            name="coincidence",
            why="fig4 with the Poisson-thinning coincidence sampler on 1e4 atoms: "
            "sampling as heavy as averaging; the only --config workload",
            steps=(("fig4", "--config", "@config"),),
            config=COINCIDENCE_CONFIG,
            working_set_bytes={
                "sampler_array": _SAMPLER_BATCH * _SAMPLER_CLICKS * _FLOAT_BYTES,
                "fig4_t_array": _FIG4_TRAJECTORIES * _FIG4_TIMES * _COMPLEX_BYTES,
            },
        ),
        Workload(
            name="design",
            why="fig6 design scans then validate: short scans and single-point "
            "solves, so start-up, config handling and file writing weigh most",
            steps=(("fig6",), ("validate",)),
            exact_counts={"scans.max_rotation_calls": 68},
            working_set_bytes={
                "cutoff4_liouvillian": (4 * (4 + 1) ** 2) ** 2 * _COMPLEX_BYTES,
            },
        ),
    )
}
