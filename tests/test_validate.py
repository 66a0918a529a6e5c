"""validate's randomized checks: array deviations against the per-draw loop.

Each check takes the columns of a block of random draws as arrays and
returns one deviation per draw. The scalar functions below evaluate the same
identities one draw at a time, as validate did before it took arrays; they
are the oracle, and every per-draw value must lie within a few ulps of 1
of theirs.
"""

import contextlib
import copy
import io
import math
import tracemalloc

import numpy as np
import pytest

from spinfaraday import cli
from spinfaraday.cli import DRAW_BLOCK, main
from spinfaraday.measurement import conditional_population, detection_prob_down


def scalar_kraus(theta, phi):
    return np.diag([math.cos(phi), math.cos(phi - theta)]).astype(complex)


def scalar_completeness(theta, phi, basis):
    ops = scalar_kraus(theta, phi), scalar_kraus(theta, phi + math.pi / 2.0)
    return np.max(np.abs(sum(op.conj().T @ op for op in ops) - np.eye(2)))


def scalar_reversal(theta, phi, basis):
    product = scalar_kraus(-theta, basis - theta) @ scalar_kraus(theta, basis)
    return np.max(np.abs(product - math.cos(basis) * math.cos(basis - theta) * np.eye(2)))


def scalar_bayes_total(prior, phi, phase):
    t = complex(np.exp(1j * phase))
    p_down, click = conditional_population(prior, np.array([phi, phi + math.pi / 2.0]), t)
    return abs(np.sum(p_down * click) - prior)


def scalar_port_sum(phi, magnitude, phase):
    t = complex(magnitude * np.exp(1j * phase))
    total = detection_prob_down(phi, t) + detection_prob_down(phi + math.pi / 2.0, t)
    return abs(float(total) - (1.0 + abs(t) ** 2) / 2.0)


ORACLE = {
    "Kraus completeness": scalar_completeness,
    "measurement reversal proportional to identity": scalar_reversal,
    "Bayes total probability (lossless)": scalar_bayes_total,
    "two-port click probability sum": scalar_port_sum,
}


def run_validate(tmp_path, seed, draws):
    """Run validate with its report silenced, returning the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["validate", "--seed", str(seed), "--samples", str(draws),
                     "--out", str(tmp_path / f"{seed}-{draws}")])


@pytest.mark.parametrize(
    "seed, draws",
    [(seed, draws) for seed in (0, 1, 2, 3, 12345) for draws in (300, 2000)]
    + [(7, 3 * DRAW_BLOCK + 17)],
)
def test_deviations_match_the_per_draw_loop_within_4_eps(tmp_path, monkeypatch, seed, draws):
    # Replay each check's draws from a copy of validate's own generator, so
    # the oracle sees validate's ranges, order and random stream. Over seeds
    # {0, 1, 2, 3, 7, 12345} x {300, 2000, 12305} draws the array port sum
    # differs from the scalar one by at most 1 eps (2.2e-16), and by 3 eps
    # when detection_prob_down multiplies a plain complex t_minus; the other
    # three checks agree exactly.
    original = cli._draw_checks
    recorded = []

    def recording(rng, draws, low, high, identities):
        samples = copy.deepcopy(rng).uniform(low, high, size=(draws, len(low)))
        recorded.append((samples, identities))
        return original(rng, draws, low, high, identities)

    monkeypatch.setattr(cli, "_draw_checks", recording)
    assert run_validate(tmp_path, seed, draws) == 0
    checked = []
    for samples, identities in recorded:
        for name, deviation in identities:
            blocks = [samples[i:i + DRAW_BLOCK].T for i in range(0, draws, DRAW_BLOCK)]
            values = np.concatenate([deviation(*block) for block in blocks])
            expected = np.array([ORACLE[name](*row) for row in samples])
            assert values.dtype == expected.dtype, name
            assert np.max(np.abs(values - expected)) <= 4 * np.finfo(float).eps, name
            checked.append(name)
    assert checked == list(ORACLE)


def test_kraus_calls_grow_with_blocks_not_draws(tmp_path, monkeypatch):
    original = cli.kraus
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "kraus", counted)
    counts = []
    for draws in (300, 2000, 2 * DRAW_BLOCK + 17):
        calls.clear()
        assert run_validate(tmp_path, 12345, draws) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert counts[2] == 3 * counts[0]


def traced_peak(tmp_path, draws):
    tracemalloc.start()
    try:
        rc = run_validate(tmp_path, 12345, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def test_memory_stays_below_the_per_draw_loop(tmp_path):
    # The per-draw loop peaked at 6.15 MiB, holding a Python float per draw.
    run_validate(tmp_path, 12345, 300)  # first-call imports and caches
    assert traced_peak(tmp_path, 100_000) < 6.15 * 2**20


def test_memory_does_not_grow_with_draws(tmp_path):
    # Draws are made DRAW_BLOCK rows at a time, so ten times the draws holds
    # no more memory.
    run_validate(tmp_path, 12345, 300)  # first-call imports and caches
    assert traced_peak(tmp_path, 200_000) < 1.2 * traced_peak(tmp_path, 20_000)
