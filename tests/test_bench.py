import dataclasses
import hashlib
import io
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mudet import airlink, bench, numkit
from mudet import detectors as det
from mudet.cli import main as cli_main
from mudet.errors import ConfigError, ConfigParseError, ConfigValidationError

from conftest import crandn, csv_bytes, every_vector, exhaustive_search


# --- config parsing -------------------------------------------------------------


def test_empty_config_gives_desk_defaults():
    cfg = bench.parse_config("")
    assert (cfg.n_rx, cfg.n_users, cfg.constellation) == (16, 4, "qam16")
    assert cfg.sr_params.k == 16 and cfg.sr_params.s == 4


def test_comments_and_blank_lines():
    cfg = bench.parse_config("# full comment\n\nn_rx = 32  # trailing\n")
    assert cfg.n_rx == 32


# SNR ranges with a non-finite bound or step, or with more points than
# bench.MAX_SNR_POINTS (1e308:1.7e308:1e-300 overflows the point count)
BAD_SNR_RANGES = ["0:inf:1", "-inf:0:1", "1e308:1.7e308:1e-300", "0:1e300:1", "0:10000:1"]


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigParseError) as err:
        bench.parse_config("n_rx = 8\nnot a pair\n")
    assert err.value.line_no == 2
    with pytest.raises(ConfigParseError) as err:
        bench.parse_config("\n\nn_rx = abc\n")
    assert err.value.line_no == 3
    for spec in BAD_SNR_RANGES:
        with pytest.raises(ConfigParseError) as err:
            bench.parse_config(f"n_rx = 8\nsnr_db = {spec}\n")
        assert err.value.line_no == 2


# configs that would otherwise pass validation and abort the first trial (or,
# naming a detector twice, run each of its cells twice)
OUT_OF_RANGE_CONFIGS = [
    ("detectors = mrc,mmse-irc,mrc\n", "detectors"),
    ("n_interferers = 1\ninterferer_power_ratio = nan\n", "interferer_power_ratio"),
    ("n_interferers = 1\ninterferer_power_ratio = inf\n", "interferer_power_ratio"),
    ("n_interferers = 1\ninterferer_power_ratio = 1e20\nsnr_db = 10\n", "interferer_power_ratio"),
    ("n_interferers = 1\ninterferer_power_ratio = 1e300\nsnr_db = 10\n", "interferer_power_ratio"),
    ("snr_db = nan\n", "snr_db"),
    ("snr_db = 4,-inf\n", "snr_db"),
    ("snr_db = -4000\n", "snr_db"),
    ("snr_db = -3076\n", "snr_db"),
    ("snr_db = -3070\n", "snr_db"),
    ("master_seed = -1\n", "master_seed"),
    (f"master_seed = {2**64}\n", "master_seed"),
]


def test_validation_error_names_key():
    with pytest.raises(ConfigValidationError) as err:
        bench.parse_config("sr.k=16\nsr.s=20\n")
    assert err.value.key == "sr"
    with pytest.raises(ConfigValidationError) as err:
        bench.parse_config("detectors = mmse-irc,zf")
    assert err.value.key == "detectors"
    with pytest.raises(ConfigValidationError) as err:
        bench.parse_config("bogus_key = 1")
    assert err.value.key == "bogus_key"
    for text, key in OUT_OF_RANGE_CONFIGS:
        with pytest.raises(ConfigValidationError) as err:
            bench.parse_config(text)
        assert err.value.key == key


def test_config_validates_when_built():
    # a config is checked at construction, and so is every replace() of one
    with pytest.raises(ConfigValidationError) as err:
        bench.ScenarioConfig(n_rx=2, n_users=4)
    assert err.value.key == "n_users"
    with pytest.raises(ConfigValidationError) as err:
        dataclasses.replace(bench.ScenarioConfig(), trials_per_point=0)
    assert err.value.key == "trials_per_point"


def test_config_equality():
    assert bench.parse_config("") == bench.ScenarioConfig()
    assert hash(bench.parse_config("")) == hash(bench.ScenarioConfig())
    assert bench.parse_config("n_rx = 8\n") != bench.ScenarioConfig()
    other_p = bench.parse_config("sr.p = 1,2,1,1,1,1,1,1,1,1,1,0,0,0,0,0\n")
    assert other_p != bench.ScenarioConfig()
    assert other_p.sr_params != bench.ScenarioConfig().sr_params


@pytest.mark.parametrize(
    "extra", ["", "coded = true\nce_mode = ls_pilot\n"], ids=["uncoded", "coded"]
)
def test_lowest_accepted_snr_runs_every_detector(extra):
    # the suite turns numpy's RuntimeWarnings into errors, so an overflow
    # anywhere in the trial fails this test
    lowest = -10.0 * math.log10(bench.MAX_NOISE_POWER / 2)
    text = (
        "n_rx = 4\nn_users = 2\nn_interferers = 1\nrx_correlation = 0.5\n"
        f"detectors = {','.join(bench.DETECTOR_NAMES)}\n"
        "trials_per_point = 1\nsymbols_per_trial = 2\n" + extra
    )
    with pytest.raises(ConfigValidationError):
        bench.parse_config(text + f"snr_db = {lowest - 0.01!r}\n")
    cfg = bench.parse_config(text + f"snr_db = {lowest!r}\n")
    records = bench.run_scenario(cfg)
    assert [r.detector for r in records] == list(bench.DETECTOR_NAMES)
    assert all(0 <= r.bit_errors <= r.bits for r in records)


@pytest.mark.parametrize(
    "extra",
    ["", "snr_db = inf\n", "coded = true\nce_mode = ls_pilot\n"],
    ids=["uncoded", "noiseless", "coded"],
)
def test_largest_accepted_interferer_power_runs_every_detector(extra):
    # run under the suite's RuntimeWarning-as-error filter, as above
    text = (
        "n_rx = 4\nn_users = 2\nn_interferers = 1\nrx_correlation = 0.5\nsnr_db = 10\n"
        f"detectors = {','.join(bench.DETECTOR_NAMES)}\n"
        "trials_per_point = 3\nsymbols_per_trial = 2\n" + extra
    )
    largest = bench.parse_config(text).max_interferer_power()
    with pytest.raises(ConfigValidationError) as err:
        bench.parse_config(text + f"interferer_power_ratio = {largest * 1.001!r}\n")
    assert err.value.key == "interferer_power_ratio"
    cfg = bench.parse_config(text + f"interferer_power_ratio = {largest!r}\n")
    records = bench.run_scenario(cfg)
    assert [r.detector for r in records] == list(bench.DETECTOR_NAMES)
    assert all(0 <= r.bit_errors <= r.bits for r in records)


@pytest.mark.parametrize("n_rx", [16, 64])
def test_noise_free_scenario_runs_with_strong_interferers(n_rx):
    # the detectors' noise floor follows the interferer power, so a
    # noise-free scenario takes interferers far above the users; the
    # interference-rejecting detectors stay exact, and the others (which
    # treat interference as white noise) only have to run
    text = (
        f"n_rx = {n_rx}\nn_users = 4\nn_interferers = 2\ninterferer_power_ratio = 1e3\n"
        "snr_db = inf\ntrials_per_point = 3\nsymbols_per_trial = 10\n"
    )
    cfg = bench.parse_config(text)
    assert cfg.noise_floor() == n_rx * 1e3 / bench.MAX_ARRAY_INR
    for rec in bench.run_scenario(cfg):
        assert 0 <= rec.bit_errors <= rec.bits
        if rec.detector in ("mmse-irc", "robust-sr-kbest"):
            assert rec.bit_errors == 0, rec.detector


def test_noise_floor_moves_no_finite_snr_and_no_interferer_free_scenario():
    # without interferers the floor is NOISELESS_FLOOR at any ratio; with
    # them, up to the largest accepted ratio it stays at or below every
    # finite SNR's floored noise power, so those records do not move
    for snr in ("inf", "10", "150", "4,10,inf"):
        cfg = bench.parse_config(f"snr_db = {snr}\ninterferer_power_ratio = 1e9\n")
        assert cfg.noise_floor() == bench.NOISELESS_FLOOR
        text = f"n_interferers = 2\nsnr_db = {snr}\n"
        largest = bench.parse_config(text).max_interferer_power()
        cfg = bench.parse_config(text + f"interferer_power_ratio = {largest!r}\n")
        for s in cfg.snr_grid_db:
            noise = max(bench.snr_to_noise_power(s, cfg.n_users), bench.NOISELESS_FLOOR)
            assert s == math.inf or cfg.noise_floor() <= noise


@pytest.mark.parametrize("key", ["kbest.expand", "llr_clip"])
def test_kbest_expand_and_llr_clip_are_unknown_keys(key):
    # plain K-best expands every constellation point, and the decoder input
    # is clipped at the constant bench.LLR_CLIP
    with pytest.raises(ConfigValidationError) as err:
        bench.parse_config(f"{key} = 4\n")
    assert err.value.key == key
    assert len(bench._KEYS) == 21


def test_large_array_config_accepted():
    cfg = bench.parse_config(
        "n_rx = 64\nn_users = 16\nn_interferers = 4\nconstellation = qam16\n"
    )
    assert (cfg.n_rx, cfg.n_users, cfg.n_interferers) == (64, 16, 4)


@pytest.mark.parametrize(
    "kind, n_users, accepted",
    [("qam16", 16, False), ("qam16", 4, True), ("qpsk", 8, True), ("qpsk", 9, False)],
)
def test_ml_rejected_at_infeasible_scale(kind, n_users, accepted):
    # ml may search at most bench.ML_GUARD = 4**8 = 16**4 symbol vectors
    text = f"n_rx = 64\nn_users = {n_users}\nconstellation = {kind}\ndetectors = ml\n"
    if accepted:
        assert bench.parse_config(text).detectors == ("ml",)
    else:
        with pytest.raises(ConfigValidationError):
            bench.parse_config(text)


def test_snr_spec_forms():
    assert bench.parse_snr_spec("0:8:2") == (0.0, 2.0, 4.0, 6.0, 8.0)
    assert bench.parse_snr_spec("5,3,1") == (1.0, 3.0, 5.0)
    with pytest.raises(ValueError):
        bench.parse_snr_spec("5:1:2")
    with pytest.raises(ValueError):
        bench.parse_snr_spec("1:2")
    for spec in BAD_SNR_RANGES:
        with pytest.raises(ValueError):
            bench.parse_snr_spec(spec)
    assert len(bench.parse_snr_spec(f"0:{bench.MAX_SNR_POINTS - 1}:1")) == bench.MAX_SNR_POINTS


def test_qpsk_alone_runs_with_default_search_widths():
    cfg = bench.parse_config("constellation = qpsk\n")
    assert cfg.constellation == "qpsk"
    tiny = dataclasses.replace(
        cfg, snr_grid_db=(10.0,), trials_per_point=2, symbols_per_trial=3
    )
    records = bench.run_scenario(tiny)
    assert [r.detector for r in records] == list(cfg.detectors)
    assert all(r.bits == 2 * 3 * 4 * 2 for r in records)


def test_sr_schedule_without_pool_from_config():
    # s = 0 needs an empty q, written as a key with no value
    cfg = bench.parse_config(
        "sr.k = 4\nsr.s = 0\nsr.p = 1,1,1,1\nsr.v = 0,0,0,0\nsr.q =\n"
        "snr_db = 10\ntrials_per_point = 2\nsymbols_per_trial = 3\ndetectors = sr-kbest\n"
    )
    assert cfg.sr_params.s == 0 and cfg.sr_params.q == ()
    (rec,) = bench.run_scenario(cfg)
    assert rec.bits == 2 * 3 * 4 * 4
    with pytest.raises(ConfigParseError):
        bench.parse_config("n_rx =\n")


def test_noiseless_is_an_unknown_key():
    # snr_db = inf is the noise-free scenario
    with pytest.raises(ConfigValidationError) as err:
        bench.parse_config("noiseless = true\n")
    assert err.value.key == "noiseless"
    assert bench.parse_config("snr_db = inf\n").snr_grid_db == (math.inf,)


def test_bool_values():
    assert bench.parse_config("coded = true").coded
    assert not bench.parse_config("coded = off").coded
    with pytest.raises(ConfigParseError):
        bench.parse_config("coded = maybe")


# --- stream derivation ------------------------------------------------------------


def test_trial_stream_reproducible_and_distinct():
    a = bench.trial_stream(1, 0, 0, 0).standard_normal(4)
    b = bench.trial_stream(1, 0, 0, 0).standard_normal(4)
    assert np.array_equal(a, b)
    # paired: every detector of a cell draws the cell's stream
    for det_index in range(len(bench.DETECTOR_NAMES)):
        assert np.array_equal(a, bench.trial_stream(1, det_index, 0, 0).standard_normal(4))
    for other in [(1, 0, 1, 0), (1, 0, 0, 1), (2, 0, 0, 0)]:
        c = bench.trial_stream(*other).standard_normal(4)
        assert not np.array_equal(a, c)


def _shares_a_window(a, b, width=8):
    """Whether two raw output sequences have a run of ``width`` in common."""
    wa = np.lib.stride_tricks.sliding_window_view(a, width)
    wb = np.lib.stride_tricks.sliding_window_view(b, width)
    return len(np.unique(np.concatenate((wa, wb)), axis=0)) < len(wa) + len(wb)


@pytest.mark.parametrize(
    "cell, neighbour",
    [((1, 0, 0), (1, 0, 1)), ((7, 2, 5), (7, 2, 6)), ((1, 0, 0), (1, 1, 0)),
     ((7, 2, 5), (7, 3, 5))],
    ids=["trial-0-1", "trial-5-6", "snr-0-1", "snr-2-3"],
)
def test_adjacent_cells_streams_do_not_overlap(cell, neighbour):
    # Philox advances counter word 0 once per four outputs, so a trial index
    # in word 0 would make trial t + 1's stream trial t's shifted by four
    n = 10**5
    raw = [bench.trial_stream(seed, 0, snr, trial).bit_generator.random_raw(n)
           for seed, snr, trial in (cell, neighbour)]
    assert not _shares_a_window(*raw)
    # the check itself sees a shifted copy
    assert _shares_a_window(raw[0][4:], raw[0][:-4])


def test_every_detector_of_a_cell_reads_the_same_channel(monkeypatch):
    # each trial's channel matrix and received block, in the order run
    seen = []
    draw, send = bench.generate_channel, bench.apply_channel

    def generate_channel(*args):
        real = draw(*args)
        seen.append([real.h])
        return real

    def apply_channel(*args):
        y = send(*args)
        seen[-1].append(y)
        return y

    monkeypatch.setattr(bench, "generate_channel", generate_channel)
    monkeypatch.setattr(bench, "apply_channel", apply_channel)
    cfg = bench.parse_config(
        "n_interferers = 1\nce_mode = ls_pilot\nsnr_db = 4,8\ntrials_per_point = 3\n"
        "symbols_per_trial = 4\ndetectors = mrc,osic,robust-sr-kbest,ml\n"
    )
    bench.run_scenario(cfg)
    cells = len(cfg.snr_grid_db) * cfg.trials_per_point
    assert len(seen) == len(cfg.detectors) * cells
    assert all(len(trial) == 2 for trial in seen)
    # run_scenario runs detector by detector, then SNR, then trial
    for cell in range(cells):
        for other in seen[cell + cells :: cells]:
            assert all(np.array_equal(a, b) for a, b in zip(seen[cell], other))
    assert not np.array_equal(seen[0][0], seen[1][0])



def _philox_state(gen):
    state = gen.bit_generator.state
    arrays = (state["state"]["key"], state["state"]["counter"], state["buffer"])
    rest = (state["bit_generator"], state["buffer_pos"], state["has_uint32"], state["uinteger"])
    return tuple(a.tolist() for a in arrays) + rest


def test_trial_stream_is_the_keyed_philox_stream():
    cases = [
        (0, 0, 0, 0), (1, 5, 2, 39), (7, 6, 13, 2**40), (2**64 - 1, 3, 1, 7),
        (2**64 - 1, 0, 0, 2**64 - 1),
    ]
    for seed, det_index, snr_index, trial in cases:
        keyed = np.random.Generator(np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64),
            counter=np.array([0, trial, snr_index, 0], dtype=np.uint64),
        ))
        stream = bench.trial_stream(seed, det_index, snr_index, trial)
        assert _philox_state(stream) == _philox_state(keyed)
        assert np.array_equal(stream.standard_normal(9), keyed.standard_normal(9))
        assert np.array_equal(stream.integers(0, 2**63, 5), keyed.integers(0, 2**63, 5))


def test_trial_streams_share_no_bit_generator():
    alone = [bench.trial_stream(3, 1, 0, t).standard_normal(12) for t in (0, 1)]
    a, b = bench.trial_stream(3, 1, 0, 0), bench.trial_stream(3, 1, 0, 1)
    assert a.bit_generator is not b.bit_generator
    drawn = [[], []]
    for _ in range(4):  # alternately, three draws at a time
        drawn[0].append(a.standard_normal(3))
        drawn[1].append(b.standard_normal(3))
    assert np.array_equal(np.concatenate(drawn[0]), alone[0])
    assert np.array_equal(np.concatenate(drawn[1]), alone[1])


# --- scenario engine ---------------------------------------------------------------


NOISELESS_ALL = """
n_rx = 8
n_users = 2
snr_db = inf
trials_per_point = 2
symbols_per_trial = 5
detectors = mrc,mmse-irc,osic,kbest,sr-kbest,robust-sr-kbest,ml
"""


# One antenna, one user, LS estimates: with no noise and no interferers
# every covariance residual can be exactly 0, so the covariance loading
# must be floored at the detectors' noise floor.
NOISELESS_LS_PILOT_1X1 = """
n_rx = 1
n_users = 1
ce_mode = ls_pilot
snr_db = inf
trials_per_point = 20
symbols_per_trial = 2
detectors = mrc,mmse-irc,osic,kbest,sr-kbest,robust-sr-kbest,ml
"""


def test_noiseless_trials_are_error_free():
    for text in (NOISELESS_ALL, NOISELESS_LS_PILOT_1X1):
        records = bench.run_scenario(bench.parse_config(text))
        assert len(records) == 7
        for rec in records:
            assert rec.ber == 0.0 and rec.bit_errors == 0


def test_uncoded_bit_conservation():
    cfg = bench.parse_config(
        "snr_db = 6\ntrials_per_point = 3\nsymbols_per_trial = 7\ndetectors = mmse-irc\n"
    )
    (rec,) = bench.run_scenario(cfg)
    assert rec.bits == 3 * 7 * 4 * 4  # trials * symbols * users * bits/symbol
    assert rec.ber == rec.bit_errors / rec.bits


def test_coded_bit_conservation():
    cfg = bench.parse_config(
        "snr_db = 12\ntrials_per_point = 4\ncoded = true\ndetectors = mmse-irc\n"
    )
    (rec,) = bench.run_scenario(cfg)
    assert rec.bits == 4 * 144
    assert rec.coded is True


def test_run_determinism_byte_identical():
    cfg = bench.parse_config(
        "snr_db = 4,8\ntrials_per_point = 3\nsymbols_per_trial = 4\n"
        "n_interferers = 1\ndetectors = mmse-irc,sr-kbest\nce_mode = ls_pilot\n"
    )
    a = csv_bytes(bench.run_scenario(cfg))
    b = csv_bytes(bench.run_scenario(cfg))
    assert a == b


# Edge scenarios: tiny and square arrays, interferers beyond the degrees of
# freedom, correlation near 1, one or two covariance samples, extreme SNR.
# Every array shape, interferer count, CE mode and SNR meets every other;
# correlation, constellation and coding take turns. The 1 x 1 noise-free
# LS-pilot scenarios, whose covariance residuals can all be 0, run in every
# combination.
EDGE_SHAPES = [(1, 1), (2, 2), (3, 3), (4, 1)]
EDGE_CE = [("ideal", 168), ("ls_pilot", 1), ("ls_pilot", 2)]
EDGE_SNRS = [-20.0, 60.0, math.inf]
EDGE_TURNS = list(itertools.product([0.0, 0.999999], ["qpsk", "qam16"], [False, True]))


def _edge_scenarios():
    grid = itertools.product(EDGE_SHAPES, [0, 1, 5], EDGE_CE, EDGE_SNRS)
    for i, (shape, n_int, ce, snr) in enumerate(grid):
        yield shape, n_int, ce, snr, EDGE_TURNS[i % len(EDGE_TURNS)]
    for ce, turn in itertools.product(EDGE_CE[1:], EDGE_TURNS):
        yield (1, 1), 0, ce, math.inf, turn


def test_edge_scenarios_run_or_raise_config_error():
    failed = []
    for (n_rx, n_users), n_int, (ce_mode, samples), snr, (rho, kind, coded) in _edge_scenarios():
        params = dict(
            n_rx=n_rx, n_users=n_users, n_interferers=n_int, rx_correlation=rho,
            ce_mode=ce_mode, covariance_samples=samples, snr_grid_db=(snr,),
            constellation=kind, coded=coded,
        )
        try:
            records = bench.run_scenario(bench.ScenarioConfig(
                trials_per_point=2, symbols_per_trial=3, detectors=bench.DETECTOR_NAMES, **params
            ))
        except ConfigError:
            continue
        except Exception as exc:  # every other escape is a failure
            failed.append(f"{params}: {exc!r}")
            continue
        failed += [f"{params}: ber {rec.ber}" for rec in records if not 0 <= rec.ber <= 1]
    assert failed == []


def test_detector_subset_invariance():
    # removing detectors from the list must not change the draws of the rest
    base = "snr_db = 6\ntrials_per_point = 2\nsymbols_per_trial = 4\n"
    both = bench.run_scenario(bench.parse_config(base + "detectors = mrc,sr-kbest\n"))
    alone = bench.run_scenario(bench.parse_config(base + "detectors = sr-kbest\n"))
    rec_both = [r for r in both if r.detector == "sr-kbest"][0]
    assert bench.format_record(rec_both) == bench.format_record(alone[0])


# Frozen records of small scenarios that run every detector: SHA-256 of
# csv_bytes. All three were re-recorded when each (SNR, trial) cell got its
# own random stream, shared by the cell's detectors: with the trial index in
# Philox counter word 0, trial t + 1's stream was trial t's shifted by four
# outputs. Any change to a detector's arithmetic or tie rule that moves a
# decision or an LLR enough to flip a bit shows here.
GOLDEN_UNCODED = """
n_rx = 8
n_users = 3
n_interferers = 2
rx_correlation = 0.5
constellation = qam16
snr_db = 4,10
trials_per_point = 3
symbols_per_trial = 6
detectors = mrc,mmse-irc,osic,kbest,sr-kbest,robust-sr-kbest,ml
master_seed = 7
"""

# The zero-interferer draw path: no interferer symbols are drawn for the
# pilot, covariance or data slots.
GOLDEN_NO_INTERFERERS = """
n_rx = 8
n_users = 3
n_interferers = 0
rx_correlation = 0.5
constellation = qam16
ce_mode = ls_pilot
pilot_count = 4
covariance_samples = 24
snr_db = 4,10
trials_per_point = 3
symbols_per_trial = 6
detectors = mrc,mmse-irc,osic,kbest,sr-kbest,robust-sr-kbest,ml
master_seed = 7
"""

GOLDEN_CODED = """
n_rx = 8
n_users = 3
n_interferers = 2
rx_correlation = 0.5
constellation = qam16
ce_mode = ls_pilot
pilot_count = 4
covariance_samples = 24
coded = true
snr_db = 2,6
trials_per_point = 2
detectors = mrc,mmse-irc,osic,kbest,sr-kbest,robust-sr-kbest,ml
master_seed = 7
"""


@pytest.mark.parametrize(
    "text, digest",
    [
        (GOLDEN_UNCODED, "1d6ed68fc1bfa0ccff1c8e243aaec88c58016d28e10e50e2f82a497dde434716"),
        (GOLDEN_CODED, "571d7dde41a58ac7526c19829a82aa95da7bd340bdd6ee09794a7c04163774fc"),
        (GOLDEN_NO_INTERFERERS, "32297467882ad6df8ed60f81d68cd147fa2b271a16fd667204cbd25d17cf6e79"),
    ],
    ids=["uncoded", "coded-ls-pilot", "uncoded-no-interferers"],
)
def test_golden_records(text, digest):
    records = bench.run_scenario(bench.parse_config(text))
    assert hashlib.sha256(csv_bytes(records)).hexdigest() == digest


# The scenarios of the three benchmark workloads (perfbench/run.py), seed 1,
# with the sorted QRs each one factorizes.
_WORKLOAD_COMMON = """
n_rx = 16
n_users = 4
n_interferers = 2
rx_correlation = 0.5
interferer_power_ratio = 1.0
constellation = qam16
master_seed = 1
"""
WORKLOAD_SCENARIOS = {
    "uncoded-long": ("""
snr_db = 4,8,12
trials_per_point = 8
symbols_per_trial = 50
detectors = mmse-irc,osic,kbest,sr-kbest,robust-sr-kbest
""", 96),
    "uncoded-short": ("""
snr_db = 4,8,12
trials_per_point = 100
symbols_per_trial = 2
detectors = mrc,mmse-irc,osic,robust-sr-kbest
""", 600),
    "coded-lspilot": ("""
snr_db = 5,6,7
trials_per_point = 40
coded = true
ce_mode = ls_pilot
pilot_count = 8
covariance_samples = 168
detectors = mmse-irc,robust-sr-kbest
""", 120),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SCENARIOS))
def test_workload_sorted_qrs_take_the_gram_order(monkeypatch, workload):
    # the modified Gram-Schmidt fallback of numkit.sorted_qr is for
    # ill-conditioned and tied inputs; no benchmark matrix may need it
    calls = {"sorted_qr": 0, "fallback": 0}

    def counting(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(numkit, "_gram_order", counting("sorted_qr", numkit._gram_order))
    monkeypatch.setattr(numkit, "_sorted_mgs", counting("fallback", numkit._sorted_mgs))
    text, expected_calls = WORKLOAD_SCENARIOS[workload]
    bench.run_scenario(bench.parse_config(_WORKLOAD_COMMON + text))
    assert calls == {"sorted_qr": expected_calls, "fallback": 0}


def test_hard_only_uses_permute_the_best_candidate_like_the_whole_list(qam16):
    # each tree search's uncoded output is the best candidate of the list in
    # user order; ties, repeated sorted-QR norms and strided rows included
    rng = np.random.default_rng(61)
    cfg = bench.ScenarioConfig(n_rx=8, n_users=4)
    for trial in range(30):
        h = (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) / np.sqrt(2)
        if trial % 3 == 0:
            h = np.kron([[1.0], [1.0]], np.eye(4))  # every column norm tied
        g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        r_uu = g @ g.conj().T + 0.2 * np.eye(8)
        know = bench._TrialKnowledge(h_hat=h, r_uu=r_uu, sigma_det=0.2, sigma_i2=0.3)
        y = qam16.points[rng.integers(0, 16, (7, 4))] @ h.T + 0.3 * (
            rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8))
        )
        y[2] = 0.0
        y = np.asfortranarray(y) if trial % 2 else y
        rotate, sq = det.build_extended(h, know.sigma_det, know.sigma_i2)
        y_tilde = y @ rotate.T
        robust_rotate, robust = det.robust_plan(h, r_uu)
        lists = {
            "osic": (det.osic_detect(sq.r, y_tilde, qam16), sq.perm),
            "kbest": (det.kbest_detect(sq.r, y_tilde, cfg.kbest_k, qam16), sq.perm),
            "sr-kbest": (det.sr_kbest_detect(sq.r, y_tilde, cfg.sr_params, qam16), sq.perm),
            "robust-sr-kbest": (
                det.sr_kbest_detect(robust.r, y @ robust_rotate.T, cfg.sr_params, qam16),
                robust.perm,
            ),
        }
        for name, (cands, perm) in lists.items():
            hard = bench._detect_uses(cfg, name, qam16, know, y, coded=False)
            assert np.array_equal(hard, cands.permuted(perm).symbols[:, 0]), name


@pytest.mark.parametrize("name", ["osic", "kbest", "sr-kbest", "robust-sr-kbest", "ml"])
def test_tree_search_uses_validate_their_rows(qam16, name):
    # the plans take no received vectors: _detect_uses checks the rows
    # before it rotates them
    rng = np.random.default_rng(71)
    cfg = bench.ScenarioConfig(n_rx=8, n_users=4)
    h = (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) / np.sqrt(2)
    know = bench._TrialKnowledge(h_hat=h, r_uu=np.eye(8), sigma_det=0.2, sigma_i2=0.0)
    y = rng.standard_normal((3, 8)) + 0j
    with pytest.raises(ValueError, match="y_block must be 2-D, got ndim=1"):
        bench._detect_uses(cfg, name, qam16, know, y[0], coded=False)
    y[1, 5] = np.inf
    with pytest.raises(ValueError, match="y_block contains non-finite entries"):
        bench._detect_uses(cfg, name, qam16, know, y, coded=True)


def _exhaustive_logmap(h, y, sigma2, cons):
    """Log-MAP LLRs of every row of ``y`` over all symbol vectors, from the
    likelihood ``exp(-||y - H x||^2 / sigma2)``."""
    every = every_vector(cons, h.shape[1])
    bits = cons.bit_patterns[every].reshape(every.shape[0], -1)
    nll = np.sum(np.abs(y[:, None, :] - cons.points[every] @ h.T) ** 2, axis=-1) / sigma2
    weight = np.exp(nll.min(axis=1, keepdims=True) - nll)
    with np.errstate(divide="ignore"):
        llr = np.log(weight @ (1 - bits)) - np.log(weight @ bits)
    return np.clip(llr, -det.LLR_MAX, det.LLR_MAX)


@pytest.mark.parametrize("kind, k", [("qpsk", 16), ("qam16", 256)])
def test_coded_kbest_llrs_are_exhaustive_logmap(kind, k):
    # a list of every hypothesis gives exact log-MAP on the likelihood of
    # y = H x + noise of power sigma_det + sigma_i2; QPSK vectors all carry
    # the same energy, so only QAM16 shows the extended model's prior term
    cons = airlink.build_constellation(kind)
    rng = np.random.default_rng(63)
    cfg = bench.ScenarioConfig(n_rx=6, n_users=2, constellation=kind, kbest_k=k)
    for _ in range(5):
        h = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / np.sqrt(2)
        know = bench._TrialKnowledge(h_hat=h, r_uu=np.eye(6), sigma_det=0.5, sigma_i2=0.3)
        y = cons.points[rng.integers(0, cons.size, (9, 2))] @ h.T + 0.6 * (
            rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        )
        llr = bench._detect_uses(cfg, "kbest", cons, know, y, coded=True)
        ref = _exhaustive_logmap(h, y, 0.8, cons)
        assert np.max(np.abs(llr - ref)) <= 1e-9
        assert np.mean(np.abs(ref) < det.LLR_MAX) > 0.5  # most LLRs are soft


def test_ml_uses_are_exhaustive_over_row_chunks(qam16, monkeypatch):
    # 8 x 3 QAM16 has 4,096 hypotheses, so ml searches 16 rows at a time and
    # this 40-use block in three chunks. Coded, its LLRs are exact log-MAP
    # on the likelihood of y = H x + noise of power sigma_det + sigma_i2
    chunks = []

    def spy(*args, **kwargs):
        chunks.append(args[1].shape[0])
        return det.kbest_detect(*args, **kwargs)

    monkeypatch.setattr(bench, "kbest_detect", spy)
    rng = np.random.default_rng(2626)
    cfg = bench.ScenarioConfig(n_rx=8, n_users=3, detectors=("ml",))
    h = crandn(rng, 8, 3)
    know = bench._TrialKnowledge(h_hat=h, r_uu=np.eye(8), sigma_det=0.5, sigma_i2=0.3)
    y = qam16.points[rng.integers(0, 16, (40, 3))] @ h.T + 0.6 * crandn(rng, 40, 8)
    llr = bench._detect_uses(cfg, "ml", qam16, know, y, coded=True)
    assert chunks == [16, 16, 8]
    ref = _exhaustive_logmap(h, y, 0.8, qam16)
    assert np.max(np.abs(llr - ref)) <= 1e-9
    assert np.mean(np.abs(ref) < det.LLR_MAX) > 0.5  # most LLRs are soft
    chunks.clear()
    hard = bench._detect_uses(cfg, "ml", qam16, know, y, coded=False)
    assert chunks == [16, 16, 8]
    assert np.array_equal(hard, exhaustive_search(h, y, qam16)[0])


def test_coded_ml_memory_is_bounded(qam16):
    # 16 x 4 QAM16 lists all 65,536 hypotheses of each use; the 18 uses of a
    # coded trial searched as one block peaked at about 351 MB
    rng = np.random.default_rng(2627)
    cfg = bench.ScenarioConfig(detectors=("ml",))
    h = crandn(rng, 16, 4)
    know = bench._TrialKnowledge(h_hat=h, r_uu=np.eye(16), sigma_det=0.5, sigma_i2=0.0)
    y = qam16.points[rng.integers(0, 16, (18, 4))] @ h.T + 0.7 * crandn(rng, 18, 16)
    tracemalloc.start()
    try:
        llr = bench._detect_uses(cfg, "ml", qam16, know, y, coded=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert llr.shape == (18, 16) and np.all(np.isfinite(llr))
    assert peak < 64e6


def test_coded_robust_soft_list_is_one_traceable_kbest_search(qam16, monkeypatch):
    # the coded robust list is searched by the kbest_detect bench looks up,
    # the name a tracer wraps, once per block of uses
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return det.kbest_detect(*args, **kwargs)

    monkeypatch.setattr(bench, "kbest_detect", spy)
    rng = np.random.default_rng(65)
    h = (rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))) / np.sqrt(2)
    know = bench._TrialKnowledge(h_hat=h, r_uu=np.eye(16), sigma_det=0.5, sigma_i2=0.0)
    y = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
    cfg = bench.ScenarioConfig()
    llr = bench._detect_uses(cfg, "robust-sr-kbest", qam16, know, y, coded=True)
    assert len(calls) == 1 and llr.shape == (9, 16)
    _, y_tilde, width, cons = calls[0]
    assert width == bench.SOFT_LIST_WIDTH and cons is qam16 and y_tilde.shape == (9, 4)


def test_coded_osic_llrs_are_hard():
    # osic lists one candidate, so every bit lacks one hypothesis
    cfg = bench.ScenarioConfig(n_rx=8, n_users=3)
    qam16 = airlink.build_constellation("qam16")
    rng = np.random.default_rng(64)
    h = (rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))) / np.sqrt(2)
    know = bench._TrialKnowledge(h_hat=h, r_uu=np.eye(8), sigma_det=0.5, sigma_i2=0.0)
    y = rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8))
    llr = bench._detect_uses(cfg, "osic", qam16, know, y, coded=True)
    assert llr.shape == (7, 12)
    assert np.array_equal(np.abs(llr), np.full((7, 12), det.LLR_MAX))


def test_scenario_channel_config_is_built_once():
    cfg = bench.parse_config("n_rx = 8\nn_users = 3\nn_interferers = 2\nrx_correlation = 0.5\n")
    chan = cfg.channel
    assert chan is cfg.channel
    assert (chan.n_rx, chan.n_users, chan.n_interferers, chan.rx_correlation) == (8, 3, 2, 0.5)
    assert chan.interferer_power_ratio == cfg.interferer_power_ratio
    assert cfg == bench.parse_config("n_rx = 8\nn_users = 3\nn_interferers = 2\nrx_correlation = 0.5\n")


def test_run_scenario_adds_trial_context_to_errors(monkeypatch):
    cfg = bench.parse_config("snr_db = 10\ntrials_per_point = 1\ndetectors = mrc\n")

    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(bench, "_run_trial", boom)
    with pytest.raises(RuntimeError, match="detector=mrc, snr_db=10, trial=0"):
        bench.run_scenario(cfg)


def test_ber_monotone_in_snr_awgn():
    # statistical monotonicity: non-increasing across the grid up to the
    # binomial confidence band, >= 1e5 bits per point
    cfg = bench.parse_config(
        "n_rx = 16\nn_users = 4\nsnr_db = 0:8:2\ntrials_per_point = 125\n"
        "symbols_per_trial = 50\ndetectors = mmse-irc\nmaster_seed = 3\n"
    )
    recs = sorted(bench.run_scenario(cfg), key=lambda r: r.snr_db)
    for lo, hi in zip(recs[1:], recs[:-1]):
        band = 1.96 * np.sqrt(
            lo.ber * (1 - lo.ber) / lo.bits + hi.ber * (1 - hi.ber) / hi.bits
        )
        assert lo.ber <= hi.ber + band


def test_irc_beats_mrc_under_interference():
    # two equal-power interferers at 20 dB: spatial nulling must win clearly
    cfg = bench.parse_config(
        "n_rx = 16\nn_users = 4\nn_interferers = 2\nsnr_db = 20\n"
        "trials_per_point = 125\nsymbols_per_trial = 50\n"
        "detectors = mrc,mmse-irc\nmaster_seed = 5\n"
    )
    recs = {r.detector: r for r in bench.run_scenario(cfg)}
    p_irc = recs["mmse-irc"].ber
    p_mrc = recs["mrc"].ber
    se = np.sqrt(
        p_irc * (1 - p_irc) / recs["mmse-irc"].bits + p_mrc * (1 - p_mrc) / recs["mrc"].bits
    )
    assert p_mrc - p_irc > 1.96 * se


# --- output sinks -------------------------------------------------------------------


def _sample_records():
    return [
        bench.BerRecord("sr-kbest", 4.0, 2, 100, 10, 0.1, False, "ideal", 1),
        bench.BerRecord("sr-kbest", 2.0, 2, 100, 25, 0.25, False, "ideal", 1),
        bench.BerRecord("mrc", 2.0, 2, 100, 50, 0.5, False, "ideal", 1),
    ]


def test_write_csv_header_and_order():
    buf = io.StringIO()
    bench.write_csv(_sample_records(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "detector,snr_db,trials,bits,bit_errors,ber,coded,ce_mode,seed"
    assert lines[1].startswith("sr-kbest,2") and lines[2].startswith("sr-kbest,4")
    assert lines[3].startswith("mrc,2")


def test_write_csv_empty_is_header_only():
    buf = io.StringIO()
    bench.write_csv([], buf)
    assert buf.getvalue() == "detector,snr_db,trials,bits,bit_errors,ber,coded,ce_mode,seed\n"


def test_write_csv_single_record_two_lines():
    buf = io.StringIO()
    bench.write_csv(_sample_records()[:1], buf)
    assert len(buf.getvalue().splitlines()) == 2


def test_csv_roundtrip_exact_counts(tmp_path):
    cfg = bench.parse_config("snr_db = 8\ntrials_per_point = 2\ndetectors = mmse-irc,osic\n")
    records = bench.run_scenario(cfg)
    out = tmp_path / "r.csv"
    bench.write_csv(records, out)
    lines = out.read_text().splitlines()
    parsed = [line.split(",") for line in lines[1:]]
    by_det = {p[0]: p for p in parsed}
    for rec in records:
        row = by_det[rec.detector]
        assert int(row[3]) == rec.bits and int(row[4]) == rec.bit_errors
        assert int(row[4]) / int(row[3]) == rec.ber  # recover exactly from integers
        assert float(row[5]) == pytest.approx(rec.ber, rel=1e-5)


def test_plot_data_blocks(tmp_path):
    out = tmp_path / "p.dat"
    bench.emit_plot_data(_sample_records(), out)
    text = out.read_text()
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines()[0] == "# sr-kbest"
    first = blocks[0].splitlines()[1].split()
    assert float(first[0]) == 2.0 and float(first[1]) == 0.25


# --- CLI ------------------------------------------------------------------------------


CLI_CFG = """
n_rx = 8
n_users = 2
snr_db = 10,14
trials_per_point = 2
symbols_per_trial = 4
detectors = mmse-irc,osic
"""


def test_cli_simulate_success(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(CLI_CFG)
    out = tmp_path / "out.csv"
    plot = tmp_path / "out.dat"
    rc = cli_main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--plot", str(plot)]
    )
    assert rc == 0
    assert out.read_text().startswith("detector,snr_db,")
    assert plot.read_text().startswith("# mmse-irc")


def test_cli_flag_overrides(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(CLI_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--seed", "9", "--detectors", "osic", "--snr", "12"]) == 0
    lines = out1.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("osic,12,")
    assert lines[1].endswith(",9")
    # determinism across invocations
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--seed", "9", "--detectors", "osic", "--snr", "12"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_missing_config_is_config_error(tmp_path):
    rc = cli_main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 1


def test_cli_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfed\x00e\x00t\x00")  # UTF-16 with a byte-order mark
    rc = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "config error: cannot read config" in capsys.readouterr().err


def test_cli_invalid_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("detectors = zf\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
    for text, _ in OUT_OF_RANGE_CONFIGS:
        cfg.write_text(text + "trials_per_point = 1\nsymbols_per_trial = 2\n")
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
    for spec in BAD_SNR_RANGES:
        cfg.write_text(f"snr_db = {spec}\ntrials_per_point = 1\nsymbols_per_trial = 2\n")
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
    cfg.write_text(CLI_CFG)
    capsys.readouterr()
    rc = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv"),
                   "--snr", "0:inf:1"])
    assert rc == 1 and "config error:" in capsys.readouterr().err


def test_sr_expand_is_an_unknown_key(tmp_path):
    with pytest.raises(ConfigValidationError) as err:
        bench.parse_config("sr.expand = 4\n")
    assert err.value.key == "sr.expand"
    cfg = tmp_path / "expand.cfg"
    cfg.write_text("sr.expand = 4\ntrials_per_point = 1\nsymbols_per_trial = 2\n")
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1


def test_cli_detector_flag_named_twice_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(CLI_CFG)
    out = tmp_path / "o.csv"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--detectors", "mrc,mrc"]) == 1
    assert "named twice" in capsys.readouterr().err and not out.exists()


def test_cli_runtime_error_exit_code(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(CLI_CFG)
    rc = cli_main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "missing-dir" / "o.csv")])
    assert rc == 2


def test_cli_entry_point_runs(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("snr_db = 8\ntrials_per_point = 1\nsymbols_per_trial = 2\ndetectors = mrc\n")
    out = tmp_path / "o.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mudet.cli", "simulate", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
