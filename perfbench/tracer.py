"""Spans around mudet's layer boundaries, recorded from outside the program.

Each wrapped function is replaced in the namespace where its caller looks
it up: ``mudet.bench`` imports the ``detectors``, ``numkit`` and
``airlink`` functions by name, ``mudet.detectors`` imports the ``numkit``
ones by name, ``mudet.cli`` imports ``parse_config`` and ``run_scenario``
by name, and ``mudet.bench`` reaches ``fec`` through the module.

A trial is the interval from one ``bench.trial_stream`` call to the next
(the last one ends when ``run_scenario`` returns); the trial id is the
``(detector_index, snr_index, trial_index)`` that ``trial_stream``
receives. With ``full=False`` only those trial boundaries are recorded,
which is all the untraced end-to-end metrics need.

Host speed. The benchmark host's speed drifts by up to ~1.6x within
seconds (other tenants share its cores), far more than a change worth
measuring. So the harness times :func:`reference_unit`, a fixed mix of
interpreter work and small complex linear algebra like mudet's own,
before and after every sweep (never inside it: a unit run between trials
slowed the program by 2-6% and its own time depended on which detector
had just run). The mean reference time gives the factor that converts the
sweep's times to a host on which the unit takes ``REFERENCE_S``.
"""

from time import perf_counter

import numpy as np

# (namespace module, attribute, span name). A name that a later version of
# the program no longer has is skipped; its metrics then read zero calls.
FULL_WRAPS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "bench.parse_config"),
    ("fec", "build_code", "fec.build_code"),
    ("fec", "decode_min_sum", "fec.decode_min_sum"),
    ("bench", "generate_channel", "airlink.generate_channel"),
    ("bench", "estimate_channel", "airlink.estimate_channel"),
    ("bench", "estimate_covariance", "airlink.estimate_covariance"),
    ("bench", "build_extended", "detectors.build_extended"),
    ("bench", "mmse_irc_weights", "detectors.mmse_irc_weights"),
    ("bench", "robust_plan", "detectors.robust_plan"),
    ("bench", "robust_apply", "detectors.robust_apply"),
    ("bench", "osic_detect", "detectors.osic_detect"),
    ("bench", "kbest_detect", "detectors.kbest_detect"),
    ("bench", "sr_kbest_detect", "detectors.sr_kbest_detect"),
    ("bench", "compute_llrs", "detectors.compute_llrs"),
    ("bench", "equalizer_llrs", "detectors.equalizer_llrs"),
    ("bench", "solve_hermitian", "numkit.solve_hermitian"),
    ("bench", "sorted_qr", "numkit.sorted_qr"),
    ("detectors", "solve_hermitian", "numkit.solve_hermitian"),
    ("detectors", "sorted_qr", "numkit.sorted_qr"),
    ("detectors", "qr_decompose", "numkit.qr_decompose"),
    ("detectors", "inv_sqrt", "numkit.inv_sqrt"),
)

# ROADMAP aim-1 stage of each span. A span inside a staged span takes the
# outer one's stage (the solve inside robust_apply is "apply", the one
# inside mmse_irc_weights is "plan"); unstaged time inside a trial is "other".
STAGES = ("channel", "estimate", "plan", "apply", "search", "llr", "decode", "other")
STAGE_OF = {
    "airlink.generate_channel": "channel",
    "airlink.estimate_channel": "estimate",
    "airlink.estimate_covariance": "estimate",
    "detectors.build_extended": "plan",
    "detectors.mmse_irc_weights": "plan",
    "detectors.robust_plan": "plan",
    "numkit.solve_hermitian": "plan",
    "numkit.sorted_qr": "plan",
    "numkit.qr_decompose": "plan",
    "numkit.inv_sqrt": "plan",
    "detectors.robust_apply": "apply",
    "detectors.osic_detect": "search",
    "detectors.kbest_detect": "search",
    "detectors.sr_kbest_detect": "search",
    "detectors.compute_llrs": "llr",
    "detectors.equalizer_llrs": "llr",
    "fec.decode_min_sum": "decode",
}

TRIAL_SPAN = "bench.trial"

# span record fields
NAME, START, END, PARENT, TRIAL, STAGE, CHILD = range(7)

# Time of one reference_unit on an uncontended host of the kind the
# baseline was recorded on; only a unit of account, never re-measured.
REFERENCE_S = 150e-6
_REF_MATRIX = (np.arange(64).reshape(16, 4) % 7 + 1j * (np.arange(64).reshape(16, 4) % 5))


def reference_unit() -> float:
    """Time one fixed piece of work that does not depend on the program."""
    start = perf_counter()
    acc = 0
    for i in range(150):
        acc += (i * 31) % 17
    for _ in range(3):
        q, r = np.linalg.qr(_REF_MATRIX)
        np.abs(q @ r - _REF_MATRIX).sum()
    return perf_counter() - start


class Tracer:
    """Records one sweep: trial boundaries always, spans when ``full``;
    reference times are added by :meth:`calibrate`."""

    def __init__(self, full: bool):
        self.full = full
        self.reference_s: list = []
        # (start, (detector_index, snr_index, trial_index)); the previous
        # trial ends where this one starts
        self.trial_bounds: list = []
        self.sweep_end = None
        self.spans: list = []
        self.decodes: list = []  # (converged, iterations) per decode_min_sum call
        self._stack: list = []
        self._trial = None

    def install(self, mods: dict) -> None:
        """Wrap the program's functions; ``mods`` maps short names to modules."""
        self._replace(mods["bench"], "trial_stream", self._trial_stream)
        self._replace(mods["cli"], "run_scenario", self._run_scenario)
        if self.full:
            for mod, attr, name in FULL_WRAPS:
                self._replace(mods[mod], attr, lambda fn, name=name: self._span(name, fn))

    @staticmethod
    def _replace(module, attr, make) -> None:
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, make(fn))

    def calibrate(self, units: int) -> None:
        reference_unit()
        self.reference_s.extend(reference_unit() for _ in range(units))

    @property
    def scale(self) -> float:
        """Factor from this sweep's measured times to reference-host times."""
        return REFERENCE_S * len(self.reference_s) / sum(self.reference_s)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str, now: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        stage = STAGE_OF.get(name)
        if parent >= 0 and self.spans[parent][NAME] != TRIAL_SPAN:
            stage = self.spans[parent][STAGE] or stage
        self.spans.append([name, now, None, parent, self._trial, stage, 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_top(self, now: float) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = now
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += now - span[START]

    def _close(self, index: int, now: float) -> None:
        # an open trial span above a returning function belongs to it
        while self._stack and self._stack[-1] != index:
            self._close_top(now)
        self._close_top(now)

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self._open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, perf_counter())
            if name == "fec.decode_min_sum":
                self.decodes.append((bool(result[1]), int(result[2])))
            return result

        return wrapper

    # -- trial boundaries -------------------------------------------------

    def _trial_stream(self, fn):
        def wrapper(master_seed, detector_index, snr_index, trial_index):
            start = perf_counter()
            key = (int(detector_index), int(snr_index), int(trial_index))
            self.trial_bounds.append((start, key))
            if not self.full:
                return fn(master_seed, detector_index, snr_index, trial_index)
            if self._stack and self.spans[self._stack[-1]][NAME] == TRIAL_SPAN:
                self._close_top(start)
            self._trial = key
            self._open(TRIAL_SPAN, start)
            index = self._open("bench.trial_stream", start)
            try:
                return fn(master_seed, detector_index, snr_index, trial_index)
            finally:
                self._close(index, perf_counter())

        return wrapper

    def _run_scenario(self, fn):
        def wrapper(*args, **kwargs):
            index = self._open("bench.run_scenario", perf_counter()) if self.full else None
            try:
                return fn(*args, **kwargs)
            finally:
                self.sweep_end = perf_counter()
                if self.full:
                    self._close(index, self.sweep_end)
                    self._trial = None

        return wrapper

    # -- results ----------------------------------------------------------

    def trial_durations(self) -> list:
        """(key, measured seconds) per trial."""
        if not self.trial_bounds or self.sweep_end is None:
            return []
        ends = [start for start, _ in self.trial_bounds[1:]] + [self.sweep_end]
        return [(key, end - start) for (start, key), end in zip(self.trial_bounds, ends)]

    def self_times(self):
        """Yield ``(span, measured self seconds)`` for every closed span."""
        for span in self.spans:
            if span[END] is not None:
                yield span, span[END] - span[START] - span[CHILD]
