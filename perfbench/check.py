"""Output check for the CSV that ``mudet simulate`` writes.

The check knows the scenario it asked for, not the program's internals:
the header is this file's own copy, so a change to the program's header
shows up as a failure rather than being read back from the program.
"""

from dataclasses import dataclass

CSV_HEADER = "detector,snr_db,trials,bits,bit_errors,ber,coded,ce_mode,seed"

# One (288, 144) LDPC codeword per coded trial; errors count message bits.
CODE_N = 288
CODE_K = 144


@dataclass(frozen=True)
class SweepSpec:
    """What one sweep was asked to produce, cell by cell."""

    detectors: tuple
    snr_db: tuple
    trials: int
    symbols_per_trial: int
    n_users: int
    bits_per_symbol: int
    coded: bool
    ce_mode: str
    seed: int

    @property
    def cells(self) -> list:
        """(detector, snr) in CSV order: detector list order, then ascending SNR."""
        return [(d, s) for d in self.detectors for s in sorted(self.snr_db)]

    @property
    def bits_per_trial(self) -> int:
        if self.coded:
            return CODE_K
        return self.symbols_per_trial * self.n_users * self.bits_per_symbol

    @property
    def vectors_per_trial(self) -> int:
        """Received vectors one trial detects (coded: the codeword, zero-padded)."""
        if self.coded:
            per_use = self.n_users * self.bits_per_symbol
            return -(-CODE_N // per_use)
        return self.symbols_per_trial


def _row_ok(fields: list, detector: str, snr: float, spec: SweepSpec) -> bool:
    if len(fields) != 9:
        return False
    name, snr_s, trials_s, bits_s, errors_s, ber_s, coded_s, ce_mode, seed_s = fields
    try:
        trials, bits, errors, seed = int(trials_s), int(bits_s), int(errors_s), int(seed_s)
        row_snr, ber = float(snr_s), float(ber_s)
    except ValueError:
        return False
    return (
        name == detector
        and row_snr == snr
        and trials == spec.trials
        and bits == spec.trials * spec.bits_per_trial
        and 0 <= errors <= bits
        and ber_s == f"{errors / bits:.6g}"
        and 0.0 <= ber <= 1.0
        and coded_s == ("true" if spec.coded else "false")
        and ce_mode == spec.ce_mode
        and seed == spec.seed
    )


def check_csv(text: str, spec: SweepSpec) -> list:
    """Return one flag per expected cell, True when that cell's row is right.

    A wrong header or a wrong number of rows fails every cell, because the
    rows can then no longer be matched to cells by position.
    """
    lines = text.splitlines()
    cells = spec.cells
    if not lines or lines[0] != CSV_HEADER or len(lines) != len(cells) + 1:
        return [False] * len(cells)
    return [
        _row_ok(line.split(","), detector, snr, spec)
        for line, (detector, snr) in zip(lines[1:], cells)
    ]


def pooled_ber(text: str) -> dict:
    """Per-detector ``sum(bit_errors) / sum(bits)`` over the SNR grid."""
    totals: dict = {}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        errors, bits = totals.setdefault(fields[0], [0, 0])
        totals[fields[0]] = [errors + int(fields[4]), bits + int(fields[3])]
    return {name: errors / bits for name, (errors, bits) in totals.items() if bits}
