"""Rank-growth predictors: from Mordell-Weil rank tables to characteristic ideals.

Given the ranks of an elliptic curve (or abelian variety) up the layers of a
Z_p-extension, the normalized jumps e_n (over Z) or f_n (over the CM order)
determine, setting by setting, the predicted pseudo-isomorphism type of the
relevant Iwasawa module as a product of cyclotomic-polynomial powers.
``SETTINGS`` holds one record per setting: CM with p inert (supersingular)
or split (ordinary), and the generalized Heegner setting, where the
BDP-Selmer dual gets exact multiplicities but the fine side only intervals.

Theorem-backed conclusions are labeled "proven-shape"; the corresponding
characteristic-ideal formulas for the full fine-Selmer dual are emitted
separately and labeled "conjectural".
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisError, InvalidRankTableError, SettingError, ValidationError
from .polynomials import char_ideal_render, phi_degree


class SettingTag(enum.Enum):
    CM_INERT_CYC = "cm_inert_cyc"
    CM_INERT_ANTICYC = "cm_inert_anticyc"
    CM_SPLIT_SINGLE_Q = "cm_split_single_q"
    CM_SPLIT_CYC = "cm_split_cyc"
    CM_SPLIT_ANTICYC_ROOT_PLUS = "cm_split_anticyc_root_plus"
    CM_SPLIT_ANTICYC_ROOT_MINUS = "cm_split_anticyc_root_minus"
    HEEGNER_BDP = "heegner_bdp"
    HEEGNER_FINE = "heegner_fine"


def _excess(n, v):
    return max(0, v - 1)


def _twice_excess(n, v):
    return 2 * max(0, v - 1)


def _bdp_excess(n, v):
    if v < 1:
        raise HypothesisError(
            f"level {n}: e_n = 0 contradicts the surjectivity of the "
            "local restriction in the Heegner setting")
    return v - 1


def _heegner_interval(n, v):
    return max(0, v - 2), max(0, v - 1)


@dataclass(frozen=True)
class SettingRecord:
    """What the paper proves in one setting, and what it conjectures there.

    A multiplicity rule maps (level n, growth value v) to the exact exponent
    of Φ_n, or to an interval (lo, hi) where the theorem pins only that.
    """

    kind: str  # growth sequence consumed: "e" or "f"
    object: str  # module the theorem concludes about
    ring: str  # its coefficient ring: "Lambda" or "Lambda_Op"
    rule: Callable
    conjecture_object: str  # module whose characteristic ideal is conjectured
    conjecture_note: str | None = None
    conjecture_rule: Callable | None = None  # None: the proven rule
    parity_check: bool = False  # the anticyclotomic parity diagnostic applies


_CYC_NOTE = ("the conjectural equality is equivalent to finiteness of the fine "
             "Tate-Shafarevich group over the cyclotomic tower")
_SINGLE_Q_NOTE = ("the conjectural equality is equivalent to finiteness of the "
                  "q-primary fine Tate-Shafarevich group over the single-prime tower")
_INTERVAL_NOTE = ("the interval leaves the exact multiplicities undetermined; no "
                  "distinguished value inside it is preferred")

SETTINGS = {
    SettingTag.CM_INERT_CYC: SettingRecord(
        "f", "ℳ(E/F^cyc)^∨", "Lambda_Op", _excess, "Y(E/F^cyc)", _CYC_NOTE),
    SettingTag.CM_INERT_ANTICYC: SettingRecord(
        "f", "Y_f(E/F^ac)", "Lambda_Op", _excess, "Y(E/F^ac)", parity_check=True),
    SettingTag.CM_SPLIT_SINGLE_Q: SettingRecord(
        "f", "ℳ_q(E/F_{q^∞})^∨", "Lambda", _excess, "Y_q(E/F_{q^∞})", _SINGLE_Q_NOTE),
    SettingTag.CM_SPLIT_CYC: SettingRecord(
        "e", "ℳ(E/F^cyc)^∨", "Lambda", _twice_excess, "Y(E/F^cyc)", _CYC_NOTE),
    SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS: SettingRecord(
        "e", "ℳ(E/F^ac)^∨", "Lambda", _twice_excess, "Y(E/F^ac)"),
    SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS: SettingRecord(
        "e", "Y_f(E/F^ac)", "Lambda", _twice_excess, "Y(E/F^ac)"),
    SettingTag.HEEGNER_BDP: SettingRecord(
        "e", "X_f^BDP(E/F^ac)", "Lambda", _bdp_excess, "Y(E/F^ac)", _INTERVAL_NOTE,
        conjecture_rule=_heegner_interval),
    SettingTag.HEEGNER_FINE: SettingRecord(
        "e", "Y_f(E/F^ac)", "Lambda", _heegner_interval, "Y(E/F^ac)", _INTERVAL_NOTE),
}


def resolve_setting(name: str, root_number: str | None = None) -> SettingTag:
    """Map a CLI setting string (plus root number where needed) to a tag."""
    name = name.strip().lower()
    if name == "cm_split_anticyc":
        if root_number == "+1":
            return SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS
        if root_number == "-1":
            return SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS
        raise ValidationError(
            "setting cm_split_anticyc requires root_number '+1' or '-1'")
    for tag in SettingTag:
        if tag.value == name:
            return tag
    raise ValidationError(f"unknown setting {name!r}")


@dataclass(frozen=True)
class RankTable:
    """Mordell-Weil ranks at levels 0..n_max, over Z or over the CM order."""

    p: int
    values: tuple
    rank_kind: str = "Z"  # "Z" or "O"

    def __post_init__(self):
        if self.p < 5:
            raise InvalidRankTableError(f"prime must be >= 5, got {self.p}")
        if self.rank_kind not in ("Z", "O"):
            raise InvalidRankTableError(f"rank_kind must be 'Z' or 'O', got {self.rank_kind!r}")
        vals = tuple(int(v) for v in self.values)
        if not vals:
            raise InvalidRankTableError("rank table needs at least level 0")
        if any(v < 0 for v in vals):
            raise InvalidRankTableError("ranks must be nonnegative")
        for n in range(1, len(vals)):
            if vals[n] < vals[n - 1]:
                raise InvalidRankTableError(
                    f"level {n}: rank {vals[n]} drops below level {n - 1}", level=n)
            jump = vals[n] - vals[n - 1]
            deg = phi_degree(self.p, n)
            if jump % deg:
                raise InvalidRankTableError(
                    f"level {n}: jump {jump} not divisible by {deg}", level=n)
        object.__setattr__(self, "values", vals)


def ranks_over_O_from_Z(values) -> tuple:
    """Explicit rank_O = 2 rank_Z converter for the CM settings."""
    return tuple(2 * int(v) for v in values)


@dataclass(frozen=True)
class GrowthSequence:
    """Normalized rank jumps e_n or f_n; value(0) is the level-0 rank."""

    kind: str  # "e" or "f"
    p: int
    values: tuple

    def __post_init__(self):
        if self.kind not in ("e", "f"):
            raise ValidationError("growth kind must be 'e' or 'f'")
        vals = tuple(int(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ValidationError("growth values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def growth_sequence(table: RankTable, kind: str) -> GrowthSequence:
    """e_0 = rank at level 0; e_n = (rank_n - rank_{n-1}) / phi(p^n)."""
    if kind == "f" and table.rank_kind != "O":
        raise SettingError("f-sequences require a rank table over the CM order (rank_kind 'O')")
    if kind == "e" and table.rank_kind != "Z":
        raise SettingError("e-sequences require a rank table over Z (rank_kind 'Z')")
    vals = [table.values[0]]
    for n in range(1, len(table.values)):
        vals.append((table.values[n] - table.values[n - 1]) // phi_degree(table.p, n))
    return GrowthSequence(kind, table.p, tuple(vals))


@dataclass(frozen=True)
class PredictedCharIdeal:
    """Exact multiplicities or per-level intervals for a cyclotomic product."""

    ring: str  # "Lambda" or "Lambda_Op"
    multiplicities: tuple = ()  # (level, mult), zero entries dropped
    intervals: tuple = ()  # (level, lo, hi); empty unless interval-valued

    @property
    def is_interval(self) -> bool:
        return bool(self.intervals)

    def text(self) -> str:
        if self.is_interval:
            parts = [f"Φ_{n}^[{lo},{hi}]" for n, lo, hi in self.intervals if hi > 0]
            return "·".join(parts) if parts else "1"
        return char_ideal_render(self.multiplicities, expand=False).text

    def as_dict(self) -> dict:
        doc = {"ring": self.ring, "text": self.text()}
        if self.is_interval:
            doc["intervals"] = [[n, lo, hi] for n, lo, hi in self.intervals]
        else:
            doc["factors"] = [[n, m] for n, m in self.multiplicities]
        return doc


def _apply(rule, s: GrowthSequence, ring: str) -> PredictedCharIdeal:
    bounds = [(n, rule(n, v)) for n, v in enumerate(s.values)]
    return PredictedCharIdeal(
        ring=ring,
        multiplicities=tuple((n, m) for n, m in bounds if not isinstance(m, tuple) and m > 0),
        intervals=tuple((n, *m) for n, m in bounds if isinstance(m, tuple)))


def predict(setting: SettingTag, s: GrowthSequence) -> PredictedCharIdeal:
    """Apply the setting's multiplicity rule to a growth sequence."""
    record = SETTINGS[setting]
    if s.kind != record.kind:
        raise SettingError(
            f"setting {setting.value} needs a {record.kind!r}-sequence, got {s.kind!r}")
    return _apply(record.rule, s, record.ring)


def mw_tate_prediction(s: GrowthSequence, n: int):
    """Tate-module type of the Mordell-Weil group at level n: (Lambda/Phi_j)^(e_j).

    Needs no Tate-Shafarevich finiteness; zero multiplicities are omitted.
    """
    if s.kind != "e":
        raise SettingError("Mordell-Weil Tate modules use the e-sequence")
    if n > s.n_max:
        raise ValidationError(f"level {n} beyond the sequence (n_max = {s.n_max})")
    return [(j, s.values[j]) for j in range(n + 1) if s.values[j] > 0]


def local_mw_prediction(g: int, field_degree: int, n: int):
    """Local tower: multiplicity g*[K:Q_p] at every level j <= n."""
    if g < 1 or field_degree < 1:
        raise ValidationError("dimension and field degree must be >= 1")
    return [(j, g * field_degree) for j in range(n + 1)]


def bdp_order_lower_bound(e_n: int):
    """Lower bound (e_n - 1)/2 for the cyclotomic order of the BDP L-function.

    Returns (exact rational, integer ceiling); the ceiling is the effective
    bound since an order is an integer, a sharpening beyond the literal
    inequality.
    """
    if e_n < 1:
        raise HypothesisError("the bound applies in the Heegner setting, e_n >= 1")
    bound = Fraction(e_n - 1, 2)
    return bound, math.ceil(bound)


def question_report(setting: SettingTag, s: GrowthSequence) -> dict:
    """Conjectural characteristic ideal of the full fine-Selmer dual.

    The theorem-backed pseudo-isomorphism type is attached as the
    "proven-shape" part; the characteristic-ideal formula for Y itself is
    conjectural and labeled as such.
    """
    record = SETTINGS[setting]
    proven = predict(setting, s)
    conj = _apply(record.conjecture_rule or record.rule, s, record.ring)
    notes = ["level-0 factor follows the convention that the zeroth cyclotomic "
             "factor is T with degree 1"]
    if record.conjecture_note:
        notes.append(record.conjecture_note)
    return {
        "setting": setting.value,
        "object": record.conjecture_object,
        "status": "conjectural",
        "prediction": conj.as_dict(),
        "proven_shape": {
            "object": record.object,
            "prediction": proven.as_dict(),
            "status": "proven-shape",
        },
        "notes": notes,
    }


def anticyclotomic_parity_check(s: GrowthSequence) -> dict:
    """Diagnostic for the inert anticyclotomic dichotomy: tail f_n in {0, 1}.

    Past the last level with f_n >= 2, the levels carrying f_n = 1 must all
    share one parity (and the zeros the other); tables breaking this are
    flagged.  Level indices are counted from zero.
    """
    if s.kind != "f":
        raise SettingError("the parity dichotomy concerns f-sequences")
    vals = s.values
    tail_start = 0
    for n, v in enumerate(vals):
        if v >= 2:
            tail_start = n + 1
    ones = [n for n in range(tail_start, len(vals)) if vals[n] == 1]
    report = {
        "name": "anticyclotomic_parity",
        "tail_start": tail_start,
        "ones_levels": ones,
        "verdict": "pass",
        "parity": None,
    }
    if not ones:
        report["degenerate"] = True
        return report
    parities = {n % 2 for n in ones}
    if len(parities) > 1:
        report["verdict"] = "fail"
        report["reason"] = "levels with f_n = 1 occupy both parities in the tail"
        return report
    report["parity"] = "even" if ones[0] % 2 == 0 else "odd"
    return report
