"""Rank-growth predictors: from Mordell-Weil rank tables to characteristic ideals.

Given the ranks of an elliptic curve (or abelian variety) up the layers of a
Z_p-extension, the normalized jumps e_n (over Z) or f_n (over the CM order)
determine, setting by setting, the predicted pseudo-isomorphism type of the
relevant Iwasawa module as a product of cyclotomic-polynomial powers:

* CM with p inert (supersingular), cyclotomic or anticyclotomic tower:
  multiplicities max{0, f_n - 1} over the two-dimensional coefficient ring.
* CM with p split (ordinary): the single-prime tower uses max{0, f_n - 1};
  the cyclotomic and anticyclotomic towers use 2 max{0, e_n - 1}, with the
  concluded object depending on the root number in the anticyclotomic case.
* Generalized Heegner setting: the BDP-Selmer dual gets exactly e_n - 1
  (all e_n >= 1 is forced and enforced), while the fine Mordell-Weil side is
  only pinned to the interval [max{0, e_n - 2}, max{0, e_n - 1}].

Theorem-backed conclusions are labeled "proven-shape"; the corresponding
characteristic-ideal formulas for the full fine-Selmer dual are emitted
separately and labeled "conjectural".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisError, InvalidRankTableError, SettingError, ValidationError
from .polynomials import phi_degree


class SettingTag(enum.Enum):
    CM_INERT_CYC = "cm_inert_cyc"
    CM_INERT_ANTICYC = "cm_inert_anticyc"
    CM_SPLIT_SINGLE_Q = "cm_split_single_q"
    CM_SPLIT_CYC = "cm_split_cyc"
    CM_SPLIT_ANTICYC_ROOT_PLUS = "cm_split_anticyc_root_plus"
    CM_SPLIT_ANTICYC_ROOT_MINUS = "cm_split_anticyc_root_minus"
    HEEGNER_BDP = "heegner_bdp"
    HEEGNER_FINE = "heegner_fine"


#: Which growth sequence each setting consumes.
SETTING_KIND = {
    SettingTag.CM_INERT_CYC: "f",
    SettingTag.CM_INERT_ANTICYC: "f",
    SettingTag.CM_SPLIT_SINGLE_Q: "f",
    SettingTag.CM_SPLIT_CYC: "e",
    SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS: "e",
    SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS: "e",
    SettingTag.HEEGNER_BDP: "e",
    SettingTag.HEEGNER_FINE: "e",
}

#: The module the theorem concludes about, and its coefficient ring.
SETTING_OBJECT = {
    SettingTag.CM_INERT_CYC: ("ℳ(E/F^cyc)^∨", "Lambda_Op"),
    SettingTag.CM_INERT_ANTICYC: ("Y_f(E/F^ac)", "Lambda_Op"),
    SettingTag.CM_SPLIT_SINGLE_Q: ("ℳ_q(E/F_{q^∞})^∨", "Lambda"),
    SettingTag.CM_SPLIT_CYC: ("ℳ(E/F^cyc)^∨", "Lambda"),
    SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS: ("ℳ(E/F^ac)^∨", "Lambda"),
    SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS: ("Y_f(E/F^ac)", "Lambda"),
    SettingTag.HEEGNER_BDP: ("X_f^BDP(E/F^ac)", "Lambda"),
    SettingTag.HEEGNER_FINE: ("Y_f(E/F^ac)", "Lambda"),
}

#: The object whose characteristic ideal the companion conjecture describes.
SETTING_CONJECTURE_OBJECT = {
    SettingTag.CM_INERT_CYC: "Y(E/F^cyc)",
    SettingTag.CM_INERT_ANTICYC: "Y(E/F^ac)",
    SettingTag.CM_SPLIT_SINGLE_Q: "Y_q(E/F_{q^∞})",
    SettingTag.CM_SPLIT_CYC: "Y(E/F^cyc)",
    SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS: "Y(E/F^ac)",
    SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS: "Y(E/F^ac)",
    SettingTag.HEEGNER_BDP: "Y(E/F^ac)",
    SettingTag.HEEGNER_FINE: "Y(E/F^ac)",
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

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


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
    if kind not in ("e", "f"):
        raise ValidationError("growth kind must be 'e' or 'f'")
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
    provenance: str  # setting name + status
    multiplicities: tuple = ()  # (level, mult), zero entries dropped
    intervals: tuple = ()  # (level, lo, hi); empty unless interval-valued

    @property
    def is_interval(self) -> bool:
        return bool(self.intervals)

    def text(self) -> str:
        if self.is_interval:
            parts = [f"Φ_{n}^[{lo},{hi}]" for n, lo, hi in self.intervals if hi > 0]
            return "·".join(parts) if parts else "1"
        parts = [f"Φ_{n}^{m}" for n, m in self.multiplicities]
        return "·".join(parts) if parts else "1"

    def as_dict(self) -> dict:
        doc = {"ring": self.ring, "text": self.text()}
        if self.is_interval:
            doc["intervals"] = [[n, lo, hi] for n, lo, hi in self.intervals]
        else:
            doc["factors"] = [[n, m] for n, m in self.multiplicities]
        return doc


def _exact(levels_mults, ring, provenance):
    mults = tuple((n, m) for n, m in levels_mults if m > 0)
    return PredictedCharIdeal(ring=ring, provenance=provenance, multiplicities=mults)


def predict(setting: SettingTag, s: GrowthSequence) -> PredictedCharIdeal:
    """Apply the setting's multiplicity formula to a growth sequence."""
    kind = SETTING_KIND[setting]
    if s.kind != kind:
        raise SettingError(
            f"setting {setting.value} needs a {kind!r}-sequence, got {s.kind!r}")
    _, ring = SETTING_OBJECT[setting]
    prov = f"{setting.value}/proven-shape"
    vals = s.values
    if setting in (SettingTag.CM_INERT_CYC, SettingTag.CM_INERT_ANTICYC,
                   SettingTag.CM_SPLIT_SINGLE_Q):
        return _exact(((n, max(0, v - 1)) for n, v in enumerate(vals)), ring, prov)
    if setting in (SettingTag.CM_SPLIT_CYC, SettingTag.CM_SPLIT_ANTICYC_ROOT_PLUS,
                   SettingTag.CM_SPLIT_ANTICYC_ROOT_MINUS):
        return _exact(((n, 2 * max(0, v - 1)) for n, v in enumerate(vals)), ring, prov)
    if setting is SettingTag.HEEGNER_BDP:
        bad = [n for n, v in enumerate(vals) if v < 1]
        if bad:
            raise HypothesisError(
                f"level {bad[0]}: e_n = 0 contradicts the surjectivity of the "
                "local restriction in the Heegner setting")
        return _exact(((n, v - 1) for n, v in enumerate(vals)), ring, prov)
    if setting is SettingTag.HEEGNER_FINE:
        intervals = tuple((n, max(0, v - 2), max(0, v - 1)) for n, v in enumerate(vals))
        return PredictedCharIdeal(ring=ring, provenance=prov, intervals=intervals)
    raise SettingError(f"unhandled setting {setting}")


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
    proven = predict(setting, s)
    conj_object = SETTING_CONJECTURE_OBJECT[setting]
    notes = [
        "level-0 factor follows the convention that the zeroth cyclotomic "
        "factor is T with degree 1",
    ]
    if setting in (SettingTag.CM_INERT_CYC, SettingTag.CM_SPLIT_CYC):
        notes.append(
            "the conjectural equality is equivalent to finiteness of the fine "
            "Tate-Shafarevich group over the cyclotomic tower")
    if setting is SettingTag.CM_SPLIT_SINGLE_Q:
        notes.append(
            "the conjectural equality is equivalent to finiteness of the "
            "q-primary fine Tate-Shafarevich group over the single-prime tower")
    if setting in (SettingTag.HEEGNER_BDP, SettingTag.HEEGNER_FINE):
        notes.append(
            "the interval leaves the exact multiplicities undetermined; no "
            "distinguished value inside it is preferred")
        conj = predict(SettingTag.HEEGNER_FINE, s)
        conj = PredictedCharIdeal(ring=conj.ring,
                                  provenance=f"{setting.value}/conjectural",
                                  intervals=conj.intervals)
    else:
        conj = PredictedCharIdeal(ring=proven.ring,
                                  provenance=f"{setting.value}/conjectural",
                                  multiplicities=proven.multiplicities)
    return {
        "setting": setting.value,
        "object": conj_object,
        "status": "conjectural",
        "prediction": conj.as_dict(),
        "proven_shape": {
            "object": SETTING_OBJECT[setting][0],
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
