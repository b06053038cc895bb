"""Game data model, built-in catalog, and the JSON game-file format.

A two-party non-local game is a predicate table V(a,b|x,y) together with a
joint input distribution pi(x,y). Predicate entries are non-negative reals
so that weighted Bell expressions (the three-outcome correlation game
``cglmp``) fit the same model; games flagged ``binary_predicate`` restrict
entries to {0, 1}.

Catalog value conventions: ``g1``, ``g2`` and ``chsh`` quote normalized
values (uniform pi = 1/4, so the raw Bell sum is 4x the normalized value);
``cglmp`` is conventionally quoted as the raw sum of its weighted expression
(classical bound 6), which is also 4x its normalized value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnknownGameError, ValidationError

PI_SUM_ATOL = 1e-12
# Entries of the dense predicate table n_x * n_y * n_a * n_b; a game file
# over it is refused before the table is allocated.
MAX_PREDICATE_ENTRIES = 1_000_000

GAME_IDS = ("g1", "g2", "chsh", "cglmp")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of a two-party game.

    ``predicate`` is indexed [x, y, a, b]; ``input_dist`` is pi(x, y).
    """

    id: str
    n_x: int
    n_y: int
    n_a: int
    n_b: int
    predicate: np.ndarray
    input_dist: np.ndarray
    binary_predicate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "predicate", _readonly(self.predicate))
        object.__setattr__(self, "input_dist", _readonly(self.input_dist))

    def pi_a(self) -> np.ndarray:
        """Marginal pi_A(x)."""
        return self.input_dist.sum(axis=1)

    def pi_b_given_x(self, x: int) -> np.ndarray:
        """Conditional pi_B(y|x); equals pi_B(y) for free games."""
        px = self.input_dist[x, :].sum()
        if px <= 0.0:
            return np.zeros(self.n_y)
        return self.input_dist[x, :] / px

    def is_uniform(self) -> bool:
        return bool(
            np.allclose(self.input_dist, 1.0 / (self.n_x * self.n_y), atol=PI_SUM_ATOL)
        )

    def equals(self, other: "GameSpec") -> bool:
        """Bit-for-bit equality of all numeric fields."""
        return (
            self.id == other.id
            and (self.n_x, self.n_y, self.n_a, self.n_b)
            == (other.n_x, other.n_y, other.n_a, other.n_b)
            and self.binary_predicate == other.binary_predicate
            and np.array_equal(self.predicate, other.predicate)
            and np.array_equal(self.input_dist, other.input_dist)
        )


@dataclass(frozen=True)
class GameCatalogEntry:
    spec: GameSpec
    known_classical_value: float | None
    known_quantum_value: float | None
    provenance: str
    value_convention: str = "normalized"


def swap_parties(spec: GameSpec) -> GameSpec:
    """The same game with the roles of the two parties exchanged."""
    return GameSpec(
        id=spec.id + ":swapped",
        n_x=spec.n_y,
        n_y=spec.n_x,
        n_a=spec.n_b,
        n_b=spec.n_a,
        predicate=np.transpose(spec.predicate, (1, 0, 3, 2)),
        input_dist=spec.input_dist.T,
        binary_predicate=spec.binary_predicate,
    )


def _sparse_predicate(n_x, n_y, n_a, n_b, entries) -> np.ndarray:
    v = np.zeros((n_x, n_y, n_a, n_b))
    for (x, y, a, b), w in entries:
        v[x, y, a, b] = w
    return v


def _game_g1() -> GameSpec:
    # Binary game winning on a single output pair for three input pairs and
    # on anticorrelated outputs for (x,y) = (1,0).
    wins = [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 1)]
    return GameSpec(
        id="g1",
        n_x=2, n_y=2, n_a=2, n_b=2,
        predicate=_sparse_predicate(2, 2, 2, 2, [(e, 1.0) for e in wins]),
        input_dist=np.full((2, 2), 0.25),
    )


def _game_g2() -> GameSpec:
    # Binary game: XOR-type constraints on three input pairs, a unique output
    # pair on (x,y) = (1,1).
    wins = [
        (0, 0, 0, 0), (0, 0, 1, 1),
        (0, 1, 0, 1), (0, 1, 1, 0),
        (1, 0, 0, 1), (1, 0, 1, 0),
        (1, 1, 0, 1),
    ]
    return GameSpec(
        id="g2",
        n_x=2, n_y=2, n_a=2, n_b=2,
        predicate=_sparse_predicate(2, 2, 2, 2, [(e, 1.0) for e in wins]),
        input_dist=np.full((2, 2), 0.25),
    )


def _game_chsh() -> GameSpec:
    v = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x * y):
                        v[x, y, a, b] = 1.0
    return GameSpec(
        id="chsh", n_x=2, n_y=2, n_a=2, n_b=2,
        predicate=v, input_dist=np.full((2, 2), 0.25),
    )


def _game_cglmp() -> GameSpec:
    # Weighted three-outcome correlation expression; per input pair the
    # favoured outcome difference a - b (mod 3) earns weight 2 and one
    # neighbouring difference earns weight 1.
    v = np.zeros((2, 2, 3, 3))
    # (x, y) -> (difference rewarded with 2, difference rewarded with 1),
    # differences d meaning a = b + d (mod 3).
    rewards = {(0, 0): (0, 2), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (2, 1)}
    for (x, y), (d2, d1) in rewards.items():
        for b in range(3):
            v[x, y, (b + d2) % 3, b] += 2.0
            v[x, y, (b + d1) % 3, b] += 1.0
    return GameSpec(
        id="cglmp", n_x=2, n_y=2, n_a=3, n_b=3,
        predicate=v, input_dist=np.full((2, 2), 0.25),
        binary_predicate=False,
    )


_BUILDERS = {
    "g1": _game_g1,
    "g2": _game_g2,
    "chsh": _game_chsh,
    "cglmp": _game_cglmp,
}


def builtin_game(game_id: str) -> GameSpec:
    """One of the catalog games: g1, g2, chsh, cglmp."""
    try:
        return _BUILDERS[game_id]()
    except KeyError:
        raise UnknownGameError(
            f"unknown game {game_id!r}; catalog ids are {', '.join(GAME_IDS)}"
        ) from None


def matches_catalog(spec: GameSpec, game_id: str) -> bool:
    """True when the spec's tables equal the catalog game of that id."""
    return spec.id == game_id and spec.equals(builtin_game(game_id))


def catalog() -> dict[str, GameCatalogEntry]:
    """All built-in games with their known values and conventions."""
    sqrt13 = math.sqrt(13.0)
    sqrt29 = math.sqrt(29.0)
    sqrt33 = math.sqrt(33.0)
    omega_q_g2 = (
        35.0
        + (15740.0 - 972.0 * sqrt29) ** (1.0 / 3.0)
        + 2.0 ** (2.0 / 3.0) * (3935.0 + 243.0 * sqrt29) ** (1.0 / 3.0)
    ) / 108.0
    return {
        "g1": GameCatalogEntry(
            spec=builtin_game("g1"),
            known_classical_value=0.5,
            known_quantum_value=(16.0 + sqrt13) / 36.0,
            provenance="built-in; binary 2x2 hybrid of XOR and unique-output "
            "constraints, quantum optimum (16+sqrt(13))/36 on a "
            "non-maximally entangled qubit pair",
        ),
        "g2": GameCatalogEntry(
            spec=builtin_game("g2"),
            known_classical_value=0.75,
            known_quantum_value=omega_q_g2,
            provenance="built-in; binary 2x2 game with one unique-output "
            "constraint, cube-root closed-form quantum optimum "
            "~0.782218 on a non-maximally entangled qubit pair",
        ),
        "chsh": GameCatalogEntry(
            spec=builtin_game("chsh"),
            known_classical_value=0.75,
            known_quantum_value=(2.0 + math.sqrt(2.0)) / 4.0,
            provenance="built-in; XOR game a+b = x*y (mod 2), quantum optimum "
            "(2+sqrt(2))/4 at the Tsirelson point",
        ),
        "cglmp": GameCatalogEntry(
            spec=builtin_game("cglmp"),
            known_classical_value=6.0,
            known_quantum_value=(15.0 + sqrt33) / 3.0,
            provenance="built-in; weighted two-input three-outcome correlation "
            "expression, raw-sum convention (classical bound 6), "
            "quantum optimum (15+sqrt(33))/3 on a non-maximally "
            "entangled qutrit pair",
            value_convention="raw_sum",
        ),
    }


def validate_game(spec: GameSpec) -> list[str]:
    """Violation messages for every broken invariant; empty when valid."""
    violations: list[str] = []
    if not spec.id:
        violations.append("id: must be a non-empty string")
    for name, count in (("n_x", spec.n_x), ("n_y", spec.n_y)):
        if count < 1:
            violations.append(f"{name}: empty input set")
    for name, count in (("n_a", spec.n_a), ("n_b", spec.n_b)):
        if count < 1:
            violations.append(f"{name}: empty output set")
    if violations:
        return violations

    if spec.input_dist.shape != (spec.n_x, spec.n_y):
        violations.append(
            f"pi: expected shape ({spec.n_x}, {spec.n_y}), got {spec.input_dist.shape}"
        )
    else:
        finite = np.isfinite(spec.input_dist)
        for x, y in np.argwhere(~finite | (spec.input_dist < 0.0)):
            fault = "negative probability" if finite[x, y] else "not a finite number"
            violations.append(f"pi[{x}][{y}]: {fault}")
        # inf + -inf sums to nan and large entries to inf, without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(spec.input_dist.sum())
        if not abs(total - 1.0) <= PI_SUM_ATOL:
            violations.append(f"pi: entries sum to {total!r}, expected 1")

    expected = (spec.n_x, spec.n_y, spec.n_a, spec.n_b)
    if spec.predicate.shape != expected:
        violations.append(
            f"predicate: expected shape {expected}, got {spec.predicate.shape}"
        )
        return violations
    # Each faulty entry, in C order, names the first of its faults.
    pred = spec.predicate
    finite = np.isfinite(pred)
    negative = pred < 0.0
    outside = (pred > 0.0) & (pred != 1.0) if spec.binary_predicate else np.zeros_like(finite)
    for x, y, a, b in np.argwhere(~finite | negative | outside):
        v = pred[x, y, a, b]
        where = f"predicate[x={x},y={y},a={a},b={b}]"
        if not finite[x, y, a, b]:
            violations.append(f"{where}: weight {float(v)} is not finite")
        elif negative[x, y, a, b]:
            violations.append(f"{where}: negative weight")
        else:
            violations.append(f"{where}: value {float(v)} outside {{0, 1}}")
    return violations


def game_to_dict(spec: GameSpec) -> dict:
    """JSON-ready form of a game (sparse predicate, absent entries are 0)."""
    entries = []
    for x, y, a, b in np.ndindex(*spec.predicate.shape):
        v = spec.predicate[x, y, a, b]
        if v != 0.0:
            entries.append({"x": int(x), "y": int(y), "a": int(a), "b": int(b), "v": float(v)})
    return {
        "id": spec.id,
        "inputs": [spec.n_x, spec.n_y],
        "outputs": [spec.n_a, spec.n_b],
        "pi": [[float(p) for p in row] for row in spec.input_dist],
        "predicate": entries,
        "binary_predicate": spec.binary_predicate,
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _sizes(data: dict, field: str) -> tuple[int, int]:
    first, second = data[field]
    for k, v in enumerate((first, second)):
        if not _is_int(v):
            raise ValidationError([f"{field}[{k}]: {v!r} is not an integer"])
    return first, second


def _check_table_size(inputs: tuple[int, int], outputs: tuple[int, int]) -> None:
    # The table is allocated with sizes below 1 raised to 1 (validate_game
    # reports those); Python integers make the products exact.
    sizes = {"inputs": inputs, "outputs": outputs}
    pairs = {field: max(m, 1) * max(n, 1) for field, (m, n) in sizes.items()}
    for field, count in pairs.items():
        if count > MAX_PREDICATE_ENTRIES:
            raise ValidationError([
                f"{field}: {list(sizes[field])} gives {count} pairs, more than the "
                f"{MAX_PREDICATE_ENTRIES} predicate entries allowed"
            ])
    if pairs["inputs"] * pairs["outputs"] > MAX_PREDICATE_ENTRIES:
        raise ValidationError([
            f"inputs, outputs: {list(inputs)} x {list(outputs)} gives "
            f"{pairs['inputs'] * pairs['outputs']} predicate entries, more than the "
            f"{MAX_PREDICATE_ENTRIES} allowed"
        ])


def _number(v, field: str) -> float:
    # A JSON number; booleans and numeric strings such as "1" are refused.
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError([f"{field}: {v!r} is not a number"])
    try:
        return float(v)
    except OverflowError:
        # an integer past the float range; its digits are not echoed
        raise ValidationError([f"{field}: integer outside the float range"]) from None


def _flag(v, field: str) -> bool:
    # A JSON boolean; the string "false" would otherwise read as true.
    if not isinstance(v, bool):
        raise ValidationError([f"{field}: {v!r} is not a boolean (true or false)"])
    return v


def _entry_index(k: int, entry: dict, shape: tuple[int, ...]) -> tuple[int, ...]:
    index = tuple(entry[key] for key in "xyab")
    for key, i, n in zip("xyab", index, shape):
        if not (_is_int(i) and 0 <= i < n):
            raise ValidationError([f"predicate[{k}].{key}: {i!r} is not an index in [0, {n})"])
    return index


def game_from_dict(data: dict) -> GameSpec:
    """Build and validate a game from its JSON document; bad fields raise with their path."""
    try:
        n_x, n_y = _sizes(data, "inputs")
        n_a, n_b = _sizes(data, "outputs")
        _check_table_size((n_x, n_y), (n_a, n_b))
        pi = np.array(
            [[_number(p, f"pi[{i}][{j}]") for j, p in enumerate(row)]
             for i, row in enumerate(data["pi"])],
            dtype=float,
        )
        pred = np.zeros((max(n_x, 1), max(n_y, 1), max(n_a, 1), max(n_b, 1)))
        first_entry: dict[tuple[int, ...], int] = {}
        for k, entry in enumerate(data["predicate"]):
            index = _entry_index(k, entry, (n_x, n_y, n_a, n_b))
            earlier = first_entry.setdefault(index, k)
            if earlier != k:
                raise ValidationError(
                    [f"predicate[{k}]: duplicates predicate[{earlier}] at (x, y, a, b) = {index}"]
                )
            pred[index] = _number(entry["v"], f"predicate[{k}].v")
        spec = GameSpec(
            id=str(data["id"]),
            n_x=n_x, n_y=n_y, n_a=n_a, n_b=n_b,
            predicate=pred,
            input_dist=pi,
            binary_predicate=_flag(data.get("binary_predicate", True), "binary_predicate"),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed game document: {exc!r}") from exc
    violations = validate_game(spec)
    if violations:
        raise ValidationError(violations)
    return spec


def load_game(path) -> GameSpec:
    """Read and validate a JSON game file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # json.load reads integer literals with int(), which refuses more
        # than sys.get_int_max_str_digits() digits
        raise ParseError(f"{path}: an integer literal has too many digits to read") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: arrays or objects nested too deeply to read") from exc
    return game_from_dict(data)


def save_game(spec: GameSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(spec), fh, indent=2)
        fh.write("\n")
