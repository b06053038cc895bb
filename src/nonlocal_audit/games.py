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
from operator import itemgetter

import numpy as np

from .errors import ParseError, UnknownGameError, ValidationError

PI_SUM_ATOL = 1e-12
# Entries of the dense predicate table n_x * n_y * n_a * n_b; a game file
# over it is refused before the table is allocated.
MAX_PREDICATE_ENTRIES = 1_000_000
# Range of a non-zero predicate weight. The planar Newton polish multiplies
# three weights and divides by differences of them; past this range those
# leave the float range.
MIN_WEIGHT, MAX_WEIGHT = 1e-100, 1e100
# Characters of an offending value that a refusal message echoes.
SHOWN_CHARS = 40


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of a two-party game.

    A game is ``(id, predicate, input_dist, binary_predicate)``.
    ``predicate`` is indexed [x, y, a, b]; ``input_dist`` is pi(x, y). The
    input and output counts ``n_x, n_y, n_a, n_b`` are read from the
    predicate's axes.
    """

    id: str
    predicate: np.ndarray
    input_dist: np.ndarray
    binary_predicate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "predicate", _readonly(self.predicate))
        object.__setattr__(self, "input_dist", _readonly(self.input_dist))

    @property
    def n_x(self) -> int:
        return self.predicate.shape[0]

    @property
    def n_y(self) -> int:
        return self.predicate.shape[1]

    @property
    def n_a(self) -> int:
        return self.predicate.shape[2]

    @property
    def n_b(self) -> int:
        return self.predicate.shape[3]

    @property
    def weights(self) -> np.ndarray:
        """pi(x, y) V(a, b | x, y), indexed [x, y, a, b]: the payoff of each entry."""
        return self.input_dist[:, :, None, None] * self.predicate

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
        # np.allclose(pi, 1 / (n_x n_y), rtol=0, atol=PI_SUM_ATOL); NaN or inf reaches the max
        deviation = np.abs(self.input_dist - 1.0 / (self.n_x * self.n_y))
        return bool(deviation.max(initial=0.0) <= PI_SUM_ATOL)

    def equals(self, other: "GameSpec") -> bool:
        """Bit-for-bit equality of all numeric fields."""
        return (
            self.id == other.id
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
        predicate=np.transpose(spec.predicate, (1, 0, 3, 2)),
        input_dist=spec.input_dist.T,
        binary_predicate=spec.binary_predicate,
    )


def _uniform_binary(game_id: str, wins) -> GameSpec:
    """The binary 2x2x2x2 game under uniform pi that wins on each (x, y, a, b) listed."""
    predicate = np.zeros((2, 2, 2, 2))
    for entry in wins:
        predicate[entry] = 1.0
    return GameSpec(id=game_id, predicate=predicate, input_dist=np.full((2, 2), 0.25))


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
    return GameSpec(id="cglmp", predicate=v, input_dist=np.full((2, 2), 0.25),
                    binary_predicate=False)


def _catalog() -> dict[str, GameCatalogEntry]:
    """The catalog games by id, each with its published values and provenance."""
    sqrt29 = math.sqrt(29.0)
    omega_q_g2 = (
        35.0
        + (15740.0 - 972.0 * sqrt29) ** (1.0 / 3.0)
        + 2.0 ** (2.0 / 3.0) * (3935.0 + 243.0 * sqrt29) ** (1.0 / 3.0)
    ) / 108.0
    entries = (
        GameCatalogEntry(
            # A single winning output pair for three input pairs and
            # anticorrelated outputs for (x,y) = (1,0).
            spec=_uniform_binary("g1", [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0),
                                        (1, 1, 0, 1)]),
            known_classical_value=0.5,
            known_quantum_value=(16.0 + math.sqrt(13.0)) / 36.0,
            provenance="built-in; binary 2x2 hybrid of XOR and unique-output "
            "constraints, quantum optimum (16+sqrt(13))/36 on a "
            "non-maximally entangled qubit pair",
        ),
        GameCatalogEntry(
            # XOR-type constraints on three input pairs, a unique output
            # pair on (x,y) = (1,1).
            spec=_uniform_binary("g2", [(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
                                        (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 1)]),
            known_classical_value=0.75,
            known_quantum_value=omega_q_g2,
            provenance="built-in; binary 2x2 game with one unique-output "
            "constraint, cube-root closed-form quantum optimum "
            "~0.782218 on a non-maximally entangled qubit pair",
        ),
        GameCatalogEntry(
            # XOR game a + b = x y (mod 2)
            spec=_uniform_binary("chsh", [(x, y, a, b) for x, y, a, b in np.ndindex(2, 2, 2, 2)
                                          if a ^ b == x * y]),
            known_classical_value=0.75,
            known_quantum_value=(2.0 + math.sqrt(2.0)) / 4.0,
            provenance="built-in; XOR game a+b = x*y (mod 2), quantum optimum "
            "(2+sqrt(2))/4 at the Tsirelson point",
        ),
        GameCatalogEntry(
            spec=_game_cglmp(),
            known_classical_value=6.0,
            known_quantum_value=(15.0 + math.sqrt(33.0)) / 3.0,
            provenance="built-in; weighted two-input three-outcome correlation "
            "expression, raw-sum convention (classical bound 6), "
            "quantum optimum (15+sqrt(33))/3 on a non-maximally "
            "entangled qutrit pair",
            value_convention="raw_sum",
        ),
    )
    return {entry.spec.id: entry for entry in entries}


# Built once: every lookup shares these entries and their read-only specs.
_CATALOG = _catalog()
GAME_IDS = tuple(_CATALOG)


def builtin_game(game_id: str) -> GameSpec:
    """The catalog game of an id in ``GAME_IDS``: one shared, read-only spec per id."""
    if isinstance(game_id, str) and game_id in _CATALOG:
        return _CATALOG[game_id].spec
    raise UnknownGameError(
        f"unknown game {_shown(game_id)}; catalog ids are {', '.join(GAME_IDS)}")


def matches_catalog(spec: GameSpec, game_id: str) -> bool:
    """True when the spec's tables equal the catalog game of that id."""
    return spec.id == game_id and spec.equals(builtin_game(game_id))


def catalog() -> dict[str, GameCatalogEntry]:
    """All built-in games with their known values and conventions, in a new dict."""
    return dict(_CATALOG)


def _empty_sets(n_x: int, n_y: int, n_a: int, n_b: int) -> list[str]:
    """One message per input or output count below 1."""
    sizes = (("n_x", n_x, "input"), ("n_y", n_y, "input"),
             ("n_a", n_a, "output"), ("n_b", n_b, "output"))
    return [f"{name}: empty {kind} set" for name, count, kind in sizes if count < 1]


def validate_game(spec: GameSpec) -> list[str]:
    """Violation messages for every broken invariant; empty when valid."""
    violations: list[str] = []
    if not spec.id:
        violations.append("id: must be a non-empty string")
    if spec.predicate.ndim != 4:
        # the sizes below are read from the predicate's axes
        return violations + [
            f"predicate: expected 4 axes (x, y, a, b), got shape {spec.predicate.shape}"]
    violations += _empty_sets(spec.n_x, spec.n_y, spec.n_a, spec.n_b)
    if violations:
        return violations

    if spec.input_dist.shape != (spec.n_x, spec.n_y):
        violations.append(
            f"pi: expected shape ({spec.n_x}, {spec.n_y}), got {spec.input_dist.shape}"
        )
    else:
        pi = spec.input_dist
        faulty = ~((pi >= 0.0) & (pi < math.inf))  # NaN fails both
        if faulty.any():
            for x, y in np.argwhere(faulty):
                fault = "negative probability" if math.isfinite(pi[x, y]) else "not a finite number"
                violations.append(f"pi[{x}][{y}]: {fault}")
        # inf + -inf sums to nan and large entries to inf, without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(pi.sum())
        if not abs(total - 1.0) <= PI_SUM_ATOL:
            violations.append(f"pi: entries sum to {total!r}, expected 1")

    # A valid weight is 0, or 1 if binary, or else in range; NaN fails each test.
    # Each faulty entry, in C order, names the first of its faults.
    pred = spec.predicate
    low, high = (1.0, 1.0) if spec.binary_predicate else (MIN_WEIGHT, MAX_WEIGHT)
    valid = (pred == 0.0) | ((pred >= low) & (pred <= high))
    if valid.all():
        return violations
    for x, y, a, b in np.argwhere(~valid):
        v = float(pred[x, y, a, b])
        where = f"predicate[x={x},y={y},a={a},b={b}]"
        if not math.isfinite(v):
            violations.append(f"{where}: weight {v} is not finite")
        elif v < 0.0:
            violations.append(f"{where}: negative weight")
        elif spec.binary_predicate:
            violations.append(f"{where}: value {v} outside {{0, 1}}")
        else:
            violations.append(f"{where}: weight {v} outside [{MIN_WEIGHT}, {MAX_WEIGHT}]")
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


def _shown(v) -> str:
    """repr(v) cut to SHOWN_CHARS characters with an ellipsis, so a huge value is not echoed."""
    text = repr(v)
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _sizes(data: dict, field: str) -> tuple[int, int]:
    first, second = _array(data[field])
    for k, v in enumerate((first, second)):
        if not _is_int(v):
            raise ValidationError([f"{field}[{k}]: {_shown(v)} is not an integer"])
    return first, second


def _check_table_size(inputs: tuple[int, int], outputs: tuple[int, int]) -> None:
    # Every size is at least 1 here; Python integers make the products exact.
    sizes = {"inputs": inputs, "outputs": outputs}
    pairs = {field: m * n for field, (m, n) in sizes.items()}
    for field, count in pairs.items():
        if count > MAX_PREDICATE_ENTRIES:
            raise ValidationError([
                f"{field}: {_shown(list(sizes[field]))} gives {_shown(count)} pairs, more "
                f"than the {MAX_PREDICATE_ENTRIES} predicate entries allowed"
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
        raise ValidationError([f"{field}: {_shown(v)} is not a number"])
    try:
        return float(v)
    except OverflowError:
        # an integer past the float range; its digits are not echoed
        raise ValidationError([f"{field}: integer outside the float range"]) from None


def _flag(v, field: str) -> bool:
    # A JSON boolean; the string "false" would otherwise read as true.
    if not isinstance(v, bool):
        raise ValidationError([f"{field}: {_shown(v)} is not a boolean (true or false)"])
    return v


def _array(v) -> list:
    # A JSON array; a string or an object would iterate its characters or keys.
    if not isinstance(v, list):
        raise TypeError(f"{_shown(v)} is not an array")
    return v


def _known_fields(data, fields: set[str], path: str) -> None:
    # A JSON object with no key outside ``fields``: a misspelt field would
    # otherwise go unread. The first such key is named, bare if it is a
    # short identifier and by its repr otherwise.
    if not isinstance(data, dict):
        raise TypeError(f"{_shown(data)} is not an object")
    if not data.keys() <= fields:
        key = next(key for key in data if key not in fields)
        plain = isinstance(key, str) and key.isidentifier() and len(key) <= SHOWN_CHARS
        raise ValidationError([f"{path}{key if plain else _shown(key)}: unknown field"])


_ENTRY_FIELDS = {"x", "y", "a", "b", "v"}
_entry_indices = itemgetter("x", "y", "a", "b")


def _entry_index(k: int, entry: dict, shape: tuple[int, ...]) -> tuple[int, ...]:
    index = _entry_indices(entry)
    for key, i, n in zip("xyab", index, shape):
        if not (_is_int(i) and 0 <= i < n):
            raise ValidationError(
                [f"predicate[{k}].{key}: {_shown(i)} is not an index in [0, {n})"])
    return index


def game_from_dict(data: dict) -> GameSpec:
    """Build and validate a game from its JSON document; bad fields raise with their path."""
    field = "game document"  # the part being read, named by a structural fault
    try:
        _known_fields(data, {"id", "inputs", "outputs", "pi", "predicate", "binary_predicate"}, "")
        field = "inputs"
        n_x, n_y = _sizes(data, "inputs")
        field = "outputs"
        n_a, n_b = _sizes(data, "outputs")
        # An empty axis is refused before any size check or allocation: the
        # other axis may be as large as it likes, the table is empty.
        empty = _empty_sets(n_x, n_y, n_a, n_b)
        if empty:
            raise ValidationError(empty)
        _check_table_size((n_x, n_y), (n_a, n_b))
        field = "pi"
        rows = []
        for i, row in enumerate(_array(data["pi"])):
            field = f"pi[{i}]"
            rows.append([_number(p, f"{field}[{j}]") for j, p in enumerate(_array(row))])
        field = "pi"
        pi = np.array(rows, dtype=float)
        field = "predicate"
        shape = (n_x, n_y, n_a, n_b)
        entries = _array(data["predicate"])
        field = None  # a fault in the loop is named predicate[k]
        first: dict[int, int] = {}  # flat offset of (x, y, a, b) -> the first entry there
        weights = []
        # A plain object with in-range int indices and a float weight is read
        # inline; the helpers word the refusal of any other: keys, x, y, a, b, repeat, v.
        for k, entry in enumerate(entries):
            if type(entry) is not dict or not entry.keys() <= _ENTRY_FIELDS:
                _known_fields(entry, _ENTRY_FIELDS, f"predicate[{k}].")
            x, y, a, b = entry["x"], entry["y"], entry["a"], entry["b"]
            if not (type(x) is int and type(y) is int and type(a) is int and type(b) is int
                    and 0 <= x < n_x and 0 <= y < n_y and 0 <= a < n_a and 0 <= b < n_b):
                x, y, a, b = _entry_index(k, entry, shape)
            earlier = first.setdefault(((x * n_y + y) * n_a + a) * n_b + b, k)
            if earlier != k:
                raise ValidationError([f"predicate[{k}]: duplicates predicate[{earlier}] "
                                       f"at (x, y, a, b) = {_entry_indices(entry)}"])
            v = entry["v"]
            weights.append(v if type(v) is float else _number(v, f"predicate[{k}].v"))
        pred = np.zeros(shape)
        pred.put(list(first), weights)
        field = "id"
        if not isinstance(data["id"], str):  # str() would read null as the id 'None'
            raise ValidationError([f"id: {_shown(data['id'])} is not a string"])
        spec = GameSpec(
            id=data["id"],
            predicate=pred,
            input_dist=pi,
            binary_predicate=_flag(data.get("binary_predicate", True), "binary_predicate"),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"{field or f'predicate[{k}]'}: malformed ({exc!r})") from exc
    violations = validate_game(spec)
    if violations:
        raise ValidationError(violations)
    return spec


def load_game(path) -> GameSpec:
    """Read and validate a JSON game file; an object that repeats a key is refused."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(f"{path}: an object repeats the key {_shown(key)}")
                seen.add(key)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
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
