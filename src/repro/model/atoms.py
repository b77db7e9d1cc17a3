"""Relation signatures, atoms, and facts.

Every relation name ``R`` has a fixed *signature* ``[n, k]`` with
``n >= k >= 1``: ``n`` is the arity and positions ``1..k`` form the primary
key.  ``R`` is *all-key* when ``n == k``.

An :class:`Atom` is ``R(s1, ..., sn)`` where each ``si`` is a variable or a
constant.  Following the paper we write atoms as ``R(x⃗ | y⃗)`` with the
primary-key positions first.  A :class:`Fact` is an atom without variables.
Two facts are *key-equal* when they have the same relation name and agree on
the key positions.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Tuple

from .symbols import Constant, Term, Variable, constants_of, make_constant, make_term, variables_of


class RelationSchema:
    """A relation name together with its signature ``[arity, key_size]``."""

    __slots__ = ("name", "arity", "key_size")

    def __init__(self, name: str, arity: int, key_size: int) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("relation name must be a non-empty string")
        if not (isinstance(arity, int) and isinstance(key_size, int)):
            raise TypeError("arity and key_size must be integers")
        if not (arity >= key_size >= 1):
            raise ValueError(
                f"signature [{arity},{key_size}] violates n >= k >= 1 for relation {name!r}"
            )
        self.name = name
        self.arity = arity
        self.key_size = key_size

    @property
    def is_all_key(self) -> bool:
        """``True`` iff every position belongs to the primary key."""
        return self.arity == self.key_size

    @property
    def key_positions(self) -> range:
        """0-based positions of the primary key."""
        return range(self.key_size)

    @property
    def nonkey_positions(self) -> range:
        """0-based positions outside the primary key."""
        return range(self.key_size, self.arity)

    def __repr__(self) -> str:
        return f"RelationSchema({self.name!r}, arity={self.arity}, key_size={self.key_size})"

    def __str__(self) -> str:
        return f"{self.name}[{self.arity},{self.key_size}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationSchema)
            and self.name == other.name
            and self.arity == other.arity
            and self.key_size == other.key_size
        )

    def __hash__(self) -> int:
        return hash(("RelationSchema", self.name, self.arity, self.key_size))

    def atom(self, *terms: Any) -> "Atom":
        """Build an atom over this relation from raw term values."""
        return Atom(self, tuple(make_term(t) for t in terms))

    def fact(self, *values: Any) -> "Fact":
        """Build a fact over this relation from raw constant values."""
        return Fact(self, tuple(make_constant(v) for v in values))


class Atom:
    """An atom ``R(s1, ..., sn)`` over a relation schema."""

    __slots__ = ("relation", "terms", "_hash")

    def __init__(self, relation: RelationSchema, terms: Sequence[Term]) -> None:
        terms = tuple(terms)
        if len(terms) != relation.arity:
            raise ValueError(
                f"atom over {relation} needs {relation.arity} terms, got {len(terms)}"
            )
        for t in terms:
            if not isinstance(t, (Variable, Constant)):
                raise TypeError(f"term {t!r} is neither a Variable nor a Constant")
        self.relation = relation
        self.terms = terms
        self._hash = hash(("Atom", relation, terms))

    # -- structural accessors -------------------------------------------------

    @property
    def name(self) -> str:
        """The relation name."""
        return self.relation.name

    @property
    def key_terms(self) -> Tuple[Term, ...]:
        """The terms in primary-key positions (``x⃗``)."""
        return self.terms[: self.relation.key_size]

    @property
    def nonkey_terms(self) -> Tuple[Term, ...]:
        """The terms outside the primary key (``y⃗``)."""
        return self.terms[self.relation.key_size :]

    @property
    def key_variables(self) -> frozenset:
        """``key(F)``: the variables occurring in key positions."""
        return variables_of(self.key_terms)

    @property
    def variables(self) -> frozenset:
        """``vars(F)``: all variables occurring in the atom."""
        return variables_of(self.terms)

    @property
    def nonkey_variables(self) -> frozenset:
        """The variables occurring only counted from non-key positions."""
        return variables_of(self.nonkey_terms)

    @property
    def constants(self) -> frozenset:
        """All constants occurring in the atom."""
        return constants_of(self.terms)

    @property
    def is_fact(self) -> bool:
        """``True`` iff the atom contains no variable."""
        return not self.variables

    # -- behaviour -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Atom({self!s})"

    def __str__(self) -> str:
        key = ", ".join(str(t) for t in self.key_terms)
        rest = ", ".join(str(t) for t in self.nonkey_terms)
        if rest:
            return f"{self.name}({key} | {rest})"
        return f"{self.name}({key})"

    def __eq__(self, other: object) -> bool:
        # A Fact compares equal to a ground Atom with the same relation and
        # terms: a fact *is* an atom without variables.
        return (
            isinstance(other, Atom)
            and self.relation == other.relation
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # The cached hash must NOT cross process boundaries: string hashing
        # is salted per interpreter (PYTHONHASHSEED), so an unpickled atom
        # carrying its origin process's hash would be == to a locally built
        # atom yet land in a different hash bucket — silently breaking set
        # and dict membership (e.g. query atoms shipped to shard workers).
        return (self.relation, self.terms)

    def __setstate__(self, state) -> None:
        relation, terms = state
        self.relation = relation
        self.terms = terms
        self._hash = hash(("Atom", relation, terms))

    def to_fact(self) -> "Fact":
        """Convert a variable-free atom into a :class:`Fact`."""
        if self.variables:
            raise ValueError(f"atom {self} contains variables and is not a fact")
        return Fact(self.relation, self.terms)

    def rename_relation(self, relation: RelationSchema) -> "Atom":
        """Return the same atom over a different (same-signature) relation."""
        if (relation.arity, relation.key_size) != (self.relation.arity, self.relation.key_size):
            raise ValueError("target relation must have the same signature")
        return Atom(relation, self.terms)


class Fact(Atom):
    """A variable-free atom.  Facts populate uncertain databases."""

    __slots__ = ()

    def __init__(self, relation: RelationSchema, terms: Sequence[Term]) -> None:
        super().__init__(relation, terms)
        if self.variables:
            raise ValueError(f"fact must not contain variables: {self}")

    @property
    def key_values(self) -> Tuple[Constant, ...]:
        """The constants in primary-key positions."""
        return self.key_terms  # type: ignore[return-value]

    @property
    def values(self) -> Tuple[Any, ...]:
        """The raw Python values of all positions."""
        return tuple(t.value for t in self.terms)  # type: ignore[union-attr]

    @property
    def block_key(self) -> Tuple[str, Tuple[Constant, ...]]:
        """The identifier of the block this fact belongs to."""
        return (self.relation.name, self.key_terms)

    def __repr__(self) -> str:
        return f"Fact({self!s})"

    def key_equal(self, other: "Fact") -> bool:
        """``True`` iff the two facts are key-equal (same relation, same key)."""
        return (
            self.relation.name == other.relation.name
            and self.key_terms == other.key_terms
        )


def atoms_use_distinct_relations(atoms: Iterable[Atom]) -> bool:
    """``True`` iff no relation name appears twice (i.e., no self-join)."""
    seen = set()
    for atom in atoms:
        if atom.name in seen:
            return False
        seen.add(atom.name)
    return True
