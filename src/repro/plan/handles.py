"""The per-query handle pool: a (table, token) side is decrypted once.

Chain positions naming the same table under byte-identical tokens (and
the same pre-filter) collapse into one :class:`SideGroup`, so a
self-join chain opens one decrypt stream and fans its handles out to
every consuming position.  Handles are a deterministic function of
(row, token), so the fan-out is sound by construction.

Across queries the series cache (:mod:`repro.series.cache`) is the one
retention tier: reuse is only ever possible for a literally re-presented
token, because handles are unlinkable across query keys (the scheme's
privacy property).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.series.cache import SIDE_DIGEST_SIZE


@dataclass
class SideGroup:
    """One distinct (table, token) side and the chain positions it feeds."""

    table: str
    token: object
    prefilter: "dict | None" = None
    positions: list[int] = field(default_factory=list)


def group_chain_sides(query, key: bytes) -> list[SideGroup]:
    """The per-query handle pool: distinct sides of a chain query.

    ``key`` is the query's :func:`~repro.series.cache.series_key`, whose
    per-position digests already cover table, token bytes and pre-filter
    — positions with equal digests land in one group and one decrypt
    stream serves them all.  The pool's hit count is
    ``total positions - len(groups)``.
    """
    groups: dict[bytes, SideGroup] = {}
    for position, table in enumerate(query.tables):
        digest = key[
            position * SIDE_DIGEST_SIZE:(position + 1) * SIDE_DIGEST_SIZE
        ]
        group = groups.get(digest)
        if group is None:
            group = groups[digest] = SideGroup(
                table, query.tokens[position], query.prefilters[position]
            )
        group.positions.append(position)
    return list(groups.values())
