"""Tests for the five Secure Join algorithms, including Claim 5.1's cases.

The eight cases of the security proof (same/different query, equal/
unequal join values, selection satisfied or not) reduce to: handles
match iff all three conditions hold; every other combination matches
only with negligible probability, which these tests sample.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.encoding as encoding
from repro.core.scheme import SecureJoinParams, SecureJoinScheme
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import encode_value
from repro.errors import SchemeError


@pytest.fixture
def scheme():
    params = SecureJoinParams(num_attributes=2, in_clause_limit=3)
    return SecureJoinScheme(params, FastBackend(), random.Random(42))


@pytest.fixture
def msk(scheme):
    return scheme.setup()


def _handles(scheme, msk, *, key, selection_a, selection_b, row_a, row_b):
    """Decrypt two rows under (possibly different) tokens; return handles."""
    token_a = scheme.token(msk, selection_a, key[0])
    token_b = scheme.token(msk, selection_b, key[1])
    ct_a = scheme.encrypt_row(msk, row_a[0], row_a[1])
    ct_b = scheme.encrypt_row(msk, row_b[0], row_b[1])
    return scheme.decrypt(token_a, ct_a), scheme.decrypt(token_b, ct_b)


class TestClaim51:
    """The eight cases of the proof of Theorem 5.2."""

    def test_case1_same_query_same_join_selected_matches(self, scheme, msk):
        k = scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k, k),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["red", "x"]), row_b=(7, ["blue", "y"]),
        )
        assert scheme.match(d_a, d_b)

    def test_case2_same_query_same_join_unselected_no_match(self, scheme, msk):
        k = scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k, k),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["NOT-red", "x"]), row_b=(7, ["blue", "y"]),
        )
        assert not scheme.match(d_a, d_b)

    def test_case3_same_query_different_join_selected_no_match(self, scheme, msk):
        k = scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k, k),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["red", "x"]), row_b=(8, ["blue", "y"]),
        )
        assert not scheme.match(d_a, d_b)

    def test_case4_same_query_different_join_unselected_no_match(self, scheme, msk):
        k = scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k, k),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["zzz", "x"]), row_b=(8, ["blue", "y"]),
        )
        assert not scheme.match(d_a, d_b)

    def test_case5_different_query_same_join_selected_no_match(self, scheme, msk):
        k1, k2 = scheme.new_query_key(), scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k1, k2),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["red", "x"]), row_b=(7, ["blue", "y"]),
        )
        assert not scheme.match(d_a, d_b)

    def test_case6_different_query_same_join_unselected_no_match(self, scheme, msk):
        k1, k2 = scheme.new_query_key(), scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k1, k2),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["zzz", "x"]), row_b=(7, ["blue", "y"]),
        )
        assert not scheme.match(d_a, d_b)

    def test_case7_different_query_different_join_selected_no_match(self, scheme, msk):
        k1, k2 = scheme.new_query_key(), scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k1, k2),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["red", "x"]), row_b=(8, ["blue", "y"]),
        )
        assert not scheme.match(d_a, d_b)

    def test_case8_different_query_different_join_unselected_no_match(self, scheme, msk):
        k1, k2 = scheme.new_query_key(), scheme.new_query_key()
        d_a, d_b = _handles(
            scheme, msk, key=(k1, k2),
            selection_a={0: ["red"]}, selection_b={0: ["blue"]},
            row_a=(7, ["u", "x"]), row_b=(8, ["v", "y"]),
        )
        assert not scheme.match(d_a, d_b)

    def test_negative_cases_sampled(self, scheme, msk):
        """Repeat the no-match cases with fresh randomness (probabilistic)."""
        for trial in range(10):
            k1, k2 = scheme.new_query_key(), scheme.new_query_key()
            d_a, d_b = _handles(
                scheme, msk, key=(k1, k2),
                selection_a={0: [f"s{trial}"]}, selection_b={0: [f"s{trial}"]},
                row_a=(trial, [f"s{trial}", "x"]), row_b=(trial, [f"s{trial}", "y"]),
            )
            assert not scheme.match(d_a, d_b)


class TestSchemeMechanics:
    def test_in_clause_membership(self, scheme, msk):
        """Any of the t IN values selects the row."""
        k = scheme.new_query_key()
        token = scheme.token(msk, {0: ["a", "b", "c"]}, k)
        reference = scheme.decrypt(
            token, scheme.encrypt_row(msk, 1, ["a", "pad"])
        )
        for value in ("b", "c"):
            handle = scheme.decrypt(
                token, scheme.encrypt_row(msk, 1, [value, "pad"])
            )
            assert scheme.match(reference, handle)
        miss = scheme.decrypt(token, scheme.encrypt_row(msk, 1, ["d", "pad"]))
        assert not scheme.match(reference, miss)

    def test_selection_on_second_attribute(self, scheme, msk):
        k = scheme.new_query_key()
        token = scheme.token(msk, {1: ["wanted"]}, k)
        hit = scheme.decrypt(token, scheme.encrypt_row(msk, 5, ["x", "wanted"]))
        miss = scheme.decrypt(token, scheme.encrypt_row(msk, 5, ["x", "other"]))
        other = scheme.decrypt(token, scheme.encrypt_row(msk, 5, ["y", "wanted"]))
        assert scheme.match(hit, other)
        assert not scheme.match(hit, miss)

    def test_conjunctive_selection(self, scheme, msk):
        """Both IN clauses must hold (AND semantics)."""
        k = scheme.new_query_key()
        token = scheme.token(msk, {0: ["a"], 1: ["b"]}, k)
        both = scheme.decrypt(token, scheme.encrypt_row(msk, 9, ["a", "b"]))
        both2 = scheme.decrypt(token, scheme.encrypt_row(msk, 9, ["a", "b"]))
        only_first = scheme.decrypt(token, scheme.encrypt_row(msk, 9, ["a", "z"]))
        assert scheme.match(both, both2)
        assert not scheme.match(both, only_first)

    def test_non_pk_fk_join_many_to_many(self, scheme, msk):
        """Duplicate join values on both sides all produce equal handles."""
        k = scheme.new_query_key()
        token = scheme.token(msk, {}, k)
        handles = [
            scheme.decrypt(token, scheme.encrypt_row(msk, 3, [f"r{i}", "y"]))
            for i in range(4)
        ]
        assert all(scheme.match(handles[0], h) for h in handles[1:])

    def test_query_key_nonzero(self, scheme):
        keys = {scheme.new_query_key() for _ in range(50)}
        assert 0 not in keys
        assert len(keys) == 50

    def test_dimension_checks(self, scheme, msk):
        other = SecureJoinScheme(
            SecureJoinParams(num_attributes=3, in_clause_limit=3),
            FastBackend(), random.Random(1),
        )
        other_msk = other.setup()
        token = other.token(other_msk, {}, 5)
        ct = scheme.encrypt_row(msk, 1, ["a", "b"])
        with pytest.raises(SchemeError):
            scheme.decrypt(token, ct)

    def test_msk_params_mismatch(self, scheme):
        other = SecureJoinScheme(
            SecureJoinParams(num_attributes=3, in_clause_limit=3),
            FastBackend(), random.Random(1),
        )
        other_msk = other.setup()
        with pytest.raises(SchemeError):
            scheme.encrypt_row(other_msk, 1, ["a", "b"])

    def test_handles_from_same_row_same_token_are_stable(self, scheme, msk):
        k = scheme.new_query_key()
        token = scheme.token(msk, {}, k)
        ct = scheme.encrypt_row(msk, 1, ["a", "b"])
        assert scheme.decrypt(token, ct) == scheme.decrypt(token, ct)


#: Few values of every cell type, so rows repeat values and mix types
#: that compare equal (1, True, 1.0) but embed apart.
_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 1.5]),
    st.sampled_from(["", "1", "a"]),
    st.sampled_from([b"", b"1"]),
)


@st.composite
def _tables(draw):
    """``(m, t, rows)``: rows of at most m attributes, so some are padded."""
    m = draw(st.integers(1, 4))
    t = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.tuples(_cells, st.lists(_cells, max_size=m)),
        min_size=1, max_size=6,
    ))
    return m, t, rows


def _reference(scheme, msk, rows, rng):
    """The paper's SJ.Enc row by row: ``g2^{w B*}`` with ``w`` from
    :meth:`VectorLayout.row_vector`."""
    layout, q = scheme.params.layout, scheme.backend.order
    return [
        tuple(scheme.backend.g2_powers(msk.ipe.b_star.vec_mat(
            layout.row_vector(join_value, attributes, q, rng)
        )))
        for join_value, attributes in rows
    ]


class TestEncryptRows:
    """``encrypt_rows`` on the reduced basis is the paper's ``w B*``."""

    @settings(max_examples=80, deadline=None)
    @given(table=_tables(), seed=st.integers(0, 2**32))
    def test_equals_w_times_b_star(self, table, seed):
        m, t, rows = table
        scheme = SecureJoinScheme(
            SecureJoinParams(m, t), FastBackend(), random.Random(seed)
        )
        msk = scheme.setup()
        rng = random.Random()
        rng.setstate(scheme.rng.getstate())
        expected = _reference(scheme, msk, rows, rng)
        ciphertexts = scheme.encrypt_rows(msk, rows)
        assert [c.elements for c in ciphertexts] == expected
        assert scheme.rng.getstate() == rng.getstate()

    def test_reduced_basis_has_d_minus_m_rows(self):
        for m, t in [(1, 1), (1, 10), (8, 1), (9, 1), (3, 4)]:
            scheme = SecureJoinScheme(
                SecureJoinParams(m, t), FastBackend(), random.Random(m)
            )
            columns = scheme.setup().reduced_basis
            d = scheme.params.dimension
            assert len(columns) == d
            assert {len(column) for column in columns} == {d - m}

    def test_each_distinct_encoding_is_hashed_once(self, monkeypatch):
        calls = []
        real = encoding.hash_bytes_to_zq

        def spy(data, q, domain):
            calls.append((domain, data))
            return real(data, q, domain)

        monkeypatch.setattr(encoding, "hash_bytes_to_zq", spy)
        scheme = SecureJoinScheme(
            SecureJoinParams(3, 2), FastBackend(), random.Random(1)
        )
        msk = scheme.setup()
        rows = [(1, [1, True]), (True, [1.0, 1]), (1, ["1", True, 1]),
                (1.0, [])]
        scheme.encrypt_rows(msk, rows)
        assert len(calls) == len(set(calls))
        joins = {encode_value(j) for j, _ in rows}
        attributes = {
            encode_value(v)
            for _, values in rows
            for v in list(values) + [None] * (3 - len(values))
        }
        assert sorted(data for _, data in calls) == sorted(
            list(joins) + list(attributes)
        )
        # The memos belong to the call: a second call hashes again, here
        # the join value 1 and the attributes 1, True and None.
        scheme.encrypt_rows(msk, rows[:1])
        assert len(calls) == len(joins) + len(attributes) + 4

    def test_rejected_row_draws_no_randomness(self, scheme, msk):
        state = scheme.rng.getstate()
        too_wide = (2, ["a", "b", "c"])
        for rows in ([too_wide], [(1, ["a"]), too_wide]):
            with pytest.raises(SchemeError, match="exceed"):
                scheme.encrypt_rows(msk, rows)
            assert scheme.rng.getstate() == state

    def test_encrypt_row_is_the_one_row_case(self, scheme, msk):
        state = scheme.rng.getstate()
        one = scheme.encrypt_row(msk, 4, ["a", 1.5])
        scheme.rng.setstate(state)
        assert scheme.encrypt_rows(msk, [(4, ["a", 1.5])]) == [one]


@pytest.mark.bn254
class TestSchemeOnRealPairing:
    """The same core behaviours on the real BN254 backend."""

    def test_match_and_no_match(self, bn254_backend):
        params = SecureJoinParams(1, 1, "bn254")
        scheme = SecureJoinScheme(params, bn254_backend, random.Random(7))
        msk = scheme.setup()
        k = scheme.new_query_key()
        token = scheme.token(msk, {0: ["yes"]}, k)
        d1 = scheme.decrypt(token, scheme.encrypt_row(msk, 1, ["yes"]))
        d2 = scheme.decrypt(token, scheme.encrypt_row(msk, 1, ["yes"]))
        d3 = scheme.decrypt(token, scheme.encrypt_row(msk, 2, ["yes"]))
        d4 = scheme.decrypt(token, scheme.encrypt_row(msk, 1, ["no"]))
        assert scheme.match(d1, d2)
        assert not scheme.match(d1, d3)
        assert not scheme.match(d1, d4)

    def test_fresh_keys_unlinkable(self, bn254_backend):
        params = SecureJoinParams(1, 1, "bn254")
        scheme = SecureJoinScheme(params, bn254_backend, random.Random(8))
        msk = scheme.setup()
        token1 = scheme.token(msk, {}, scheme.new_query_key())
        token2 = scheme.token(msk, {}, scheme.new_query_key())
        ct = scheme.encrypt_row(msk, 1, ["a"])
        assert not scheme.match(scheme.decrypt(token1, ct), scheme.decrypt(token2, ct))
