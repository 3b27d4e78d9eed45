"""Cross-cutting property-based tests on core invariants."""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.blockchain import varint
from repro.blockchain.hashing import FAST_PARAMS, cryptonight, hash_meets_difficulty
from repro.blockchain.merkle import tree_hash
from repro.coinhive.obfuscation import BlobObfuscator
from repro.coinhive.shortlink import id_to_index, index_to_id
from repro.core.nocoin import FilterList
from repro.pool.protocol import (
    JobMessage,
    LoginMessage,
    SubmitMessage,
    decode_message,
    encode_message,
)
from repro.web.html import parse_html


class TestVarintProperties:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        assert varint.decode(varint.encode(value))[0] == value

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_encoding_is_minimal(self, value):
        encoded = varint.encode(value)
        assert len(encoded) == max(1, (value.bit_length() + 6) // 7)


class TestMerkleProperties:
    @given(st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_root_changes_when_any_leaf_changes(self, seeds):
        leaves = [hashlib.sha3_256(s).digest() for s in seeds]
        root = tree_hash(leaves)
        mutated = list(leaves)
        mutated[0] = hashlib.sha3_256(b"MUTANT" + seeds[0]).digest()
        assert tree_hash(mutated) != root

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_root_is_32_bytes_for_any_count(self, count):
        leaves = [hashlib.sha3_256(bytes([i % 256, i // 256])).digest() for i in range(count)]
        assert len(tree_hash(leaves)) == 32


class TestObfuscatorProperties:
    @given(st.binary(min_size=1, max_size=16), st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_involution_for_any_key_and_offset(self, key, offset):
        obfuscator = BlobObfuscator(key=key, offset=offset)
        blob = bytes(range(256))[: offset + len(key) + 20]
        assert obfuscator.apply(obfuscator.apply(blob)) == blob

    @given(st.binary(min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_nonzero_key_always_changes_blob(self, key):
        if key == bytes(8):
            return
        obfuscator = BlobObfuscator(key=key, offset=0)
        blob = bytes(64)
        assert obfuscator.apply(blob) != blob


class TestShortLinkIdProperties:
    @given(st.integers(min_value=0, max_value=36 + 36**2 + 36**3 + 36**4))
    def test_roundtrip(self, index):
        assert id_to_index(index_to_id(index)) == index

    @given(st.integers(min_value=0, max_value=10**6 - 1))
    def test_monotone_in_length_then_alphabet_order(self, index):
        from repro.coinhive.shortlink import ALPHABET

        rank = {c: i for i, c in enumerate(ALPHABET)}
        a, b = index_to_id(index), index_to_id(index + 1)
        key_a = (len(a), tuple(rank[c] for c in a))
        key_b = (len(b), tuple(rank[c] for c in b))
        assert key_a < key_b


class TestPowProperties:
    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=2**40))
    @settings(max_examples=40, deadline=None)
    def test_difficulty_monotonicity(self, data, difficulty):
        """Meeting difficulty d implies meeting every d' < d."""
        digest = cryptonight(data, FAST_PARAMS)
        if hash_meets_difficulty(digest, difficulty):
            assert hash_meets_difficulty(digest, max(1, difficulty // 2))

    @given(st.binary(min_size=0, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_pure_function(self, data):
        assert cryptonight(data, FAST_PARAMS) == cryptonight(data, FAST_PARAMS)


class TestProtocolProperties:
    @given(st.text(alphabet="0123456789ABCDEF", min_size=8, max_size=64))
    def test_login_roundtrip(self, token):
        assert decode_message(encode_message(LoginMessage(token=token))).token == token

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_submit_nonce_roundtrip(self, nonce):
        message = SubmitMessage(job_id="j", nonce=nonce, result_hex="00")
        assert decode_message(encode_message(message)).nonce == nonce

    @given(st.binary(max_size=80))
    def test_job_blob_roundtrip(self, blob):
        message = JobMessage(job_id="j", blob_hex=blob.hex(), target_hex="ffff0000")
        assert bytes.fromhex(decode_message(encode_message(message)).blob_hex) == blob


class TestHtmlProperties:
    @given(st.lists(st.sampled_from(["<div>", "</div>", "<script src='x.js'>", "</script>",
                                     "text", "<p", ">", "<!--", "-->", "&amp;"]), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_parser_total_on_tag_soup(self, fragments):
        parse_html("".join(fragments))

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_text_content_roundtrips_through_serialize(self, text):
        if "<" in text or ">" in text or "&" in text:
            return
        doc = parse_html(f"<p>{text}</p>")
        again = parse_html(doc.serialize())
        assert again.root.text().strip() == doc.root.text().strip()


class TestFilterListProperties:
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-/", min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_domain_anchor_never_matches_other_registrable_domain(self, path):
        filter_list = FilterList.from_lines(["||coinhive.com^"])
        url = f"https://example-{path.replace('/', '')or 'x'}.net/{path}"
        if "coinhive.com" in url:
            return
        assert filter_list.explain_url(url) is None
