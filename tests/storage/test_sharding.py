"""The process-independent subject hash the fabric and workloads key on."""

from repro.storage.sharding import stable_hash


class TestStableHash:
    def test_stable_hash_is_process_independent(self):
        # CRC32 of the UTF-8 bytes — a frozen value, not the salted hash().
        assert stable_hash("Alice") == 3863974723
