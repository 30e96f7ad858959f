import pytest

# Imported by test_tcp.py and test_shm.py, not collected itself.
pytest.register_assert_rewrite("tests.transport.exchange_contract")
