"""Client/service fault handling: typed connection errors and retry-safe
retries over dropped and stalled sockets."""

import pytest

from repro import faults
from repro.server import (
    ConnectFailed,
    ConnectionLost,
    DebugClient,
    DebugService,
    RETRY_SAFE_OPS,
    RETRYABLE_ERROR_CODES,
    ServerError,
)
from repro.workloads import buggy_average

AVG_INPUTS = [10, 20, 30, 40, 50]


@pytest.fixture()
def service(tmp_path):
    svc = DebugService(port=0, request_timeout_s=30.0, spool_dir=str(tmp_path / "spool"))
    svc.start()
    yield svc
    svc.shutdown()


def make_client(service, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    client = DebugClient(service.host, service.port, **kwargs)
    client.open()
    return client


class TestTypedConnectionErrors:
    def test_connect_refused_is_connect_failed(self):
        client = DebugClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(ConnectFailed) as excinfo:
            client.ping()
        # Back-compat: both new types remain ConnectionError (and OSError).
        assert isinstance(excinfo.value, ConnectionError)
        assert isinstance(excinfo.value, OSError)

    def test_mid_request_death_is_connection_lost(self, service):
        client = make_client(service)
        with client:
            session = client.open_program(
                buggy_average(5), seed=0, inputs=AVG_INPUTS
            )
            with faults.inject("socket.drop:n=1"):
                with pytest.raises(ConnectionLost):
                    session.execute("where")

    def test_connection_lost_subclasses_connection_error(self):
        assert issubclass(ConnectionLost, ConnectionError)
        assert issubclass(ConnectFailed, ConnectionError)


class TestRetryTransparency:
    def test_dropped_reply_retried_transparently(self, service):
        client = make_client(service, max_retries=3, retry_backoff_s=0.01)
        with client:
            session = client.open_program(
                buggy_average(5), seed=0, inputs=AVG_INPUTS
            )
            expected = session.execute("where")
            with faults.inject("socket.drop:n=2") as plan:
                assert session.execute("where") == expected
                assert session.execute("output") != ""
            assert plan.total_fired() == 2
            assert client.reconnects == 2
            assert client.retries == 2

    def test_stalled_reply_absorbed(self, service):
        client = make_client(service, max_retries=3, retry_backoff_s=0.01)
        with client:
            session = client.open_program(
                buggy_average(5), seed=0, inputs=AVG_INPUTS
            )
            expected = session.execute("where")
            with faults.inject("socket.stall:n=1,s=0.1") as plan:
                assert session.execute("where") == expected
            assert plan.total_fired() == 1
            assert client.retries == 0  # absorbed by the timeout, not retried

    def test_unsafe_op_is_not_retried(self, service, tmp_path):
        """A lost connection mid-``save`` must surface, not re-send: the
        client cannot know whether the first attempt took effect."""
        client = make_client(service, max_retries=3, retry_backoff_s=0.01)
        with client:
            session = client.open_program(
                buggy_average(5), seed=0, inputs=AVG_INPUTS
            )
            with faults.inject("socket.drop:n=1"):
                with pytest.raises(ConnectionLost):
                    client.call(
                        "save",
                        session=session.sid,
                        args=[str(tmp_path / "out.ppd.json")],
                    )
            assert client.retries == 0

    def test_retry_taxonomy(self):
        assert "save" not in RETRY_SAFE_OPS
        assert "load" not in RETRY_SAFE_OPS
        assert "expand" not in RETRY_SAFE_OPS
        assert {"where", "races", "why", "ping", "list"} <= RETRY_SAFE_OPS
        assert RETRYABLE_ERROR_CODES == {"timeout", "server-busy"}

    def test_server_error_retryable_property(self):
        assert ServerError("timeout", "deadline").retryable
        assert ServerError("server-busy", "full").retryable
        assert not ServerError("unknown-session", "gone").retryable

