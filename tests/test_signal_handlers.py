"""Signal handlers of the long-lived loops never take a lock.

A Python signal handler runs on the main thread between two bytecodes
of whatever that thread was doing.  ``threading.Event.set()`` takes the
Event's non-reentrant condition lock, and the main loops spend most of
their time inside ``stop_event.wait()``, which holds that same lock
around its bookkeeping: a handler calling ``set()`` there waits on its
own thread forever.  So the handlers only record the signal, and the
loops set the stop event themselves.

The deadlock is reproduced without signals: this thread holds the
event's lock, as the interrupted ``wait()`` would, while a helper
thread runs the handler.
"""

import signal
import threading

import pytest

from repro.errors import GridInterrupted, IngestInterrupted
from repro.serve import MatchingService, TenantRegistry
from tests.ingest.conftest import make_daemon


def _returns_while_event_lock_is_held(handler, event: threading.Event) -> bool:
    helper = threading.Thread(target=handler, args=(signal.SIGTERM, None), daemon=True)
    with event._cond:
        helper.start()
        helper.join(1.0)
        returned = not helper.is_alive()
    helper.join(5.0)  # lock released: a blocked handler finishes now
    return returned


@pytest.fixture()
def daemon(tmp_path):
    feed = tmp_path / "feed"
    feed.mkdir()
    return make_daemon(feed, tmp_path)


@pytest.fixture()
def service():
    instance = MatchingService(TenantRegistry())
    yield instance
    instance._httpd.server_close()


class TestFollowDaemon:
    def test_handler_does_not_wait_on_the_stop_event_lock(self, daemon):
        assert _returns_while_event_lock_is_held(daemon._on_signal, daemon.stop_event)

    def test_loop_turns_the_recorded_signal_into_a_stop(self, daemon):
        daemon._on_signal(signal.SIGTERM, None)
        with pytest.raises(IngestInterrupted) as excinfo:
            daemon.run(install_signal_handlers=False)
        assert excinfo.value.signum == signal.SIGTERM
        assert daemon.stop_event.is_set()


class TestMatchingService:
    def test_handler_does_not_wait_on_the_stop_event_lock(self, service):
        assert _returns_while_event_lock_is_held(
            service._handle_signal, service.stop_event
        )

    def test_loop_turns_the_recorded_signal_into_a_drain(self, service):
        service._handle_signal(signal.SIGTERM, None)
        service._handle_signal(signal.SIGINT, None)  # first signal wins
        with pytest.raises(GridInterrupted) as excinfo:
            service.serve_until_signalled()
        assert excinfo.value.signum == signal.SIGTERM
        assert service.stop_event.is_set()
