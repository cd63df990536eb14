import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract: tests own
    their Ray lifecycle; library code never calls ray.init)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def ray_executions(monkeypatch):
    """Every Ray Data execution started during the test, in start order.
    Each entry's ``operators()`` names the execution's operators (input
    buffers left out) once it has run."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    started = []
    init = StreamingExecutor.__init__

    def counting_init(self, *a, **k):
        init(self, *a, **k)
        self.operators = lambda: [op.name for op in self._topology
                                  if type(op).__name__ != "InputDataBuffer"]
        started.append(self)

    monkeypatch.setattr(StreamingExecutor, "__init__", counting_init)
    return started
