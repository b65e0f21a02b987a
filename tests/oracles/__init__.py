"""Golden-model oracles for the parity suites.

Each module keeps, unchanged, an implementation the shipping code in
``src/`` replaced for speed.  They are test code only: no environment
variable, argument or branch in ``src/`` reaches them, and the parity
suites compare the shipping code against them byte for byte.

- :mod:`tests.oracles.backtest` — the heap-event LightTrader pump
  (:class:`~tests.oracles.backtest.ReferenceBacktester`);
- :mod:`tests.oracles.scheduler` — the line-for-line Algorithm-1 sweep
  (:class:`~tests.oracles.scheduler.ReferenceScheduler`);
- :mod:`tests.oracles.market` — the per-op market generation loop, the
  agents' per-op actions and the ``rng.choice`` mix sampler;
- :mod:`tests.oracles.book` and :mod:`tests.oracles.matching` — the
  object-per-order limit order book and matching engine, plus the
  ``capture`` snapshot constructor.
"""
