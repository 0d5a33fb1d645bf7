"""REP010 fixture: a memoized generation that reads past its memo key.

The module is deliberately named ``find_alloc`` so the default
:data:`~repro.analysis.flow.config.DEFAULT_CONFIG` memo specs match
these functions by trailing qualname.  ``_generate_candidates`` reads
``state.running_jobs``, which the ``(w, usable_desc, state_key)`` key
does not capture — the coherence pass must flag it.
``RoundContext.price`` and ``RoundContext.move_delay_for`` are memoized
too, but read only what their keys capture, so they must not fire.
"""


class RoundContext:
    def __init__(self, book):
        self.book = book
        self._prices = {}
        self._delays = {}

    def price(self, slot, free):
        key = (slot, free)
        if key not in self._prices:
            self._prices[key] = self.book.base(slot[1]) / free
        return self._prices[key]

    def move_delay_for(self, rt, picks):
        if rt.job_id not in self._delays:
            self._delays[rt.job_id] = rt.checkpoint_seconds
        return self._delays[rt.job_id]


def _generate_candidates(ctx, model, w, usable_desc, state, state_key):
    # Coherence bug: the candidates flip with the running set while the
    # memo key only captures the free-capacity vector.
    if state.running_jobs:
        return []
    return [slot for slot in usable_desc if state.can_fit(slot, w)]
