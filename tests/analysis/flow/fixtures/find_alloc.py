"""REP010 fixture: a memoized search that reads past its memo key.

The module is deliberately named ``find_alloc`` so the default
:data:`~repro.analysis.flow.config.DEFAULT_CONFIG` memo specs match
these functions by trailing qualname.  ``_search`` reads
``state.running_jobs``, which the ``(rt, state_key)`` key does not
capture — the coherence pass must flag it (in ``_search``
directly and, via read propagation, in ``cached_find_alloc``).
``_generate_candidates`` stays within the guarded read set and must
not fire.
"""


def cached_find_alloc(ctx, rt, state, state_key=None):
    if state_key is None:
        state_key = state.key()
    return _search(ctx, rt, state, state_key)


def _search(ctx, rt, state, state_key):
    # Coherence bug: admission flips with the running set while the
    # memo key only captures the free-capacity vector.
    if rt.job_id in state.running_jobs:
        return None
    return state.free(0)


def _generate_candidates(ctx, model, w, rate_of, usable_desc, state, state_key):
    return [slot for slot in usable_desc if state.can_fit(slot, w)]
