"""The unbounded derived-context-id scheme (escape-digit rebasing).

Long-lived real-backend processes can derive far more communicators
than a simulated run ever did; historically the allocator had a hard
fanout ceiling.  Ids are now base-1024 digit strings with a reserved
escape digit, so derivation never fails and distinct derivation paths
never collide.
"""

from types import SimpleNamespace

from repro.core.communicator import _FANOUT, Communicator


def _env(rank=0, nranks=4):
    return SimpleNamespace(rank=rank, nranks=nranks)


def test_many_children_no_overflow_no_collision():
    comm = Communicator.world(_env())
    n = 3 * (_FANOUT - 2) + 7  # forces three escape-digit rebases
    ids = [comm._next_context_id() for _ in range(n)]
    assert len(set(ids)) == n
    assert all(i > 0 for i in ids)


def test_child_ids_never_collide_across_generations():
    parent = Communicator.world(_env())
    seen = set()
    # interleave: a batch of direct children, then ids derived from one
    # of those children, then more direct children (crossing the
    # parent's escape-digit rebase)
    first_batch = [parent._next_context_id() for _ in range(600)]
    child = Communicator(_env(), [0, 1], context_id=first_batch[0])
    grandchildren = [child._next_context_id() for _ in range(600)]
    second_batch = [parent._next_context_id() for _ in range(600)]
    for ids in (first_batch, grandchildren, second_batch):
        for i in ids:
            assert i not in seen, f"context id {i} allocated twice"
            seen.add(i)


def test_sibling_trees_disjoint():
    parent = Communicator.world(_env())
    a = Communicator(_env(), [0, 1], parent._next_context_id())
    b = Communicator(_env(), [2, 3], parent._next_context_id())
    ids_a = {a._next_context_id() for _ in range(1500)}
    ids_b = {b._next_context_id() for _ in range(1500)}
    assert not (ids_a & ids_b)


def test_derivation_is_deterministic_across_ranks():
    # SPMD contract: every rank derives the same ids in the same order
    def derive(rank):
        comm = Communicator.world(_env(rank=rank))
        return [comm._next_context_id() for _ in range(2000)]

    assert derive(0) == derive(1) == derive(3)


def test_dup_uses_fresh_ids_beyond_old_ceiling():
    comm = Communicator.world(_env())
    children = [comm.dup() for _ in range(_FANOUT + 5)]  # > old ceiling
    cids = [c.context_id for c in children]
    assert len(set(cids)) == len(cids)
    # derived communicators allocate from their own id, disjoint from
    # the parent's continuing stream
    grand = children[0].dup()
    more = [comm.dup().context_id for _ in range(10)]
    assert grand.context_id not in set(cids) | set(more)
