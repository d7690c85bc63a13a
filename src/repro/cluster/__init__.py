"""Building blocks of cluster-parallel symbolic execution (paper §3).

Everything a Cloud9 cluster is made of, short of the coordinator that ties
it together (that one speaks wire messages over a transport and lives a
layer up, in :mod:`repro.distrib`):

* :mod:`repro.cluster.jobs` -- jobs encoded as root-to-node paths, aggregated
  into prefix-sharing job trees for transfer.
* :mod:`repro.cluster.worker` -- worker nodes: local subtree, exploration
  frontier (candidate nodes), job export/import, lazy replay of virtual
  nodes, fence bookkeeping.
* :mod:`repro.cluster.replay` -- path replay and broken-replay detection.
* :mod:`repro.cluster.load_balancer` -- the queue-length-based balancing
  policy (mean +/- delta*sigma classification and pairing).
* :mod:`repro.cluster.overlay` -- the global coverage bit-vector overlay.
* :mod:`repro.cluster.ledger` -- the coordinator-side frontier ledger, one
  trie of owner labels in which a path's deepest label is its owner, used
  to recover a dead worker's territory by relabelling it (§2.3 failure
  model).
* :mod:`repro.cluster.checkpoint` -- resumable run snapshots (frontier,
  coverage, counters, bugs/test cases, the spec that produced them) behind
  ``run(resume_from=...)``.
* :mod:`repro.cluster.stats` -- worker counters, transfer cost and the
  timeline of round records the evaluation harness reads.
* :mod:`repro.cluster.core` -- the coordinator's contract:
  :class:`~repro.cluster.core.ClusterConfig` /
  :class:`~repro.cluster.core.StaticPartitionConfig`.

Nothing here imports :mod:`repro.distrib` or :mod:`repro.net`.
"""
