"""The coordinator and its members: one §3 protocol, three carriers.

:mod:`repro.cluster` holds what a Cloud9 cluster is made of; this package
ties it together.  One coordinator drives every member with the small
plain-data messages the paper's design calls for (§3.2) -- status updates,
transfer requests, and path-encoded :class:`~repro.cluster.jobs.JobTree`
payloads that the destination materializes by replay
(:meth:`Worker._materialize <repro.cluster.worker.Worker._materialize>`) --
over a :class:`repro.net.transport.Transport`.  The carrier decides where members
live: in this process (loopback), in worker processes on real cores (mp
queues), or on other machines (TCP agents).

Because live execution states and programs built from closures do not
pickle, work ships to other processes as ``(spec_name, path)`` pairs:
:mod:`repro.distrib.specs` keeps a registry of named test factories, and
every worker process rebuilds the program and its initial state from the
spec, once, and replays each path from a fork of that pristine state.

Public pieces:

* :mod:`repro.distrib.messages` -- the command/reply vocabulary.
* :class:`~repro.distrib.worker.DistribWorker` -- the member side: a
  :class:`~repro.cluster.worker.Worker` behind ``handle(command)``, shared
  verbatim by in-process members, forked worker processes and TCP agents.
* :class:`~repro.distrib.protocol.ProtocolCore` -- the coordinator's
  decisions, with no transport, clock or tracer: membership, balancing,
  transfers, frontier ledger and recovery, checkpoint records,
  finalization; and :class:`~repro.distrib.coordinator.Coordinator`, the
  one driver that moves its messages over the carriers.
* :class:`~repro.distrib.loopback.Cloud9Cluster` -- the in-process shell
  (the ``"cluster"`` backend of ``SymbolicTest.run``), and
  :class:`~repro.distrib.loopback.StaticPartitionCluster`, the §2 strawman
  on the same coordinator (``"static"``).
* :class:`~repro.distrib.cluster.ProcessCloud9Cluster` -- the process shell
  (``"process"``, configured by ``ProcessClusterConfig``): forked worker
  processes on mp queues; and its subclass
  :class:`~repro.distrib.cluster.TcpCloud9Cluster` (``"tcp"``, configured
  by ``TcpClusterConfig``), which admits remote worker agents over the
  :mod:`repro.net` socket transport instead of forking local processes.
* :mod:`repro.distrib.specs` -- the test-spec registry
  (:func:`~repro.distrib.specs.resolve_test` and friends).
"""
