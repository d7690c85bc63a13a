"""The symbolic POSIX environment model (paper §4).

This package models the slice of POSIX that the paper's targets exercise:
file descriptors and files, TCP/UDP sockets over a single-IP network, pipes,
``select``-style polling, pthreads synchronization, ``fork``/``waitpid``,
``mmap``, System V IPC (shared memory and message queues), time functions
over a deterministic virtual clock, environment variables, fault injection
and the Cloud9 ``ioctl`` extensions.  Everything is built on the engine's
symbolic system calls (Table 1) plus ordinary state memory, and is installed
into an engine with :func:`~repro.posix.model.install_posix_model`.

The model keeps its auxiliary data (descriptor tables, stream buffers, mutex
records) as the execution state's environment model (``state.env``), so it
forks together with the state -- the analogue of the paper's "shared memory
structures to keep track of all system objects".  It is copy-on-write per
record: a state's fork takes a :class:`~repro.posix.data.PosixState` shell
that shares every table and record; a write copies the one record it touches
(``own``), a table is copied on its first insert or delete (``own_table``),
and every read finds the state's copy again (``view``), so the aliases
between records hold.
"""
