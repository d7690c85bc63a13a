"""Models of the real-world systems evaluated in the paper (§7, Table 4).

Each module builds one target as a program in :mod:`repro.lang` plus
ready-made :class:`~repro.testing.symbolic_test.SymbolicTest` constructors for the
experiments that use it:

=====================  =======================================================
Module                 Paper target / experiment
=====================  =======================================================
``memcached``          memcached: symbolic packets (Fig. 7/9/12/13, Table 5),
                       fault injection, UDP hang (§7.3.3)
``lighttpd``           lighttpd request parsing and the incomplete
                       fragmentation bug fix (Table 6, §7.3.4)
``httpd``              Apache httpd header processing and the §5.2
                       X-NewExtension use case
``ghttpd``             ghttpd request logging and its path-length overflow
``printf``             the ``printf`` UNIX utility (Fig. 8, Fig. 10)
``testcmd``            the ``test`` UNIX utility (Fig. 10)
``curl``               curl URL globbing crash (§7.3.2)
``rsync``              rsync's delta-transfer algorithm over the modeled
                       file system
``pbzip``              pbzip2-style parallel block compression on worker
                       pthreads
``libevent``           libevent's event-dispatch core over the modeled
                       ``select``
``coreutils``          a Coreutils-like suite for the coverage-improvement
                       experiment (Fig. 11, §7.3.1)
``bandicoot``          Bandicoot DBMS out-of-bounds read (§7.3.5)
``prodcons``           the multi-threaded / multi-process producer-consumer
                       benchmark exercising the whole POSIX model (§7.1)
=====================  =======================================================

The models are not line-by-line ports of the original C code; they recreate
the *path structure* the paper's experiments depend on (which inputs crash,
hang, or cover new code): each target stands in for its original only as far
as the figure, table or case study named above needs.

Importing this package imports none of them: a run imports the one model its
spec names (:mod:`repro.distrib.specs`), and ``from repro.targets import
memcached`` imports that module alone.
"""

__all__ = [
    "bandicoot",
    "coreutils",
    "curl",
    "ghttpd",
    "httpd",
    "libevent",
    "lighttpd",
    "memcached",
    "pbzip",
    "printf",
    "prodcons",
    "rsync",
    "testcmd",
]
