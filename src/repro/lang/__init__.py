"""A small imperative language for programs under test.

The original Cloud9 symbolically executes LLVM bitcode compiled from C.  This
reproduction substitutes a compact imperative language whose programs are
constructed from Python (see :mod:`repro.lang.builder`), lowered into a flat
instruction stream (:mod:`repro.lang.compiler`), and then interpreted
symbolically by :mod:`repro.engine`.

The language covers what the paper's target programs need: integers and byte
buffers, arithmetic and comparisons, structured control flow, functions,
assertions, and calls into the modeled POSIX environment.
"""
