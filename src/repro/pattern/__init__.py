"""Regular-expression (run-length) compressed pattern vectors.

Paper section 1.2: the complete PBP model does not operate on raw AoB
vectors but on *regular expressions* compressing repeating patterns, where
each RE symbol is a fixed-size AoB chunk.  "The hardware implementation
described here directly implements 65,536-bit AoB for up to 16-way
entanglement, and it is assumed that higher degrees of entanglement would
be implemented in software using 65,536-bit chunks as RE symbols."

This package is that software layer:

- :class:`ChunkStore` fixes the chunk width and applies chunk-level
  gates to chunks held as Python ints, and
- :class:`PatternVector` is a tuple of segments over those chunk ints
  -- a chunk repeated over whole blocks, or a literal block of chunks
  packed into one int -- exposing the same operation set as
  :class:`repro.aob.AoB`, usable at any entanglement degree.  A chunk
  lives exactly as long as some vector holds it.
"""

from repro.pattern.chunkstore import ChunkStore
from repro.pattern.vector import PatternVector

__all__ = ["ChunkStore", "PatternVector"]
