"""fileconvert_ray — a Ray-Data-native per-column lightweight-compression engine.

Brand-new engine (not a port) with the query/data-processing
capabilities of renesugar/FileConvert, specialized to per-column
lightweight compression (dict, RLE, FSST, bit-packing,
frame-of-reference with codec auto-selection) of pre-tokenized
training sequences, built on ``ray.data.Dataset`` pipelines of
``map_batches`` over zero-copy Arrow batches.

The reference snapshot at /root/reference is empty in this sandbox
(SURVEY.md §0); parity claims cite SURVEY.md operator rows (R1-R14 /
E1-E15) instead of file:line.

Layout:
- ``codecs/``    pure numpy/pyarrow codec kernels + registry (SURVEY §2.2 E15)
- ``selector``   per-chunk codec auto-selector (E4)
- ``sources/``   tokseq fixture generators, CSV/Parquet/ORC conversion IO (E1/E2, R1-R12, R4)
- ``stages/``    partition assignment, staged-shuffle encoder, decoder (E3/E5/E9)
- ``state/``     manifest + resume (E6/E7)
- ``pipelines/`` encode job, decode-verify job, csv<->parquet convert (§3.2)
- ``functions/`` training-data ops: dedup, text stats, similarity, multimodal

No module here calls ``ray.init()`` / ``ray.shutdown()`` — the driver
owns the Ray session (SURVEY §7 hard part f).
"""

__version__ = "0.1.0"
