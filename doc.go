// Package repro is a from-scratch Go reproduction of "RecD: Deduplication
// for End-to-End Deep Learning Recommendation Model Training
// Infrastructure" (Zhao et al., MLSys 2023).
//
// The public surface lives in the command-line tools (cmd/recd-bench,
// cmd/recd-datagen, cmd/recd-inspect, cmd/recd-train, cmd/recd-serve,
// cmd/recd-soak) and the runnable examples (examples/...); the library
// packages are under internal/. Every flag a tool takes is one some
// script, CI step or runbook passes; the rest of each tool's shape is
// constant (scripts/docs-check.sh holds the docs to the flags that exist).
//
// Documentation map:
//   - docs/ARCHITECTURE.md — the layer diagram, the life of a batch from
//     lakefs bytes to Session.Next, the dppnet network service boundary
//     and its wire format, and where dedup, caching, and backpressure
//     each live.
//   - docs/OPERATIONS.md — flags and typical invocations for the six
//     cmd/ binaries (including the recd-serve / recd-train -connect
//     two-process pair), and how cmd/recd-bench (paper results) relates
//     to scripts/bench.sh (hot-path regression gate).
//   - benchmarks/README.md — the benchmark-regression workflow and the
//     recorded before/after history.
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation.
//
// # Ingestion service architecture
//
// The paper's central artifact is a disaggregated Data PreProcessing
// service that many training jobs share; the reproduction mirrors that
// shape in three layers:
//
//   - storage.Backend / storage.Catalog are the blob-store and table
//     metadata interfaces (Size and ReadRange, the two calls a fill makes,
//     and AllFiles and Lookup: a file's entry holds the row count it was
//     sealed with, which is what every scan is planned from).
//     lakefs.Store and lakefs.Catalog are the canonical in-memory
//     implementations with Tectonic/Hive-style IO accounting.
//   - reader.Reader executes one fill→convert→process scan over any
//     Backend. Fill is projected and columnar: it range-reads and decodes
//     only the columns the spec consumes, one stripe at a time
//     (dwrf.FileReader.StripeColumns) into one dwrf.Chunk per stripe, and
//     batches are cut from the stripes as they arrive — a file's first
//     batch leaves before the file has been read. Reader.Run takes a
//     context.Context and tears its pipeline goroutines down promptly on
//     cancellation, which fill honours between stripes.
//   - dpp.Service hosts concurrent sessions. A training job submits a
//     dpp.Spec (the DataLoader spec plus Readers/Buffer execution shape)
//     and pulls preprocessed batches from the returned Session via
//     Next(ctx) — no push callbacks. Every session, ShareScans or not,
//     runs a shared ordered work queue (reader.ScanQueue): fill workers
//     claim file indices and fill in parallel, handing over each stripe
//     as it is decoded, an ordered merge reassembles the stream, and the
//     session buffers at most Readers×Buffer finished batches
//     (backpressure), aggregates deterministic per-session reader.Stats,
//     and dies cleanly on Close or job-context cancellation. Batch
//     streams are deterministic and worker-count independent: every
//     session is byte-identical to a serial Reader.Run scan at any pool
//     size and across any resize history (internal/dpp's chaos tests pin
//     this under -race across 68 seeded scale schedules).
//   - dpp.AutoScaler closes the paper's reader-scaling loop per session:
//     it watches the session's worker/consumer starvation counters
//     (SessionStats.Scheduler) and resizes the pool within
//     [MinReaders, MaxReaders] — enabled service-wide via
//     dpp.Config.AutoScale (recd-serve -autoscale), where the dppnet
//     credit window makes a slow remote trainer's pace observable.
//
// Sessions with equal-output specs can additionally share scans
// (dpp.Spec.ShareScans): the Service's dpp.ScanCache memoizes decoded,
// deduplicated, preprocessed batches per (file, reader.Spec.Fingerprint,
// rows carried into the file) with single-flight coalescing under a byte
// budget (an LRU that stops evicting when a cyclic scan outgrows it; see
// internal/cachecore), so N jobs over the same hour of data — or N
// trainers tailing the same live table — decode each DWRF file once
// instead of N times, with the batch stream pinned byte-identical to an
// unshared session's. The cache is a memo inside the session's fill
// workers: sharing changes nothing about a session's pool, scaling or
// tailing. It is the one cache: nothing holds raw file bytes beneath the
// readers, so sessions whose specs differ each fetch and decode their own
// ranges from the store.
//
// The service boundary is also a network boundary: dpp/dppnet serves
// sessions over a length-prefixed TCP protocol (cmd/recd-serve), and its
// client's remote sessions satisfy the same dpp.Stream pull contract as
// local ones, with batch streams pinned byte-identical to a local
// session across aligned, misaligned, and ShareScans specs. Batch
// sessions and the fleet's file-unit sessions are one client core over
// two frame kinds, and dppshard's fleet session runs on the same session
// shell as a local one. The wire decoders behind that boundary are fuzzed
// (FuzzDecodeBatch, FuzzSpecFingerprint, FuzzClientReceive over the
// client's whole receive loop) and the transport is fault-injection tested with
// goroutine-leak assertions — malformed or truncated frames fail
// cleanly, and neither side can strand sessions or goroutines when the
// other vanishes.
//
// # Hot paths
//
// RecD's premise is that reader-side dedup compute is cheap relative to
// the IO and preprocessing it saves (paper §6.3), so the dedup/convert
// kernels are engineered for throughput:
//
//   - tensor.Deduper performs grouped exact-match dedup with a
//     word-at-a-time multiplicative hash and an open-addressed int32
//     table that is reset — not reallocated — between batches. Outputs
//     never alias Deduper scratch, so batches can be retained while the
//     table is reused.
//   - tensor.JaggedIndexSelectInto expands IKJTs through a caller-reused
//     destination buffer, making steady-state expansion allocation-free.
//   - The wire codecs (tensor serialization, DWRF stripe encode/decode)
//     stage bytes through pooled scratch buffers and reuse flate
//     encoder/decoder state; DWRF files decode stripes concurrently.
//
// # Reader pipeline
//
// reader.Reader.Scan is the paper's fill→convert→process loop over one
// file, cut for the rows carried into it, and the only fill in the repo:
// reader.Reader.Run (the serial reference) runs it file by file on the
// caller's goroutine, a session's workers — and a fleet shard's — run it in
// parallel over a reader.ScanQueue at the carry the scan's plan gives each
// file (the rows of every file before it, mod the batch size, summed from
// the catalog's row counts at Open), and a ShareScans session puts the
// ScanCache in front of the same call.
// Every batch stream in the repo — serial, queued, shared through the
// ScanCache, merged from a fleet of shards — is a file-ordered unit source
// feeding the one cutter, reader.Reader.RunUnits, which only joins what
// the scans leave at file boundaries, so all of them emit byte-identical
// batches with identical deterministic Stats counters; the equivalence is
// pinned under -race by the reader package's tests.
//
// # Benchmark regression harness
//
// scripts/bench.sh runs the hot-path benchmark set — including
// BenchmarkServiceSession, which pins the session iterator's overhead
// against the direct-Reader BenchmarkReaderTier, and
// BenchmarkRemoteSession, which gates the dppnet loopback overhead at
// ≤ 25% of the in-process session — and gates ns/op and allocs/op
// against the committed benchmarks/baseline.txt (tolerance
// BENCH_MAX_REGRESSION_PCT); scripts/bench-update.sh promotes fresh
// numbers. See benchmarks/README.md for the workflow and the recorded
// before/after history.
package repro
