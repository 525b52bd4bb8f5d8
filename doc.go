// Package codedterasort reproduces "Coded TeraSort" (Li, Supittayapornpong,
// Maddah-Ali, Avestimehr; IPDPS 2017, arXiv:1702.04850): a distributed
// sorting algorithm that imposes structured redundancy in the Map stage —
// every input file is hashed on r carefully chosen nodes — to create
// in-network coding opportunities that cut the data-shuffling load by ~r,
// speeding up the TeraSort benchmark 1.97x-3.39x on bandwidth-limited
// clusters.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory, the streaming-pipeline design notes, and the out-of-core
// external sort: internal/extsort provides spill-to-disk run generation
// and the loser-tree merge behind the MemBudget knob of the engine),
// with runnable binaries under cmd/ (shared job flags in
// cmd/internal/flags) and worked examples under examples/.
// Placement is a strategy seam (internal/placement.Strategy): the paper's
// clique scheme — C(K, r) subfiles, C(K, r+1) multicast groups — is the
// default, and -strategy resolvable swaps in a resolvable-design
// construction (internal/placement/resolvable) with q^(r-1) subfiles and
// q^r - q^(r-1) groups for K = q*r, collapsing the CodeGen wall at large
// K (992 groups instead of 41,664 at K=64, r=2); the executor Pool
// multiplexes logical ranks over its slots so K=64-128 jobs run on one
// machine, byte-identical to the uncoded oracle (DESIGN.md section 15).
// There is one sort engine, internal/coded: TeraSort is CodedTeraSort at
// r = 1, the same graph with a serial-unicast shuffle where r > 1 runs
// CodeGen and the coded multicast. It is a thin stage-graph builder over
// internal/engine, the execution runtime: a job is a declarative DAG of
// typed stages (Sample, CodeGen, Map, Pack/Encode, Shuffle, Unpack/Decode,
// Reduce) with explicit data-plane edges, and one scheduler runs the
// monolithic, chunk-streaming and out-of-core schedules as
// policy-selected modes with per-stage instrumentation hooks — the
// builder contributes only placement, codecs and shuffle topology
// (DESIGN.md section 10).
// Workers are multicore: the Parallelism knob (Config/Spec field, -procs
// on the CLIs) runs each worker's map scatter, radix sorts, spill-run
// sorting and per-group packet encode/decode on deterministic parallel
// kernels (internal/parallel) that produce byte-identical output at any
// goroutine count.
// Execution is straggler-resilient: the cluster runtime supervises every
// run — crash signals and peer-relative stage deadlines (heartbeat-fed
// over TCP) declare dead or straggling ranks, the attempt is canceled so
// no peer ever hangs at a faulty rank's barrier, and RunLocal re-executes
// with the faulty worker respawned until the job completes byte-identical
// to a healthy run (Spec.StageDeadline/MaxAttempts/Faults; -deadline and
// -stragglers on the CLIs; DESIGN.md section 11). Coding's redundancy
// doubles as fault tolerance: a straggler's penalty scales with shuffle
// volume, which coding cuts by ~r, and a dead rank's input survives on
// its r-1 placement replicas — the straggler-mitigation story of the
// coded-computing literature the paper cites.
// The paper's "Beyond Sorting Algorithms" direction is first-class:
// internal/mapreduce runs arbitrary Mapper/Reducer kernels over the same
// engine — the replication factor alone selects uncoded or coded
// execution — with four built-in kernels (word count, grep, inverted
// index, log aggregation) exposed by cmd/codedmr, and a kernel-generic
// equivalence harness (internal/mapreduce/mrtest) gating every registered
// kernel to byte-identical output across r, execution modes,
// parallelism and recovered runs (DESIGN.md section 12).
// The whole runtime also serves: internal/service is a multi-tenant
// serving layer — a priority job queue with per-tenant admission control
// (internal/service/tenant), job-scoped spill namespaces, an HTTP JSON
// API with a Go client, Prometheus-style /metrics and graceful drain —
// run as the long-lived cmd/sortd daemon over a shared executor Pool of
// reusable rank lifecycles and driven by cmd/sortctl (DESIGN.md
// section 13).
// Partitioning is skew-robust: beyond the paper's uniform key-domain
// split, -partition sample runs a pre-Map sampling round — a
// deterministic stride sample of input keys, pooled at rank 0, K-1
// quantile splitters broadcast so every rank, r, mode and recovery
// attempt partitions identically (internal/partition; -dist selects the
// skewed-workload generators zipf/sorted/nearsorted/dupheavy/varprefix
// that defeat the uniform split; DESIGN.md section 16).
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation; the tests in internal/simnet pin the reproduced
// values against the paper's tables; cmd/benchjson tracks the pipeline
// performance trajectory as machine-readable JSON.
package codedterasort
