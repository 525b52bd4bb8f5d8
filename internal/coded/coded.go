// Package coded implements the sort engine: CodedTeraSort, the paper's
// primary contribution (Section IV), and — as its r=1 point — the
// conventional TeraSort baseline of Section III. With structured redundant
// file placement (r > 1) the six stages are
//
//  1. CodeGen — enumerate the placement strategy's file indices and
//     multicast groups, and establish per-group communication state (the
//     MPI_Comm_split equivalent; its cost grows with the group count — the
//     scaling bottleneck Section V-C identifies, C(K,r+1) under the clique
//     scheme and q^r - q^(r-1) under resolvable designs).
//  2. Map — hash every locally stored file, keeping only the relevant
//     intermediate values (I^k_S and {I^i_S : i not in S}, Fig 5).
//  3. Encode — build one coded packet E_{M,k} per group (Algorithm 1).
//  4. Multicast Shuffling — serial multicast, one sender at a time, each
//     packet broadcast to the r other members of its group (Fig 9b) by
//     the relay multicast: the sender scatters one slice per receiver and
//     the receivers exchange slices (transport.RelayBcast).
//  5. Decode — cancel known segments from received packets to recover the
//     needed intermediate values (Algorithm 2).
//  6. Reduce — locally sort partition k.
//
// At r = 1 every file lives on one node, no packet can be coded, and the
// same dataflow is TeraSort: no CodeGen runs (a unicast needs no group
// state), and Pack, serial-unicast Shuffle (Fig 9a) and Unpack replace
// Encode, Multicast and Decode. Everything else — Config, the sampling
// round, Map, the spill Map's sorter side, Reduce and the Filter/Transform
// hooks — is one code path; only the shuffle topology is chosen from R
// when the graph is built.
//
// The package is a thin stage-graph builder over the internal/engine
// runtime: it contributes the placement plan, the Pack/Unpack and coded
// Encode/Decode stages (Algorithms 1 and 2, monolithic and chunked), and
// the unicast or multicast-group shuffle topology, while scheduling, mode
// selection, spill-sorter lifecycle, transfer accounting and per-stage
// instrumentation live in the runtime. The placement/coding scheme itself
// is pluggable (Config.Placement): the worker is written against
// placement.Strategy and runs the paper's clique scheme or a resolvable
// design with the same stages.
package coded

import (
	"fmt"
	"os"

	"codedterasort/internal/codec"
	"codedterasort/internal/combin"
	"codedterasort/internal/engine"
	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// Tag stage bytes. Unicast traffic (r = 1) is tagged with transport.MakeTag,
// group-scoped multicast traffic (r > 1) with groupTag; the control tags
// (token, barrier, chunk credits, sampling round) serve both topologies.
const (
	tagShuffle   uint8 = 0x10 // monolithic unicast IV, source -> destination
	tagChunk     uint8 = 0x12 // unicast chunk stream, source -> destination
	tagCodeGen   uint8 = 0x20
	tagMulticast uint8 = 0x21
	tagToken     uint8 = 0x22
	tagBarrier   uint8 = 0x23
	tagChunkAck  uint8 = 0x24
	// Sampling-round tags: key samples gathered to rank 0, agreed splitter
	// bounds broadcast back.
	tagSample       uint8 = 0x25
	tagSampleBounds uint8 = 0x26
)

// groupTag builds the unique tag of group-scoped traffic: the group's
// strategy-scoped ID (colex rank under the clique scheme, tuple index under
// resolvable designs; strategy validation caps it well inside 48 bits) plus
// the root's rank within the group.
func groupTag(stage uint8, groupID int64, root int) transport.Tag {
	return transport.Tag(uint64(stage)<<56 | uint64(root)<<48 | uint64(groupID))
}

// Config describes one run. All workers must hold identical
// configurations (the coordinator distributes them in the cluster runtime).
type Config struct {
	// K is the number of worker nodes.
	K int
	// R is the redundancy parameter: every input file is mapped on R nodes
	// (paper Section IV-A). 1 <= R <= K; R = 1 is the TeraSort baseline.
	R int
	// Rows is the total input size in records.
	Rows int64
	// Seed feeds the row-addressable input generator.
	Seed uint64
	// Dist selects the input key distribution.
	Dist kv.Distribution
	// Part maps keys to the K reducers. Nil selects the Partitioning
	// policy's partitioner (uniform by default). Mutually exclusive with
	// Partitioning "sample".
	Part partition.Partitioner
	// Partitioning selects the reducer-partitioning policy: "" or
	// "uniform" keeps the paper's uniform key-domain split; "sample" runs
	// the pre-Map sampling round — one replica of every input file
	// contributes a deterministic stride sample of its keys, rank 0
	// selects K-1 splitters from the pooled sample, and the bounds are
	// broadcast so all ranks partition identically. The pooled sample is a
	// pure function of the input, so runs of the same input at any R agree
	// on the splitters byte for byte.
	Partitioning string
	// SampleSize is the pooled sample-size target of the sampling round;
	// 0 selects partition.DefaultSampleSize.
	SampleSize int
	// Splitters, with Partitioning "sample", installs these K-1 agreed
	// boundary keys directly and skips the sampling round — the path the
	// TCP coordinator uses after serializing precomputed splitters into
	// the job spec. Nil runs the round in the stage graph.
	Splitters [][]byte
	// Placement selects the placement/coding strategy: the paper's clique
	// scheme (C(K,R) subfiles, C(K,R+1) groups; the default, and the only
	// one defined at R = 1) or a resolvable design (q^(R-1) subfiles,
	// q^R - q^(R-1) groups of size R, q = K/R — orders of magnitude fewer
	// groups at large K).
	Placement placement.Kind
	// Input, when non-nil, supplies the strategy's input files directly
	// instead of generating them: file i (the strategy's file order; colex
	// order of its node set under the clique scheme, so file k is node k's
	// at R = 1) is Input[i]. All workers must hold the same slice
	// (in-process engines only). Rows and Seed are ignored for data
	// placement when Input is set.
	Input []kv.Records
	// InputFiles, when non-nil, reads the K input files from disk (raw
	// teragen record format), file k on worker k. R = 1 only: a file read
	// from one node's disk has no replicas to code against. With MemBudget
	// set the file is consumed block by block. Mutually exclusive with
	// Input; Rows and Seed are ignored for data placement when set.
	InputFiles []string
	// Parallel lifts the serial sender schedule of Fig 9: every node
	// shuffles concurrently — the paper's "Asynchronous Execution" future
	// direction; with per-node egress shaping it shortens the shuffle wall
	// time at unchanged total load.
	Parallel bool
	// Filter, when non-nil, keeps only records it accepts during the Map
	// stage — the "Beyond Sorting" hook (paper Section VI): Grep selects
	// in Map and shuffles only matches. The function must be pure and
	// identical on all workers, because every replica of a file must
	// produce identical intermediate values for the XOR cancellation to
	// hold.
	Filter func(record []byte) bool
	// Transform, when non-nil, rewrites each surviving input record into
	// zero or more intermediate records during the Map stage (after
	// Filter) — the general map hook behind internal/mapreduce: the
	// shuffle moves whatever records the transform emits. Each emitted
	// record must be kv.RecordSize bytes. Like Filter, the function must
	// be pure and identical on all workers.
	Transform func(record []byte, emit func([]byte))
	// ChunkRows, when positive, enables the streaming pipelined shuffle
	// (Section VII's "Asynchronous Execution" direction): intermediate
	// data travels in ChunkRows-record chunks (unicast IV slices at R = 1,
	// XORs of aligned segment chunks above), each built while the previous
	// one is in flight and decoded on arrival. Zero keeps the paper's
	// monolithic schedule; positive selects engine.ModeChunked.
	ChunkRows int
	// Window bounds unacknowledged in-flight chunks per stream when
	// pipelining (credits return from every receiver), so peak buffered
	// memory is O(ChunkRows x Window x R) rather than O(segment bytes).
	// Zero selects engine.DefaultWindow. Ignored when ChunkRows is zero.
	Window int
	// MemBudget, when positive, runs the worker out-of-core
	// (engine.ModeSpill): Map consumes each stored file block by block,
	// own-partition and received records spill to radix-sorted runs under
	// the budget, and Reduce becomes a streaming loser-tree merge. At R = 1
	// remote-bound records spill to per-destination disk spools too; at
	// R > 1 they stay in memory as the XOR side information Algorithms 1
	// and 2 require, so the budget bounds the sort/reduce footprint, not
	// the coding state. Implies the streaming shuffle (a budget-derived
	// ChunkRows when none is set); output is byte-identical.
	MemBudget int64
	// SpillDir is the parent directory for spill files when MemBudget is
	// positive ("" = the system temp directory). Each worker owns a fresh
	// subdirectory, removed when Run returns.
	SpillDir string
	// OutputSink, when non-nil, receives the node's sorted partition as
	// ascending record blocks during Reduce instead of it being
	// materialized in Result.Output. The block passed to the sink is
	// reused; the sink must not retain it. With MemBudget unset the whole
	// partition arrives as one block.
	OutputSink func(kv.Records) error
	// Parallelism bounds the worker-local goroutines of the compute hot
	// paths (generation, Map scatter, Pack/Unpack and packet Encode/Decode,
	// Reduce and spill-run sorting): 0 selects runtime.GOMAXPROCS(0), 1
	// runs sequentially. Output is byte-identical at every setting.
	Parallelism int
	// Hooks observe each timed stage of the run — the instrumentation API
	// the cluster runtime uses for its stage log. The timeline is always
	// charged first, so hook observers see consistent timings.
	Hooks engine.Hooks
	// Faults injects node death and slowness at chosen stages (the cluster
	// runtime's failure model; see engine.Fault). Empty injects nothing.
	Faults engine.Faults

	// strat is the validated placement strategy, resolved by normalize.
	strat placement.Strategy
}

// policies maps the config's runtime knobs onto the engine's scheduler
// policies.
func (c Config) policies() engine.Policies {
	return engine.Policies{
		ChunkRows: c.ChunkRows, Window: c.Window,
		MemBudget: c.MemBudget, SpillDir: c.SpillDir,
		Parallelism: c.Parallelism, Parallel: c.Parallel,
		Faults:       c.Faults,
		Partitioning: c.Partitioning, SampleSize: c.SampleSize,
	}
}

// normalize validates and fills defaults; the shared policy knobs are
// validated and derived by the engine runtime.
func (c Config) normalize() (Config, error) {
	if c.K <= 0 || c.K > combin.MaxNodes {
		return c, fmt.Errorf("coded: K=%d out of range", c.K)
	}
	if c.R < 1 || c.R > c.K {
		return c, fmt.Errorf("coded: r=%d outside [1,%d]", c.R, c.K)
	}
	if c.Rows < 0 {
		return c, fmt.Errorf("coded: negative row count")
	}
	strat, err := placement.New(c.Placement, c.K, c.R)
	if err != nil {
		return c, fmt.Errorf("coded: %w", err)
	}
	c.strat = strat
	ppol, err := partition.ParsePolicy(c.Partitioning)
	if err != nil {
		return c, fmt.Errorf("coded: %w", err)
	}
	if ppol == partition.PolicySample {
		if c.Part != nil {
			return c, fmt.Errorf("coded: explicit Part with Partitioning=sample")
		}
		if c.Splitters != nil {
			sp, err := partition.NewSplitters(c.Splitters)
			if err != nil {
				return c, fmt.Errorf("coded: preset splitters: %w", err)
			}
			c.Part = sp
		}
		// With no preset splitters Part stays nil here; the sampling stage
		// resolves it at run time.
	} else {
		if c.Splitters != nil {
			return c, fmt.Errorf("coded: Splitters without Partitioning=sample")
		}
		if c.Part == nil {
			c.Part = partition.NewUniform(c.K)
		}
	}
	if c.Part != nil && c.Part.NumPartitions() != c.K {
		return c, fmt.Errorf("coded: partitioner has %d partitions for K=%d", c.Part.NumPartitions(), c.K)
	}
	if c.Input != nil {
		if want := strat.NumFiles(); len(c.Input) != want {
			return c, fmt.Errorf("coded: %d input files, want %d for the %s strategy (K=%d, r=%d)",
				len(c.Input), want, strat.Kind(), c.K, c.R)
		}
	}
	if c.InputFiles != nil {
		switch {
		case c.R != 1:
			return c, fmt.Errorf("coded: InputFiles requires r=1, have r=%d", c.R)
		case c.Input != nil:
			return c, fmt.Errorf("coded: both Input and InputFiles set")
		case len(c.InputFiles) != c.K:
			return c, fmt.Errorf("coded: %d input files for K=%d", len(c.InputFiles), c.K)
		}
	}
	pol, err := c.policies().Normalize("coded", c.K)
	if err != nil {
		return c, err
	}
	c.ChunkRows, c.Window = pol.ChunkRows, pol.Window
	return c, nil
}

// Result is one worker's output.
type Result struct {
	// Output is the node's fully sorted partition. It stays empty when
	// Config.OutputSink is set (the partition streamed to the sink).
	Output kv.Records
	// OutputRows and OutputChecksum summarize the sorted partition in
	// every mode, including sink-streamed budget runs where Output is
	// empty. The checksum is the kv order-independent multiset digest.
	OutputRows     int64
	OutputChecksum uint64
	// SpilledRuns counts the sorted runs this worker spilled to disk
	// (zero when MemBudget is unset or everything fit in memory).
	SpilledRuns int64
	// Spill accounts this worker's spill volume — runs plus, at R = 1,
	// shuffle spools — as raw record bytes vs framed on-disk bytes (zero
	// without MemBudget; the gap is the compact block format's saving).
	Spill stats.SpillStats
	// MergeOVCDecided and MergeFullCompares are the final merge's
	// loser-tree match counters: matches decided by cached offset-value
	// codes alone vs matches that compared key bytes.
	MergeOVCDecided   int64
	MergeFullCompares int64
	// Times is the node's stage breakdown (CodeGen, Map, Pack/Encode,
	// Shuffle, Unpack/Decode, Reduce).
	Times stats.Breakdown
	// ShuffleBytes counts the shuffle payload bytes this node sent: unicast
	// IV bytes at R = 1, coded-packet bytes at R > 1 with each packet
	// counted once — the paper's communication-load metric, under which
	// coding wins by a factor r. In pipelined mode this includes the
	// per-chunk framing overhead.
	ShuffleBytes int64
	// MulticastOps counts coded packets this node multicast (zero at
	// R = 1).
	MulticastOps int64
	// Groups is the number of multicast groups this node belongs to:
	// C(K-1, r) under the clique scheme, q^(r-1) - q^(r-2) under a
	// resolvable design; zero at R = 1, where no CodeGen runs.
	Groups int
	// ChunksSent and ChunksReceived count pipelined chunks this node sent
	// and received (zero when ChunkRows is unset).
	ChunksSent     int64
	ChunksReceived int64
	// SplitterBounds are the boundary keys this worker partitioned with
	// under sampled partitioning (agreed in the sampling round or preset
	// via Config.Splitters); nil under uniform partitioning.
	SplitterBounds [][]byte
	// SampleRoundBytes counts the sampling-round payload this worker
	// pushed: sample keys gathered plus, on the selecting rank, the
	// broadcast bounds. Zero when no round ran.
	SampleRoundBytes int64
}

// Run executes the worker for ep.Rank() and blocks until this node's part
// of the job completes. Every rank of the endpoint's world must call Run
// concurrently with an identical configuration. The timeline may be nil,
// in which case a wall-clock timeline is used internally.
func Run(ep transport.Endpoint, cfg Config, tl *stats.Timeline) (Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return Result{}, err
	}
	if ep.Size() != cfg.K {
		return Result{}, fmt.Errorf("coded: endpoint world %d != K %d", ep.Size(), cfg.K)
	}
	if tl == nil {
		tl = stats.NewTimeline(stats.NewWallClock())
	}
	w := &worker{cfg: cfg, rank: ep.Rank(), part: cfg.Part, strat: cfg.strat, store: codec.IVMap{}}
	if cfg.R == 1 {
		// A unicast needs no group state, so no CodeGen stage runs; the
		// one-file-per-node plan is all the placement there is.
		if w.plan, err = w.strat.Plan(cfg.Rows); err != nil {
			return Result{}, err
		}
	}
	hooks := engine.TimelineHooks(tl).Then(cfg.Hooks)
	ctx, err := engine.Run(ep, w.graph(), cfg.policies(), tl.Clock(), hooks)
	if err != nil {
		return Result{}, err
	}
	if sp, ok := w.part.(partition.Splitters); ok {
		w.result.SplitterBounds = sp.Bounds()
	}
	w.result.SampleRoundBytes = ctx.Counters.SampleBytes
	w.result.ShuffleBytes = ctx.Counters.SentBytes
	w.result.MulticastOps = ctx.Counters.SentOps
	w.result.ChunksSent = ctx.Counters.ChunksSent
	w.result.ChunksReceived = ctx.Counters.ChunksReceived()
	w.result.Times = tl.Breakdown()
	return w.result, nil
}

type worker struct {
	cfg  Config
	rank int
	part partition.Partitioner // resolved by config or the sampling stage

	strat   placement.Strategy
	plan    placement.Plan
	store   codec.IVMap  // IVs kept after Map: {I^q_S : rank in S, q == rank or q not in S}
	decoded []kv.Records // remote share of partition rank, ready for Reduce
	result  Result

	// Multicast shuffle state (R > 1).
	myGroups []placement.Group
	packets  [][]byte // E_{M,rank} per myGroups index
	// received[gi][u] is the packet E_{M,u} received from root u in group
	// myGroups[gi].
	received []map[int][]byte
	// streamSegs[gi][u] is the chunk-decoded segment from root u in group
	// myGroups[gi] (pipelined mode: chunks are decoded on arrival, so only
	// recovered records are retained, never raw packets).
	streamSegs []map[int]kv.Records

	// Unicast shuffle state (R = 1), indexed by peer rank.
	packed     [][]byte // serialized outbound IVs
	inbound    [][]byte // packed IVs received
	spools     []*extsort.Spool
	spoolBlock []int64
}

// graph declares the stage DAG over the engine runtime: the paper's
// monolithic schedule, the chunked streaming variant that collapses
// Pack/Encode+Shuffle(+Unpack) into one overlapped stage, and the
// out-of-core variant that spills through the runtime's sorter — one
// declarative graph, scheduled by the runtime's policy-derived mode. The
// sampling round, Map and Reduce are shared; the shuffle topology is
// chosen from R: serial unicast at R = 1, coded multicast groups above.
func (w *worker) graph() *engine.Graph {
	g := engine.NewGraph("coded", func(s stats.Stage) transport.Tag {
		return transport.MakeTag(tagBarrier, uint16(s), 0xFFFF)
	})
	unicast := w.cfg.R == 1
	var mapNeeds []string
	if !unicast {
		g.Add(engine.Stage{Kind: engine.KindCodeGen, Modes: engine.AllModes,
			Provides: []string{"plan", "groups"}, Run: w.codeGenStage})
		mapNeeds = []string{"plan"}
	}
	if w.part == nil {
		// Sampled partitioning without preset splitters: the splitter
		// agreement rides the graph before Map (after CodeGen, whose plan
		// it needs to dedupe replicated files). It shares the CodeGen
		// timeline column; at R > 1 CodeGen stays the stage fault
		// injection charges for that column.
		g.Add(engine.Stage{Kind: engine.KindSample, Modes: engine.AllModes,
			Needs: mapNeeds, Provides: []string{"part"}, Run: w.sampleStage})
		mapNeeds = append(mapNeeds, "part")
	}
	spillProvides := []string{"store", "sorter"}
	if unicast {
		spillProvides = []string{"spools", "sorter"}
	}
	g.Add(engine.Stage{Kind: engine.KindMap, Modes: engine.InMemory,
		Needs: mapNeeds, Provides: []string{"store"}, Run: w.mapStage})
	g.Add(engine.Stage{Kind: engine.KindMap, Modes: engine.In(engine.ModeSpill),
		Needs: mapNeeds, Provides: spillProvides, Run: w.mapSpillStage})
	if unicast {
		w.addUnicast(g)
	} else {
		w.addMulticast(g)
	}
	g.Add(engine.Stage{Kind: engine.KindReduce, Modes: engine.InMemory,
		Needs: []string{"store", "decoded"}, Run: w.reduceStage})
	g.Add(engine.Stage{Kind: engine.KindReduce, Modes: engine.In(engine.ModeSpill),
		Needs: []string{"sorter"}, Run: w.reduceSpillStage})
	return g
}

// addMulticast adds the coded shuffle of R > 1: Encode, serial multicast
// and Decode (monolithic), or one streaming multicast stage that encodes
// and decodes chunk by chunk followed by the segment merge (chunked; in
// the spill mode decoded chunks go straight to the sorter).
func (w *worker) addMulticast(g *engine.Graph) {
	g.Add(engine.Stage{Kind: engine.KindPack, Modes: engine.In(engine.ModeMono),
		Needs: []string{"groups", "store"}, Provides: []string{"packets"}, Run: w.encodeStage})
	g.Add(engine.Stage{Kind: engine.KindShuffle, Modes: engine.In(engine.ModeMono),
		Needs: []string{"groups", "packets"}, Provides: []string{"received"}, Run: w.multicastStage})
	g.Add(engine.Stage{Kind: engine.KindShuffle, Modes: engine.Streaming,
		Needs: []string{"groups", "store"}, Provides: []string{"segments"}, Run: w.streamMulticastStage})
	g.Add(engine.Stage{Kind: engine.KindUnpack, Modes: engine.In(engine.ModeMono),
		Needs: []string{"received", "store"}, Provides: []string{"decoded"}, Run: w.decodeStage})
	g.Add(engine.Stage{Kind: engine.KindUnpack, Modes: engine.In(engine.ModeChunked),
		Needs: []string{"segments"}, Provides: []string{"decoded"}, Run: w.mergeStage})
}

// codeGenStage resolves the placement strategy's file indices and multicast
// groups and performs a lightweight per-group handshake: within every
// group, each member sends one setup message to its cyclic successor and
// waits for one from its predecessor. The handshake gives group
// construction a real per-group communication cost, the role MPI_Comm_split
// plays in the paper, whose measured CodeGen time scales with the group
// count.
func (w *worker) codeGenStage(ctx *engine.Context) error {
	var err error
	w.plan, err = w.strat.Plan(w.cfg.Rows)
	if err != nil {
		return err
	}
	w.myGroups = w.strat.GroupsOf(w.rank)
	w.result.Groups = len(w.myGroups)
	// Handshake: send to all successors first (sends are asynchronous),
	// then collect from predecessors, so the ring cannot deadlock.
	for _, g := range w.myGroups {
		idx := g.Index(w.rank)
		succ := g.Members[(idx+1)%len(g.Members)]
		if err := ctx.Ep.Send(succ, groupTag(tagCodeGen, g.ID, 0), nil); err != nil {
			return err
		}
	}
	for _, g := range w.myGroups {
		idx := g.Index(w.rank)
		pred := g.Members[(idx+len(g.Members)-1)%len(g.Members)]
		if _, err := ctx.Ep.Recv(pred, groupTag(tagCodeGen, g.ID, 0)); err != nil {
			return err
		}
	}
	return nil
}

// mapStage hashes every locally stored file and keeps only the relevant
// intermediate values (Fig 5; at R = 1 that is all K partitions of the
// node's one file, Section III-A3). Generation and the per-file scatter
// run on the worker's Parallelism goroutines.
func (w *worker) mapStage(ctx *engine.Context) error {
	var source func(int) kv.Records
	switch {
	case w.cfg.Input != nil:
		source = func(i int) kv.Records { return w.cfg.Input[i] }
	case w.cfg.InputFiles != nil:
		// R = 1: the node's one stored file is its own part file.
		buf, err := os.ReadFile(w.cfg.InputFiles[w.rank])
		if err != nil {
			return fmt.Errorf("coded: read input file: %w", err)
		}
		recs, err := kv.NewRecords(buf)
		if err != nil {
			return err
		}
		source = func(int) kv.Records { return recs }
	default:
		gen := kv.NewGenerator(w.cfg.Seed, w.cfg.Dist)
		source = func(i int) kv.Records {
			first, last := w.plan.FileRows(i)
			return gen.GenerateParallel(first, last-first, ctx.Procs)
		}
	}
	if w.cfg.Filter != nil || w.cfg.Transform != nil {
		inner := source
		source = func(i int) kv.Records { return w.mapRecords(inner(i)) }
	}
	w.store = mapRelevant(w.plan, w.part, w.rank, source, ctx.Procs)
	return nil
}

// sampleStage is the splitter-agreement round of sampled partitioning:
// draw this rank's share of the global stride sample, pool it at rank 0,
// and install the broadcast splitters as the run's partitioner.
func (w *worker) sampleStage(ctx *engine.Context) error {
	keys, err := w.sampleKeys()
	if err != nil {
		return err
	}
	bounds, err := ctx.SampleSplitters(
		transport.MakeTag(tagSample, 0, 0), transport.MakeTag(tagSampleBounds, 0, 0), keys)
	if err != nil {
		return err
	}
	sp, err := partition.NewSplitters(bounds)
	if err != nil {
		return fmt.Errorf("coded: sampled splitters: %w", err)
	}
	if sp.NumPartitions() != w.cfg.K {
		return fmt.Errorf("coded: sampling agreed on %d partitions for K=%d", sp.NumPartitions(), w.cfg.K)
	}
	w.part = sp
	return nil
}

// sampleKeys draws this rank's share of the deterministic global stride
// sample. Every file is replicated on R nodes, so only its minimum-rank
// holder contributes the file's sampled rows; the deduped shares then tile
// the row space exactly once, making the pooled sample — and hence the
// splitters — a pure function of the input and the sample size, identical
// at every R. Map-stage hooks apply before key extraction so the
// splitters balance the records the shuffle will actually carry.
func (w *worker) sampleKeys() ([]byte, error) {
	if w.cfg.InputFiles != nil {
		sampled, err := sampleFile(w.cfg.InputFiles[w.rank], w.cfg.K, w.cfg.SampleSize)
		if err != nil {
			return nil, err
		}
		return w.mapRecords(sampled).Keys(), nil
	}
	// File-order global offsets: generated files tile [0, Rows) via the
	// plan; supplied input files tile by cumulative length.
	offsets := make([]int64, w.plan.NumFiles()+1)
	for i := 0; i < w.plan.NumFiles(); i++ {
		if w.cfg.Input != nil {
			offsets[i+1] = offsets[i] + int64(w.cfg.Input[i].Len())
		} else {
			offsets[i+1] = offsets[i] + w.plan.FileRowCount(i)
		}
	}
	total := offsets[w.plan.NumFiles()]
	stride := partition.SampleStride(total, w.cfg.SampleSize)
	gen := kv.NewGenerator(w.cfg.Seed, w.cfg.Dist)
	rec := make([]byte, kv.RecordSize)
	sampled := kv.MakeRecords(0)
	for _, fi := range w.plan.FilesOn(w.rank) {
		if w.plan.Files[fi].Min() != w.rank {
			continue
		}
		first, last := offsets[fi], offsets[fi+1]
		for g := partition.FirstSampleRow(first, stride); g < last; g += stride {
			if w.cfg.Input != nil {
				sampled = sampled.Append(w.cfg.Input[fi].Record(int(g - first)))
			} else {
				// Generated files tile [0, Rows) in file order, so the
				// plan row of a sampled offset is the offset itself.
				gen.Record(rec, g)
				sampled = sampled.Append(rec)
			}
		}
	}
	return w.mapRecords(sampled).Keys(), nil
}

// mapRecords applies the Map-stage record hooks in order: Filter selects,
// Transform rewrites. Both nil returns r unchanged (aliased).
func (w *worker) mapRecords(r kv.Records) kv.Records {
	if keep := w.cfg.Filter; keep != nil {
		r = filterRecords(r, keep)
	}
	return kv.TransformRecords(r, w.cfg.Transform)
}

// filterRecords returns the accepted subset of r.
func filterRecords(r kv.Records, keep func([]byte) bool) kv.Records {
	out := kv.MakeRecords(r.Len())
	for i := 0; i < r.Len(); i++ {
		if keep(r.Record(i)) {
			out = out.Append(r.Record(i))
		}
	}
	return out
}

// mapSpillStage is the out-of-core Map: every stored file is consumed
// block by block — generated, supplied in memory, or read from disk — and
// never materialized whole. Each block's partitions route by destiny:
// records of this node's own partition go straight into the runtime's
// budget-bounded sorter, and remote-bound records go where the shuffle
// will read them — to per-destination disk spools framed at ChunkRows at
// R = 1, or into the in-memory store at R > 1, exactly as the monolithic
// Map builds it, because there they are the XOR side information of
// Algorithms 1 and 2 (see Config.MemBudget).
func (w *worker) mapSpillStage(ctx *engine.Context) error {
	sorter, err := ctx.Sorter()
	if err != nil {
		return err
	}
	remote := func(q int, fileSet combin.Set, recs kv.Records) error {
		w.store.Put(q, fileSet, w.store.IV(q, fileSet).AppendRecords(recs))
		return nil
	}
	if w.cfg.R == 1 {
		if remote, err = w.openSpools(ctx, sorter.Dir()); err != nil {
			return err
		}
	}
	scan := func(i int, fn func(kv.Records) error) error {
		switch {
		case w.cfg.Input != nil:
			return w.cfg.Input[i].ForEachBlock(w.cfg.ChunkRows, fn)
		case w.cfg.InputFiles != nil:
			return extsort.ScanFile(w.cfg.InputFiles[i], w.cfg.ChunkRows, fn)
		}
		gen := kv.NewGenerator(w.cfg.Seed, w.cfg.Dist)
		first, last := w.plan.FileRows(i)
		return gen.GenerateBlocks(first, last-first, w.cfg.ChunkRows, fn)
	}
	for _, fi := range w.plan.FilesOn(w.rank) {
		fileSet := w.plan.Files[fi]
		if err := scan(fi, func(block kv.Records) error {
			parts := partition.SplitParallel(w.part, w.mapRecords(block), ctx.Procs)
			for q := 0; q < w.plan.K; q++ {
				switch {
				case q == w.rank:
					if err := sorter.Append(parts[q]); err != nil {
						return err
					}
				case !fileSet.Contains(q):
					if err := remote(q, fileSet, parts[q]); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if w.cfg.R == 1 {
		return w.finishSpools()
	}
	return nil
}

// reduceSpillStage is the out-of-core Reduce: a streaming loser-tree merge
// over the sorted runs (plus the sorter's in-memory tail), emitted in
// ascending ChunkRows-record blocks. The sorted partition is never
// materialized unless no OutputSink is set.
func (w *worker) reduceSpillStage(ctx *engine.Context) error {
	sorter, err := ctx.Sorter()
	if err != nil {
		return err
	}
	out, err := extsort.DrainSorted(sorter, w.cfg.ChunkRows, w.cfg.OutputSink)
	if err != nil {
		return err
	}
	w.result.Output = out.Records
	w.result.OutputRows = out.Rows
	w.result.OutputChecksum = out.Checksum
	w.result.SpilledRuns = out.SpilledRuns
	w.result.Spill.Add(stats.SpillStats{RawBytes: out.SpilledRawBytes, DiskBytes: out.SpilledDiskBytes})
	w.result.MergeOVCDecided = out.OVCDecided
	w.result.MergeFullCompares = out.FullCompares
	return nil
}

// MapFiles runs the CodedTeraSort Map stage for one node: it hashes every
// file stored on rank and returns the relevant intermediate values —
// I^rank_S (needed by this node's own reducer) and {I^q_S : q not in S}
// (needed by remote reducers that did not map S). IVs for partitions
// q in S\{rank} are dropped: those reducers computed them locally during
// their own Map stage (paper Section IV-B, Fig 5).
func MapFiles(plan placement.Plan, part partition.Partitioner, gen *kv.Generator, rank int) codec.IVMap {
	return mapRelevant(plan, part, rank, func(i int) kv.Records {
		return plan.Materialize(gen, i)
	}, 1)
}

func mapRelevant(plan placement.Plan, part partition.Partitioner, rank int, file func(int) kv.Records, procs int) codec.IVMap {
	store := codec.IVMap{}
	for _, fi := range plan.FilesOn(rank) {
		fileSet := plan.Files[fi]
		parts := partition.SplitParallel(part, file(fi), procs)
		for q := 0; q < plan.K; q++ {
			if q == rank || !fileSet.Contains(q) {
				store.Put(q, fileSet, parts[q])
			}
		}
	}
	return store
}

// encodeStage builds this node's coded packet for every group it belongs
// to (Algorithm 1). Packet construction includes the serialization work the
// paper assigns to the Encode stage. Groups are independent (the IV store
// is read-only here) and packets are indexed by group position, so the
// per-group encodes run on the worker's Parallelism goroutines.
func (w *worker) encodeStage(ctx *engine.Context) error {
	w.packets = make([][]byte, len(w.myGroups))
	return parallel.Do(ctx.Procs, len(w.myGroups), func(i int) error {
		g := w.myGroups[i]
		p, err := codec.EncodeGroupPacket(w.store, g.Group, w.rank)
		if err != nil {
			return fmt.Errorf("group %v: %w", g.Members, err)
		}
		w.packets[i] = p
		return nil
	})
}

// multicastStage runs the serial multicast schedule of Fig 9(b): one
// sender at a time (rank order), each broadcasting its coded packets to
// its groups one after another. Receives run concurrently so the single
// active sender streams without blocking; the receive side also relays
// this node's slice of each inbound packet to the other receivers.
func (w *worker) multicastStage(ctx *engine.Context) error {
	w.received = make([]map[int][]byte, len(w.myGroups))
	for i := range w.received {
		w.received[i] = make(map[int][]byte, w.cfg.R)
	}
	groupIdx := w.groupIndex()

	recvErr := make(chan error, 1)
	go func() {
		recvErr <- w.forEachInboundGroup(groupIdx, func(gi int, g placement.Group, u int) error {
			p, err := ctx.Ep.Bcast(g.Members, u, groupTag(tagMulticast, g.ID, u), nil)
			if err != nil {
				return fmt.Errorf("bcast recv in %v from %d: %w", g.Members, u, err)
			}
			w.received[gi][u] = p
			return nil
		})
	}()

	send := func() error {
		for i, g := range w.myGroups {
			if _, err := ctx.Ep.Bcast(g.Members, w.rank, groupTag(tagMulticast, g.ID, w.rank), w.packets[i]); err != nil {
				return fmt.Errorf("bcast send in %v: %w", g.Members, err)
			}
			ctx.Counters.SentBytes += int64(len(w.packets[i]))
			ctx.Counters.SentOps++
		}
		return nil
	}
	if err := ctx.Schedule(transport.MakeTag(tagToken, 0, 0), send); err != nil {
		return err
	}
	return <-recvErr
}

// groupIndex indexes this node's groups by strategy-scoped ID for the
// receive paths.
func (w *worker) groupIndex() map[int64]int {
	idx := make(map[int64]int, len(w.myGroups))
	for i, g := range w.myGroups {
		idx[g.ID] = i
	}
	return idx
}

// forEachInboundGroup visits, in the serial multicast schedule's order,
// every (group, root) pair this node receives from: roots in ascending
// rank order, each root's shared groups in the root's own GroupsOf order —
// the enumeration the root walks when it sends.
func (w *worker) forEachInboundGroup(groupIdx map[int64]int, fn func(gi int, g placement.Group, u int) error) error {
	for u := 0; u < w.cfg.K; u++ {
		if u == w.rank {
			continue
		}
		for _, m := range w.strat.GroupsOf(u) {
			if !m.Contains(w.rank) {
				continue
			}
			gi := groupIdx[m.ID]
			if err := fn(gi, w.myGroups[gi], u); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamMulticastStage is the pipelined replacement for Encode+Multicast+
// Decode: every coded packet travels as a stream of chunk packets, each the
// XOR of aligned ChunkRows-record chunk slices of its contributing segments
// (chunked Algorithms 1 and 2). The root encodes chunk n+1 while chunk n is
// in flight, every member decodes each chunk on arrival — retaining only
// recovered records, never whole packets — and per-chunk credits from all
// group members bound the root's run-ahead to Window chunks. In the spill
// mode decoded chunks go straight into the runtime's budget-bounded sorter
// instead of accumulating per-group segments.
func (w *worker) streamMulticastStage(ctx *engine.Context) error {
	spilling := ctx.Mode == engine.ModeSpill
	if !spilling {
		w.streamSegs = make([]map[int]kv.Records, len(w.myGroups))
		for i := range w.streamSegs {
			w.streamSegs[i] = make(map[int]kv.Records, w.cfg.R)
		}
	}
	groupIdx := w.groupIndex()

	recvErr := make(chan error, 1)
	go func() {
		recvErr <- w.forEachInboundGroup(groupIdx, func(gi int, g placement.Group, u int) error {
			consume := ctx.SpillAppend
			seg := kv.MakeRecords(0)
			if !spilling {
				consume = func(recs kv.Records) error {
					seg = seg.AppendRecords(recs)
					return nil
				}
			}
			rx := engine.ChunkRx{
				Recv: func() ([]byte, error) {
					p, err := ctx.Ep.Bcast(g.Members, u, groupTag(tagMulticast, g.ID, u), nil)
					if err != nil {
						return nil, fmt.Errorf("bcast recv in %v from %d: %w", g.Members, u, err)
					}
					return p, nil
				},
				Ack: func() error {
					return transport.StreamAck(ctx.Ep, u, groupTag(tagChunkAck, g.ID, u))
				},
				Decode: func(c int, payload []byte) (kv.Records, error) {
					part, err := codec.DecodeGroupPacketChunk(w.store, g.Group, w.rank, u, w.cfg.ChunkRows, c, payload)
					if err != nil {
						return kv.Records{}, fmt.Errorf("decode chunk %d in %v from %d: %w", c, g.Members, u, err)
					}
					return part, nil
				},
				Consume: consume,
				WrapStreamErr: func(err error) error {
					return fmt.Errorf("chunk stream in %v from %d: %w", g.Members, u, err)
				},
			}
			if err := rx.Run(&ctx.Counters); err != nil {
				return err
			}
			if !spilling {
				w.streamSegs[gi][u] = seg
			}
			return nil
		})
	}()

	send := func() error {
		for _, g := range w.myGroups {
			others := make([]int, 0, len(g.Members)-1)
			for _, m := range g.Members {
				if m != w.rank {
					others = append(others, m)
				}
			}
			ackTag := groupTag(tagChunkAck, g.ID, w.rank)
			gate := engine.CreditGate{Window: w.cfg.Window, Await: func() error {
				for _, m := range others {
					if _, err := ctx.Ep.Recv(m, ackTag); err != nil {
						return err
					}
				}
				return nil
			}}
			count := codec.GroupPacketChunkCount(w.store, g.Group, w.rank, w.cfg.ChunkRows)
			for c := 0; c < count; c++ {
				pkt, err := codec.EncodeGroupPacketChunk(w.store, g.Group, w.rank, w.cfg.ChunkRows, c)
				if err != nil {
					return fmt.Errorf("encode chunk %d in %v: %w", c, g.Members, err)
				}
				frame := codec.FrameChunk(uint32(c), c == count-1, pkt)
				codec.Recycle(pkt)
				if err := gate.Reserve(); err != nil {
					return err
				}
				if _, err := ctx.Ep.Bcast(g.Members, w.rank, groupTag(tagMulticast, g.ID, w.rank), frame); err != nil {
					return fmt.Errorf("bcast send in %v: %w", g.Members, err)
				}
				gate.Sent()
				ctx.Counters.SentBytes += int64(len(frame))
				ctx.Counters.SentOps++
				ctx.Counters.ChunksSent++
				// Bcast does not alias the frame after it returns; back to
				// the pool for the next chunk.
				codec.Recycle(frame)
			}
			if err := gate.Drain(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.Schedule(transport.MakeTag(tagToken, 0, 0), send); err != nil {
		return err
	}
	return <-recvErr
}

// mergeStage assembles the chunk-decoded segments into the intermediate
// values the Reduce stage needs (the pipelined remainder of Algorithm 2:
// decoding happened chunk by chunk during the shuffle, so only the ordered
// merge across senders is left).
func (w *worker) mergeStage(ctx *engine.Context) error {
	w.decoded = make([]kv.Records, len(w.myGroups))
	return parallel.Do(ctx.Procs, len(w.myGroups), func(gi int) error {
		g := w.myGroups[gi]
		segs := make([]kv.Records, 0, len(g.Members)-1)
		for _, u := range g.Members {
			if u == w.rank {
				continue
			}
			seg, ok := w.streamSegs[gi][u]
			if !ok {
				return fmt.Errorf("missing streamed segment from %d in group %v", u, g.Members)
			}
			segs = append(segs, seg)
		}
		w.decoded[gi] = codec.MergeSegments(segs)
		return nil
	})
}

// decodeStage recovers, for every group M containing this node, the
// intermediate value this node needs (its Need file) from the received
// coded packets (Algorithm 2), then merges the segments in ascending
// sender order. Groups decode concurrently — each reads only its own
// received packets and the read-only side-information store, and lands in
// its own slot.
func (w *worker) decodeStage(ctx *engine.Context) error {
	w.decoded = make([]kv.Records, len(w.myGroups))
	return parallel.Do(ctx.Procs, len(w.myGroups), func(gi int) error {
		g := w.myGroups[gi]
		segs := make([]kv.Records, 0, len(g.Members)-1)
		for _, u := range g.Members {
			if u == w.rank {
				continue
			}
			p, ok := w.received[gi][u]
			if !ok {
				return fmt.Errorf("missing packet from %d in group %v", u, g.Members)
			}
			seg, err := codec.DecodeGroupPacket(w.store, g.Group, w.rank, u, p)
			if err != nil {
				return fmt.Errorf("decode in %v from %d: %w", g.Members, u, err)
			}
			segs = append(segs, seg)
		}
		w.decoded[gi] = codec.MergeSegments(segs)
		return nil
	})
}

// reduceStage concatenates the locally mapped share of partition `rank`
// ({I^rank_S : rank in S}) with the received remote share
// ({I^rank_S : rank not in S}, in ascending source order) and sorts
// (Sections III-A5 and IV-F).
func (w *worker) reduceStage(ctx *engine.Context) error {
	parts := make([]kv.Records, 0, len(w.decoded)+w.plan.NumFiles())
	for _, fi := range w.plan.FilesOn(w.rank) {
		parts = append(parts, w.store.IV(w.rank, w.plan.Files[fi]))
	}
	parts = append(parts, w.decoded...)
	out := kv.Concat(parts...)
	// In-place MSD radix: no scratch allocation, parallel over buckets,
	// deterministic at any Parallelism setting.
	out.SortRadixMSD(ctx.Procs)
	w.result.OutputRows = int64(out.Len())
	w.result.OutputChecksum = out.Checksum()
	if sink := w.cfg.OutputSink; sink != nil {
		return sink(out)
	}
	w.result.Output = out
	return nil
}
