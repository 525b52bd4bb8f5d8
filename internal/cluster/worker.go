package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"codedterasort/internal/engine"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/transport/tcpnet"
	"codedterasort/internal/verify"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// MeshHost is the interface the worker's mesh listener binds
	// (default 127.0.0.1). Workers advertise MeshHost:port to peers.
	MeshHost string
	// Parallelism, when positive, overrides the spec's coordinator-
	// distributed Parallelism on this worker — the knob for heterogeneous
	// machines where one node should use fewer (or more) cores than the
	// job-wide default. Output is byte-identical at any setting, so a
	// per-worker override never perturbs the job's result.
	Parallelism int
	// OnStage, when non-nil, observes each completed stage of this
	// worker's run (stage, measured duration) through the engine runtime's
	// per-stage hooks — live progress for long jobs, since the stage
	// breakdown otherwise only reaches the coordinator at the end.
	OnStage func(stage stats.Stage, elapsed time.Duration)
}

// RunWorker joins one job: it opens a mesh listener, registers with the
// coordinator at coordAddr, waits for a rank assignment, forms the TCP
// mesh with its peers, executes the assigned algorithm, and reports the
// result. It returns once the report is delivered (or on failure, after
// attempting to report the error so the coordinator can fail fast).
func RunWorker(coordAddr string, opts WorkerOptions) error {
	if opts.Parallelism < 0 {
		return fmt.Errorf("cluster: negative parallelism override %d", opts.Parallelism)
	}
	host := opts.MeshHost
	if host == "" {
		host = "127.0.0.1"
	}
	meshLn, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("cluster: worker mesh listen: %w", err)
	}
	// The listener transfers to the mesh endpoint on success; close it on
	// every earlier exit.
	meshOwned := true
	defer func() {
		if meshOwned {
			meshLn.Close()
		}
	}()

	conn, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("cluster: dial coordinator %s: %w", coordAddr, err)
	}
	defer conn.Close()
	if err := writeFrame(conn, registerMsg{MeshAddr: meshLn.Addr().String()}); err != nil {
		return err
	}
	var assign assignMsg
	if err := readFrame(conn, &assign); err != nil {
		return err
	}
	spec := assign.Spec
	if opts.Parallelism > 0 {
		spec.Parallelism = opts.Parallelism
	}
	// The monitored protocol is active exactly when the distributed spec
	// arms the stage deadline; both sides key off the same field.
	var tx *ctrlSender
	if spec.StageDeadline > 0 {
		tx = &ctrlSender{conn: conn}
	}
	if err := spec.Validate(); err != nil {
		return reportFailure(conn, tx, assign.Rank, err)
	}
	if assign.Rank < 0 || assign.Rank >= len(assign.Addrs) || len(assign.Addrs) != spec.K {
		return reportFailure(conn, tx, assign.Rank, fmt.Errorf("cluster: bad assignment rank=%d addrs=%d k=%d",
			assign.Rank, len(assign.Addrs), spec.K))
	}

	mesh, err := tcpnet.NewWithListener(assign.Rank, assign.Addrs, meshLn)
	if err != nil {
		return reportFailure(conn, tx, assign.Rank, err)
	}
	meshOwned = false
	defer mesh.Close()

	var shaped transport.Conn = mesh
	if spec.RateMbps > 0 || spec.PerMessage > 0 {
		shaped = netem.Limit(mesh, netem.Options{RateMbps: spec.RateMbps, PerMessage: spec.PerMessage})
	}
	meter := transport.NewMeter(shaped)
	ep := transport.WithCollectives(meter)

	// Budget-bounded workers never materialize their partition: the sorted
	// blocks stream through a local checker that self-verifies order and
	// membership, and the coordinator cross-checks the reported totals.
	var sink func(kv.Records) error
	if spec.MemBudget > 0 {
		// Under sampled partitioning the coordinator distributes the spec
		// with the splitters preset, so the checker's partitioner comes
		// straight off the wire — no local replay of the sampling round.
		p, err := spec.verifyPartitioner()
		if err != nil {
			return reportFailure(conn, tx, assign.Rank, err)
		}
		sink = verify.NewPartitionChecker(p, assign.Rank).Feed
	}
	var hooks engine.Hooks
	if opts.OnStage != nil {
		hooks.StageEnd = func(ev engine.StageEvent) {
			if ev.Err == nil {
				opts.OnStage(ev.Stage, ev.Elapsed)
			}
		}
	}

	// The monitored protocol (stage deadline armed): per-stage progress
	// frames and periodic heartbeats flow to the coordinator, and an abort
	// frame (or a vanished coordinator) cancels the run by closing the
	// mesh — a worker never waits forever on a peer the coordinator has
	// declared dead.
	monitored := tx != nil
	if monitored {
		hooks = hooks.Then(engine.Hooks{StageEnd: func(ev engine.StageEvent) {
			if ev.Err == nil {
				tx.send(workerMsg{Progress: &progressMsg{
					Rank: assign.Rank, Stage: ev.Stage.String(), Elapsed: ev.Elapsed,
				}})
			}
		}})
		stopBeat := make(chan struct{})
		defer close(stopBeat)
		go heartbeat(tx, assign.Rank, spec.heartbeat(), stopBeat)
		go func() {
			// Abort listener: any inbound frame (or coordinator loss) ends
			// the attempt. The mesh close is idempotent, so racing the
			// normal teardown is harmless.
			var ab abortMsg
			_ = readFrame(conn, &ab)
			mesh.Close()
		}()
	}

	faults, err := spec.engineFaults(nil)
	if err != nil {
		return reportFailure(conn, tx, assign.Rank, err)
	}
	rep, _, err := runWorker(ep, spec, faults, sink, hooks)
	if err != nil {
		var killed *engine.KilledError
		if monitored && errors.As(err, &killed) {
			// Simulate the process death the fault models: drop the
			// coordinator connection and the mesh without reporting. The
			// coordinator sees the broken connection — the real crash
			// signal — and peers are released by its abort broadcast.
			conn.Close()
			mesh.Close()
			return err
		}
		return reportFailure(conn, tx, assign.Rank, err)
	}
	rep.Rank = assign.Rank
	rep.WireBytes = meter.Counters().SentBytes
	msg := reportMsg{
		Rank:             rep.Rank,
		Times:            rep.Times,
		OutputRows:       rep.OutputRows,
		OutputChecksum:   rep.OutputChecksum,
		SentPayloadBytes: rep.SentPayloadBytes,
		MulticastOps:     rep.MulticastOps,
		WireBytes:        rep.WireBytes,
		ChunksSent:       rep.ChunksSent,
		ChunksReceived:   rep.ChunksReceived,
		SpilledRuns:      rep.SpilledRuns,
		Spill:            rep.Spill,
		MergeOVCDecided:  rep.MergeOVCDecided,
		MergeFullCmps:    rep.MergeFullCompares,
		SplitterBounds:   rep.SplitterBounds,
		SampleRoundBytes: rep.SampleRoundBytes,
	}
	if monitored {
		return tx.send(workerMsg{Report: &msg})
	}
	return writeFrame(conn, msg)
}

// ctrlSender serializes control-plane writes: heartbeats, stage progress
// and the final report race on one coordinator connection.
type ctrlSender struct {
	mu   sync.Mutex
	conn net.Conn
}

func (s *ctrlSender) send(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFrame(s.conn, v)
}

// heartbeat sends liveness frames every interval until stopped.
func heartbeat(tx *ctrlSender, rank int, interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if tx.send(workerMsg{Progress: &progressMsg{Rank: rank}}) != nil {
				return
			}
		}
	}
}

// reportFailure best-effort reports err to the coordinator (through the
// monitored-protocol sender when active) and returns err.
func reportFailure(conn net.Conn, tx *ctrlSender, rank int, err error) error {
	msg := reportMsg{Rank: rank, Err: err.Error()}
	if tx != nil {
		_ = tx.send(workerMsg{Report: &msg})
	} else {
		_ = writeFrame(conn, msg)
	}
	return err
}
