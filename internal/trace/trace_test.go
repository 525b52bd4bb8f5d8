package trace

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/coded"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

func TestRecorderCapturesSendRecv(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	clock := stats.NewWallClock()
	a := New(mesh.Endpoint(0), clock, 0)
	b := New(mesh.Endpoint(1), clock, 0)
	if err := a.Send(1, 5, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0, 5); err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Events(), b.Events()
	if len(ea) != 1 || ea[0].Kind != KindSend || ea[0].Peer != 1 || ea[0].Bytes != 3 {
		t.Fatalf("send event wrong: %+v", ea)
	}
	if len(eb) != 1 || eb[0].Kind != KindRecv || eb[0].Peer != 0 {
		t.Fatalf("recv event wrong: %+v", eb)
	}
	if a.Rank() != 0 || a.Size() != 2 {
		t.Fatalf("metadata wrong")
	}
}

func TestCapacityEviction(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	r := New(mesh.Endpoint(0), stats.NewWallClock(), 3)
	for i := 0; i < 5; i++ {
		if err := r.Send(1, transport.Tag(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("kept %d events", len(events))
	}
	if events[0].Tag != 2 {
		t.Fatalf("oldest kept tag = %v, want 2", events[0].Tag)
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}

func TestSummarizeAndWrite(t *testing.T) {
	events := []Event{
		{Kind: KindSend, Bytes: 10, Node: 0, Peer: 1},
		{Kind: KindSend, Bytes: 20, Node: 0, Peer: 2},
		{Kind: KindRecv, Bytes: 30, Node: 0, Peer: 1},
	}
	s := Summarize(events)
	if s.Sends != 2 || s.SentBytes != 30 || s.Recvs != 1 || s.RecvBytes != 30 {
		t.Fatalf("summary %+v", s)
	}
	var sb strings.Builder
	if err := Write(&sb, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "node  0 ->  2") {
		t.Fatalf("dump missing send line:\n%s", sb.String())
	}
}

// TestFig9aSerialScheduleObserved traces a real TeraSort shuffle and
// asserts the Fig 9(a) property: shuffle senders take the wire strictly in
// rank order.
func TestFig9aSerialScheduleObserved(t *testing.T) {
	const k = 4
	mesh := memnet.NewMesh(k)
	defer mesh.Close()
	clock := stats.NewWallClock()
	recorders := make([]*Recorder, k)
	var wg sync.WaitGroup
	for rank := 0; rank < k; rank++ {
		recorders[rank] = New(mesh.Endpoint(rank), clock, 0)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := transport.WithCollectives(recorders[rank])
			cfg := coded.Config{K: k, R: 1, Rows: 2000, Seed: 3}
			if _, err := coded.Run(ep, cfg, nil); err != nil {
				t.Error(err)
			}
		}(rank)
	}
	wg.Wait()

	all := Merge(recorders...)
	// Shuffle payload sends carry stage byte 0x10 in the tag and a
	// non-empty payload.
	isShuffle := func(tag transport.Tag) bool { return uint8(tag>>32) == 0x10 }
	var shuffleSends []Event
	for _, e := range all {
		if e.Kind == KindSend && isShuffle(e.Tag) && e.Bytes > 0 {
			shuffleSends = append(shuffleSends, e)
		}
	}
	if len(shuffleSends) != k*(k-1) {
		t.Fatalf("%d shuffle sends, want %d", len(shuffleSends), k*(k-1))
	}
	order := SenderOrder(shuffleSends, nil)
	for i, rank := range order {
		if rank != i {
			t.Fatalf("senders out of rank order: %v", order)
		}
	}
	// Strict serialization: all of rank i's sends complete before rank
	// i+1's first send (token-chained schedule).
	lastOf := map[int]int{}
	firstOf := map[int]int{}
	for i, e := range shuffleSends {
		if _, ok := firstOf[e.Node]; !ok {
			firstOf[e.Node] = i
		}
		lastOf[e.Node] = i
	}
	for rank := 0; rank < k-1; rank++ {
		if lastOf[rank] > firstOf[rank+1] {
			t.Fatalf("rank %d still sending after rank %d started", rank, rank+1)
		}
	}
	// Sanity: trace totals match the metered expectation of (K-1)/K data.
	sum := Summarize(shuffleSends)
	want := int64(2000 * kv.RecordSize * (k - 1) / k)
	if sum.SentBytes < want*95/100 || sum.SentBytes > want*105/100 {
		t.Fatalf("traced shuffle bytes %d, want about %d", sum.SentBytes, want)
	}
}

func TestKindString(t *testing.T) {
	if KindSend.String() != "send" || KindRecv.String() != "recv" {
		t.Fatalf("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatalf("unknown kind renders empty")
	}
}

// TestFig9bSerialMulticastObserved traces a CodedTeraSort multicast
// shuffle and asserts the Fig 9(b) property: multicast roots take the
// wire strictly in rank order, each finishing its groups before the next
// root starts. Relayed slices (sent by a receiver, not the root) overlap
// the next root's turn by design and are counted separately.
func TestFig9bSerialMulticastObserved(t *testing.T) {
	const k, r = 4, 2
	mesh := memnet.NewMesh(k)
	defer mesh.Close()
	clock := stats.NewWallClock()
	recorders := make([]*Recorder, k)
	var wg sync.WaitGroup
	for rank := 0; rank < k; rank++ {
		recorders[rank] = New(mesh.Endpoint(rank), clock, 0)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := transport.WithCollectives(recorders[rank])
			cfg := coded.Config{K: k, R: r, Rows: 2000, Seed: 4}
			if _, err := coded.Run(ep, cfg, nil); err != nil {
				t.Error(err)
			}
		}(rank)
	}
	wg.Wait()

	all := Merge(recorders...)
	// Multicast payload sends carry stage byte 0x21 in the top tag byte
	// and the multicast root in the next byte.
	var rootSends, relaySends []Event
	for _, e := range all {
		if e.Kind != KindSend || uint8(e.Tag>>56) != 0x21 {
			continue
		}
		if int(uint8(e.Tag>>48)) == e.Node {
			rootSends = append(rootSends, e)
		} else {
			relaySends = append(relaySends, e)
		}
	}
	// Each node roots C(K-1, r) = 3 groups and sends one slice of each
	// packet to each of its r receivers: 4 * 3 * 2 = 24 root sends. Each
	// receiver forwards its slice to the other r-1: another 24.
	if len(rootSends) != 24 || len(relaySends) != 24 {
		t.Fatalf("%d root and %d relay multicast sends, want 24 and 24", len(rootSends), len(relaySends))
	}
	order := SenderOrder(rootSends, nil)
	for i, rank := range order {
		if rank != i {
			t.Fatalf("multicast roots out of rank order: %v", order)
		}
	}
	lastOf := map[int]int{}
	firstOf := map[int]int{}
	for i, e := range rootSends {
		if _, ok := firstOf[e.Node]; !ok {
			firstOf[e.Node] = i
		}
		lastOf[e.Node] = i
	}
	for rank := 0; rank < k-1; rank++ {
		if lastOf[rank] > firstOf[rank+1] {
			t.Fatalf("root %d still multicasting after root %d started", rank, rank+1)
		}
	}
}

// TestStageLog: records from several nodes merge into completion order,
// errors are captured as text, and String renders one line per record.
func TestStageLog(t *testing.T) {
	clock := &stats.VirtualClock{}
	log := NewStageLog(clock)
	clock.Advance(10 * time.Millisecond)
	log.Record(1, stats.StageMap, 3*time.Millisecond, nil)
	clock.Advance(10 * time.Millisecond)
	log.Record(0, stats.StageMap, 5*time.Millisecond, errors.New("boom"))

	recs := log.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].Node != 1 || recs[0].At != 10*time.Millisecond || recs[0].Err != "" {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].Node != 0 || recs[1].Err != "boom" {
		t.Fatalf("second record: %+v", recs[1])
	}
	if s := recs[1].String(); !strings.Contains(s, "Map") || !strings.Contains(s, "ERR boom") {
		t.Fatalf("render: %q", s)
	}
}

// TestStageLogConcurrent: concurrent per-worker hook calls are safe and
// all land.
func TestStageLogConcurrent(t *testing.T) {
	log := NewStageLog(stats.NewWallClock())
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for s := stats.StageCodeGen; s < stats.NumStages; s++ {
				log.Record(n, s, time.Microsecond, nil)
			}
		}(n)
	}
	wg.Wait()
	if got := len(log.Records()); got != 8*int(stats.NumStages) {
		t.Fatalf("%d records, want %d", got, 8*int(stats.NumStages))
	}
}
