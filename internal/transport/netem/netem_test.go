package netem

import (
	"errors"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

func TestTransmitTime(t *testing.T) {
	l := Limit(nil, Options{RateMbps: 100})
	// 12.5 MB at 100 Mbps = 1 s.
	if got := l.TransmitTime(12_500_000); got != time.Second {
		t.Fatalf("TransmitTime = %v, want 1s", got)
	}
	l2 := Limit(nil, Options{RateMbps: 100, PerMessage: 50 * time.Millisecond})
	if got := l2.TransmitTime(0); got != 50*time.Millisecond {
		t.Fatalf("per-message = %v", got)
	}
	l3 := Limit(nil, Options{})
	if got := l3.TransmitTime(1 << 30); got != 0 {
		t.Fatalf("unlimited rate should be instant, got %v", got)
	}
	l4 := Limit(nil, Options{RateMbps: 100, SlowFactor: 2})
	if got := l4.TransmitTime(12_500_000); got != 2*time.Second {
		t.Fatalf("slow factor = %v, want 2s", got)
	}
}

func TestSendIsRateLimited(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	// 800 Mbps so 1 MB takes 10 ms.
	l := Limit(m.Endpoint(0), Options{RateMbps: 800})
	payload := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := l.Send(1, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 45*time.Millisecond {
		t.Fatalf("5 MB at 800 Mbps finished in %v, want >= ~50ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("rate limiting too slow: %v", elapsed)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Endpoint(1).Recv(0, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentSendsSerialize(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	l := Limit(m.Endpoint(0), Options{PerMessage: 10 * time.Millisecond})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Send(1, 2, []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("6 concurrent sends with 10ms occupancy took %v; egress not serialized", elapsed)
	}
}

func TestUnlimitedIsFast(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	l := Limit(m.Endpoint(0), Options{})
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := l.Send(1, 1, make([]byte, 1<<16)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("unlimited limiter added delay: %v", elapsed)
	}
}

func TestLimiterPassesThroughRecvAndMetadata(t *testing.T) {
	m := memnet.NewMesh(3)
	defer m.Close()
	l := Limit(m.Endpoint(1), Options{RateMbps: 1000})
	if l.Rank() != 1 || l.Size() != 3 {
		t.Fatalf("metadata wrong: %d/%d", l.Rank(), l.Size())
	}
	if err := m.Endpoint(0).Send(1, 4, []byte("in")); err != nil {
		t.Fatal(err)
	}
	got, err := l.Recv(0, 4)
	if err != nil || string(got) != "in" {
		t.Fatalf("Recv: %q %v", got, err)
	}
}

func TestFaulty(t *testing.T) {
	m := memnet.NewMesh(2)
	defer m.Close()
	boom := errors.New("boom")
	f := Fail(m.Endpoint(0), 2, boom)
	if err := f.Send(1, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, 1, []byte("c")); !errors.Is(err, boom) {
		t.Fatalf("third send: %v, want boom", err)
	}
	if err := f.Send(1, 1, []byte("d")); !errors.Is(err, boom) {
		t.Fatalf("failure should be permanent, got %v", err)
	}
	if f.Rank() != 0 || f.Size() != 2 {
		t.Fatalf("metadata wrong")
	}
}

func TestFaultyBcastPropagates(t *testing.T) {
	// A failing send inside a collective must surface at the caller, and
	// the multicast is all-or-nothing: the root dies after its first slice,
	// so no receiver holds every slice and none may complete — both stay
	// blocked until the teardown closes their endpoints.
	m := memnet.NewMesh(3)
	defer m.Close()
	boom := errors.New("link down")
	var wg sync.WaitGroup
	rootErr := make(chan error, 1)
	errs := make([]error, 3)
	go func() {
		ep := transport.WithCollectives(Fail(m.Endpoint(0), 1, boom))
		_, err := ep.Bcast([]int{0, 1, 2}, 0, 1, []byte("pkt"))
		rootErr <- err
	}()
	for _, rank := range []int{1, 2} {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := transport.WithCollectives(m.Endpoint(rank))
			_, errs[rank] = ep.Bcast([]int{0, 1, 2}, 0, 1, nil)
		}(rank)
	}
	// Wait for the root's error, then tear the receivers down.
	err0 := <-rootErr
	m.Endpoint(1).Close()
	m.Endpoint(2).Close()
	wg.Wait()
	if !errors.Is(err0, boom) {
		t.Fatalf("root error = %v", err0)
	}
	for _, rank := range []int{1, 2} {
		if !errors.Is(errs[rank], transport.ErrClosed) {
			t.Fatalf("rank %d error = %v, want ErrClosed (a partial multicast must not complete)", rank, errs[rank])
		}
	}
}
