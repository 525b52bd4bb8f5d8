// Relay multicast delivery and egress over the real in-process and TCP
// meshes: every member returns the root's exact payload, the root's egress
// is one payload, and the group's wire total is one payload per receiver.
package transport_test

import (
	"bytes"
	"fmt"
	"testing"

	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/tcpnet"
)

const meshSize = 8

// meshes returns a fresh memnet and tcpnet mesh of meshSize ranks.
func meshes(t *testing.T) map[string][]transport.Conn {
	t.Helper()
	mem := memnet.NewMesh(meshSize)
	t.Cleanup(func() { mem.Close() })
	tcp, err := tcpnet.StartLocal(meshSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range tcp {
			ep.Close()
		}
	})
	out := map[string][]transport.Conn{"memnet": nil, "tcpnet": nil}
	for r := 0; r < meshSize; r++ {
		out["memnet"] = append(out["memnet"], mem.Endpoint(r))
		out["tcpnet"] = append(out["tcpnet"], tcp[r])
	}
	return out
}

// bcastAll runs one Bcast on every member of group concurrently, each
// through a fresh Meter, and returns what every member got and sent.
func bcastAll(conns []transport.Conn, group []int, root int, tag transport.Tag, payload []byte) (got [][]byte, sent []int64, errs []error) {
	n := len(group)
	got, sent, errs = make([][]byte, n), make([]int64, n), make([]error, n)
	done := make(chan struct{}, n)
	for i, rank := range group {
		go func(i, rank int) {
			defer func() { done <- struct{}{} }()
			meter := transport.NewMeter(conns[rank])
			var p []byte
			if rank == root {
				p = payload
			}
			got[i], errs[i] = transport.WithCollectives(meter).Bcast(group, root, tag, p)
			sent[i] = meter.Counters().SentBytes
		}(i, rank)
	}
	for range group {
		<-done
	}
	return got, sent, errs
}

// TestBcastDeliveryAndEgress: group sizes 1–8, every root, payload lengths
// around the slice boundaries (0, 1, m-1, m, m+1) and one large enough to
// span many TCP segments. Each mesh and group size is its own subtest.
func TestBcastDeliveryAndEgress(t *testing.T) {
	for name, conns := range meshes(t) {
		seq := uint16(0)
		for size := 1; size <= meshSize; size++ {
			t.Run(fmt.Sprintf("%s/size=%d", name, size), func(t *testing.T) {
				group := make([]int, size)
				for i := range group {
					group[i] = i
				}
				m := size - 1
				for _, n := range []int{0, 1, m - 1, m, m + 1, 32<<10 + 3} {
					if n < 0 {
						continue
					}
					payload := make([]byte, n)
					for i := range payload {
						payload[i] = byte(i*31 + n)
					}
					rootSends := int64(n) // a lone root has no one to send to
					if m == 0 {
						rootSends = 0
					}
					for _, root := range group {
						seq++
						got, sent, errs := bcastAll(conns, group, root, transport.MakeTag(0x70, seq, 0), payload)
						var total int64
						for i, rank := range group {
							if errs[i] != nil {
								t.Fatalf("root=%d len=%d: rank %d: %v", root, n, rank, errs[i])
							}
							if !bytes.Equal(got[i], payload) {
								t.Fatalf("root=%d len=%d: rank %d got %d bytes, want the payload", root, n, rank, len(got[i]))
							}
							if rank == root && sent[i] != rootSends {
								t.Fatalf("root=%d len=%d: root sent %d bytes, want %d", root, n, sent[i], rootSends)
							}
							total += sent[i]
						}
						if total != int64(m*n) {
							t.Fatalf("root=%d len=%d: group sent %d bytes, want %d", root, n, total, m*n)
						}
					}
				}
			})
		}
	}
}

// FuzzBcast: any group size, root and payload reaches every member intact
// over memnet.
func FuzzBcast(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte(nil))
	f.Add(uint8(3), uint8(1), []byte("ab"))
	f.Add(uint8(4), uint8(3), []byte("coded packet"))
	f.Add(uint8(8), uint8(5), bytes.Repeat([]byte{0xA5}, 1000))
	f.Fuzz(func(t *testing.T, size, root uint8, payload []byte) {
		n := int(size)%meshSize + 1
		group := make([]int, n)
		for i := range group {
			group[i] = (i*3 + int(size)) % meshSize // sparse, unordered membership
		}
		rootRank := group[int(root)%n]
		mesh := memnet.NewMesh(meshSize)
		defer mesh.Close()
		conns := make([]transport.Conn, meshSize)
		for r := range conns {
			conns[r] = mesh.Endpoint(r)
		}
		got, _, errs := bcastAll(conns, group, rootRank, transport.MakeTag(0x71, 0, 0), payload)
		for i, rank := range group {
			if errs[i] != nil {
				t.Fatalf("group %v root %d: rank %d: %v", group, rootRank, rank, errs[i])
			}
			if !bytes.Equal(got[i], payload) {
				t.Fatalf("group %v root %d: rank %d got %x, want %x", group, rootRank, rank, got[i], payload)
			}
		}
	})
}
