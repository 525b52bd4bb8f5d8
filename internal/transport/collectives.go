package transport

import (
	"fmt"
	"sort"
)

// groupIndex returns the group in ascending rank order and the position
// of rank in it, or an error if rank is absent or the group invalid. An
// already ascending group (the engines' groups are) is returned as is, not
// copied; callers must not modify the result.
func groupIndex(group []int, rank int) ([]int, int, error) {
	if len(group) == 0 {
		return nil, -1, fmt.Errorf("transport: empty group")
	}
	sorted := group
	if !sort.IntsAreSorted(group) {
		sorted = append([]int(nil), group...)
		sort.Ints(sorted)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, -1, fmt.Errorf("transport: duplicate rank %d in group", sorted[i])
		}
	}
	i := sort.SearchInts(sorted, rank)
	if i == len(sorted) || sorted[i] != rank {
		return nil, -1, fmt.Errorf("transport: rank %d not in group %v", rank, group)
	}
	return sorted, i, nil
}

// RelayBcast is the relay multicast (scatter then allgather, the
// broadcast MPI libraries use for messages that are not tiny). With m the
// number of receivers and L = len(payload), the root sends slice j,
// payload[j*L/m : (j+1)*L/m], to the j-th receiver in ascending rank
// order; every receiver forwards its slice to the other m-1 receivers and
// joins the m slices in slice order. The root's egress per packet is L —
// the paper's multicast load — and the group's total wire bytes are m*L,
// spread over m links instead of queued on the root's.
//
// A receiver returns only once it holds every slice: if the root or a
// relay fails, the other receivers block until the Conn closes. All group
// members must call it with identical group/root/tag; non-roots pass nil.
func RelayBcast(c Conn, group []int, root int, tag Tag, payload []byte) ([]byte, error) {
	members, self, err := groupIndex(group, c.Rank())
	if err != nil {
		return nil, err
	}
	_, rootIdx, err := groupIndex(members, root)
	if err != nil {
		return nil, err
	}
	// Receiver j is the j-th member other than the root.
	m := len(members) - 1
	receiver := func(j int) int {
		if j >= rootIdx {
			j++
		}
		return members[j]
	}
	if self == rootIdx {
		n := len(payload)
		for j := 0; j < m; j++ {
			if err := c.Send(receiver(j), tag, payload[j*n/m:(j+1)*n/m]); err != nil {
				return nil, err
			}
		}
		return payload, nil
	}
	own, err := c.Recv(root, tag)
	if err != nil || m == 1 {
		return own, err
	}
	if self > rootIdx {
		self--
	}
	for j := 0; j < m; j++ {
		if j == self {
			continue
		}
		if err := c.Send(receiver(j), tag, own); err != nil {
			return nil, err
		}
	}
	// Slice lengths differ from L/m by less than one, so m*(len(own)+1)
	// bounds L: one allocation holds the joined packet. Receiving in slice
	// order puts each slice at the current end, and each is dropped once
	// copied in.
	joined := make([]byte, 0, m*(len(own)+1))
	for j := 0; j < m; j++ {
		slice := own
		if j != self {
			if slice, err = c.Recv(receiver(j), tag); err != nil {
				return nil, err
			}
		}
		joined = append(joined, slice...)
	}
	return joined, nil
}

// CentralBarrier blocks until every node of the Conn has entered the
// barrier with this tag: all ranks report to rank 0, which then releases
// everyone. Two sub-tags keep arrival and release traffic distinct.
func CentralBarrier(c Conn, tag Tag) error {
	const (
		arrive  = Tag(1) << 62
		release = Tag(1) << 63
	)
	if c.Rank() == 0 {
		for r := 1; r < c.Size(); r++ {
			if _, err := c.Recv(r, tag|arrive); err != nil {
				return err
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.Send(r, tag|release, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, tag|arrive, nil); err != nil {
		return err
	}
	_, err := c.Recv(0, tag|release)
	return err
}

// SerialOrder coordinates the serial communication schedule of the paper's
// Fig 9: every rank calls it, rank 0's fn runs immediately, and rank r's fn
// runs only after rank r-1 has finished (a token passes down the rank
// chain). All ranks must call it with the same tag; fn errors propagate to
// the caller and stop the token.
func SerialOrder(c Conn, tag Tag, fn func() error) error {
	if c.Rank() > 0 {
		if _, err := c.Recv(c.Rank()-1, tag); err != nil {
			return err
		}
	}
	if err := fn(); err != nil {
		return err
	}
	if c.Rank() < c.Size()-1 {
		return c.Send(c.Rank()+1, tag, nil)
	}
	return nil
}

// Gather collects one payload from every rank at root. Root receives the
// payloads indexed by rank (its own entry is its local payload); non-roots
// receive nil. All nodes must call it with identical root/tag.
func Gather(c Conn, root int, tag Tag, payload []byte) ([][]byte, error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("transport: gather root %d out of range", root)
	}
	if c.Rank() != root {
		return nil, c.Send(root, tag, payload)
	}
	out := make([][]byte, c.Size())
	out[root] = payload
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		p, err := c.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = p
	}
	return out, nil
}

// Scatter delivers payloads[r] from root to every rank r and returns the
// local slice. Non-roots pass nil payloads. All nodes call it with
// identical root/tag.
func Scatter(c Conn, root int, tag Tag, payloads [][]byte) ([]byte, error) {
	if c.Rank() == root {
		if len(payloads) != c.Size() {
			return nil, fmt.Errorf("transport: scatter needs %d payloads, got %d", c.Size(), len(payloads))
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, tag, payloads[r]); err != nil {
				return nil, err
			}
		}
		return payloads[root], nil
	}
	return c.Recv(root, tag)
}
