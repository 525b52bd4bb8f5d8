package kv

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// recordSum is the reference digest: ChecksumRecord summed record by record.
func recordSum(r Records) uint64 {
	var sum uint64
	for i := 0; i < r.Len(); i++ {
		sum += ChecksumRecord(r.Record(i))
	}
	return sum
}

// TestChecksumMatchesRecordSum: the four-lane kernel equals the per-record
// digest for every remainder of the lane width and for a large buffer.
func TestChecksumMatchesRecordSum(t *testing.T) {
	g := NewGenerator(31, DistUniform)
	for n := int64(0); n <= 9; n++ {
		r := g.Generate(7, n)
		if got, want := r.Checksum(), recordSum(r); got != want {
			t.Fatalf("%d rows: Checksum %#x, record sum %#x", n, got, want)
		}
	}
	r := g.Generate(0, 10000)
	if got, want := r.Checksum(), recordSum(r); got != want {
		t.Fatalf("10k rows: Checksum %#x, record sum %#x", got, want)
	}
}

// FuzzChecksum: on arbitrary bytes cut to whole records, the four-lane
// kernel equals the per-record digest.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 5*RecordSize))
	f.Add(NewGenerator(1, DistUniform).Generate(0, 9).Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := mustRecords(t, data[:len(data)/RecordSize*RecordSize])
		if got, want := r.Checksum(), recordSum(r); got != want {
			t.Fatalf("%d rows: Checksum %#x, record sum %#x", r.Len(), got, want)
		}
	})
}

// oneLaneFill is the reference value filler: the plain LCG recurrence, one
// byte per step.
func oneLaneFill(dst []byte, seed uint64) {
	v := seed
	for i := KeySize + 8; i < RecordSize; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		dst[i] = 'A' + byte((v>>57)%26)
	}
}

// TestFillValueMatchesOneLane: the four-lane jump-ahead filler writes the
// bytes of the one-lane recurrence.
func TestFillValueMatchesOneLane(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xffffffffffffffff, 0x9e3779b97f4a7c15, 12345} {
		var got, want [RecordSize]byte
		fillValue(&got, seed)
		oneLaneFill(want[:], seed)
		if got != want {
			t.Fatalf("seed %#x: filler %q, want %q", seed, got[KeySize+8:], want[KeySize+8:])
		}
	}
}

// TestGeneratorGolden pins the generated bytes and their digest for every
// distribution: rows [0, 1000) plus 97 rows at 2^40, under seed 0x5eed.
// The values were recorded from the one-lane generator and checksum loops,
// so any drift in the four-lane kernels shows here.
func TestGeneratorGolden(t *testing.T) {
	golden := []struct {
		dist            Distribution
		sha256          string
		sumLow, sumHigh uint64
	}{
		{DistUniform, "7f317a6bf152b3e7ca2791d63f6cdebe71b836ebb39878cad5214073f0e4967f", 0x3668ee6075d2133b, 0x84486fc8bbb2930c},
		{DistSkewed, "e3dd90181558c695a64407447cf3c992c668acd675d2d7255fbb402e1f575dd1", 0x81babc3f5a923bef, 0xa330a55f99c18dff},
		{DistZipf, "50baf58d8926cfb1da3c8afb090ecf7603c4a49f369a205865fc5813ef99e7f6", 0x2064bed802506ff1, 0xe004b2ff937ac7a5},
		{DistSorted, "f6293eb6a084203753e0865a20b8d6c6a6948d3ea7a12e9402be8b3a686115c9", 0xa182a0a29e0c68d3, 0xdab4a5991ae7a568},
		{DistNearSorted, "324c1c438f126d3ca0bf2cdaba947e0afda1faa2c19b1ac168ce8853d9e46b01", 0x139dc4c12f7eebc6, 0x5c66add19d0345a1},
		{DistDupHeavy, "21f1709a18fcbbd48f2c5d17a3d2acb8fff36f2500c8d554d618fc161a5a1d73", 0xab588904430f2177, 0xff52a1d858fca5a4},
		{DistVarPrefix, "7a1303cbc0b5ee7d0f64164045969b02668434dc7a80cc85062f8dd4152c33bd", 0xc6d559e4c5db5888, 0x596a854d740dbb24},
	}
	for _, gd := range golden {
		g := NewGenerator(0x5eed, gd.dist)
		low, high := g.Generate(0, 1000), g.Generate(1<<40, 97)
		h := sha256.New()
		h.Write(low.Bytes())
		h.Write(high.Bytes())
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != gd.sha256 {
			t.Errorf("%s: generated bytes sha256 %s, want %s", gd.dist, got, gd.sha256)
		}
		if got := low.Checksum(); got != gd.sumLow {
			t.Errorf("%s: checksum of rows [0,1000) %#x, want %#x", gd.dist, got, gd.sumLow)
		}
		if got := high.Checksum(); got != gd.sumHigh {
			t.Errorf("%s: checksum of rows at 2^40 %#x, want %#x", gd.dist, got, gd.sumHigh)
		}
	}
}
