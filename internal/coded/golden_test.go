package coded

import (
	"fmt"
	"testing"

	"codedterasort/internal/kv"
)

// goldenR1 pins every partition's OutputChecksum of the r=1 TeraSort path
// for K=4, 6000 rows, seed 20, per distribution and partitioning policy.
// The values were recorded from the standalone TeraSort engine that
// preceded this path, so they hold it to byte identity with that engine.
var goldenR1 = []struct {
	dist, partitioning string
	sums               [4]uint64
}{
	{"uniform", "uniform", [4]uint64{0xc8854e0c99db03cd, 0xc115d3e7cba86866, 0x07913e9630617db5, 0xe3f47265bcd36106}},
	{"uniform", "sample", [4]uint64{0x15cc3789e36ecd62, 0xf3719dcfdfe778e5, 0x531951e1e215ec44, 0x18c9abb4ad4c1863}},
	{"skewed", "uniform", [4]uint64{0x275f67e08b988162, 0xb7f03b3d99586eb6, 0x56569ce2a20c7c44, 0xa299cb212d776ecf}},
	{"skewed", "sample", [4]uint64{0xbabeb1574731ad2b, 0x859655ab6164d1b9, 0x7a60ba3a9a9c6439, 0x1d8a49e4b141f80e}},
	{"zipf", "uniform", [4]uint64{0xe36f4c80fbd5722f, 0x04ecc4d173824871, 0xb44c8d0078b17673, 0x2f44f059bc610fc9}},
	{"zipf", "sample", [4]uint64{0x7d8404deeeadba53, 0xf2dd1fa09ff79868, 0x865dd478d4dfc3d4, 0xd52e95b440e52a4d}},
	{"sorted", "uniform", [4]uint64{0xd14889f575e21d97, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{"sorted", "sample", [4]uint64{0xe216b0118fb4a62f, 0x1b6b3754c6b6dc0a, 0x3edcd1fdb8980ba8, 0x94e9d09166de8fb6}},
	{"nearsorted", "uniform", [4]uint64{0x47d8e4ccc7f913df, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}},
	{"nearsorted", "sample", [4]uint64{0x5059d5b947b82c6f, 0x47fcc3a70ce7a245, 0x37d8f0a67e716902, 0x77a95ac5f4e7dc29}},
	{"dupheavy", "uniform", [4]uint64{0x5d8b28308581cc62, 0x81096aeb379c5ec1, 0xd23d67ae6941a632, 0x8eb005eac21f8e42}},
	{"dupheavy", "sample", [4]uint64{0x762742518622e00e, 0xa117e08b90eb3949, 0x37348c0ed6710bb5, 0xf10e51c8fb003a8b}},
	{"varprefix", "uniform", [4]uint64{0x52b238f578d39fab, 0x447b24e525a44541, 0x94c47ce907745949, 0xbaa80184d7a7f27a}},
	{"varprefix", "sample", [4]uint64{0x5b68805e1150487e, 0xcc288b138a14d0cb, 0xbffbdf65eec81201, 0xff0cf170f3670565}},
}

// TestGoldenR1Checksums: the r=1 path reproduces the pinned per-partition
// checksums in every mode (monolithic, chunked, spill) at procs 1 and 4.
func TestGoldenR1Checksums(t *testing.T) {
	const k, rows, seed = 4, 6000, 20
	for _, g := range goldenR1 {
		dist, err := kv.ParseDistribution(g.dist)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"mono", "chunked", "spill"} {
			for _, procs := range []int{1, 4} {
				cfg := Config{K: k, R: 1, Rows: rows, Seed: seed, Dist: dist,
					Partitioning: g.partitioning, Parallelism: procs}
				switch mode {
				case "chunked":
					cfg.ChunkRows = 400
				case "spill":
					cfg.MemBudget, cfg.SpillDir = rows*kv.RecordSize/8, t.TempDir()
				}
				name := fmt.Sprintf("%s/%s/%s/procs=%d", g.dist, g.partitioning, mode, procs)
				var spilled int64
				for rank, res := range runAll(t, cfg) {
					if res.OutputChecksum != g.sums[rank] {
						t.Fatalf("%s: partition %d checksum %#016x, want %#016x", name, rank, res.OutputChecksum, g.sums[rank])
					}
					spilled += res.SpilledRuns
				}
				if mode == "spill" && spilled == 0 {
					t.Fatalf("%s: nothing spilled", name)
				}
			}
		}
	}
}
