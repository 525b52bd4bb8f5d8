package flags

import (
	"flag"
	"io"
	"testing"
	"time"

	"codedterasort/internal/cluster"
)

// TestRegisterAndSpec: the canonical flag names parse into a spec for both
// algorithms; TeraSort drops the coded-only knobs and runs at r=1, the only
// redundancy file-backed input accepts.
func TestRegisterAndSpec(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterCommon(fs, 8)
	j.RegisterCoded(fs, 3)
	j.RegisterInDir(fs)
	err := fs.Parse([]string{
		"-k", "6", "-r", "2", "-rows", "1234", "-seed", "99", "-skewed",
		"-strategy", "resolvable", "-rate", "100", "-permsg", "5ms", "-chunk", "500",
		"-window", "8", "-membudget", "65536", "-spilldir", "/tmp/x",
		"-indir", "/tmp/in", "-procs", "4",
	})
	if err != nil {
		t.Fatal(err)
	}

	coded := j.Spec(cluster.AlgCoded)
	if coded.K != 6 || coded.R != 2 || coded.Rows != 1234 || coded.Seed != 99 ||
		!coded.Skewed || coded.Placement != "resolvable" || coded.RateMbps != 100 ||
		coded.PerMessage != 5*time.Millisecond || coded.ChunkRows != 500 ||
		coded.Window != 8 || coded.MemBudget != 65536 || coded.SpillDir != "/tmp/x" ||
		coded.Parallelism != 4 {
		t.Fatalf("coded spec: %+v", coded)
	}
	if coded.InputDir != "/tmp/in" {
		t.Fatalf("coded spec lost the input dir: %+v", coded)
	}
	if err := coded.Validate(); err == nil {
		t.Fatal("coded spec with -indir at r=2 validated")
	}
	coded.InputDir = ""
	if err := coded.Validate(); err != nil {
		t.Fatal(err)
	}

	tera := j.Spec(cluster.AlgTeraSort)
	if tera.R != 0 || tera.Placement != "" {
		t.Fatalf("terasort spec kept coded-only knobs: %+v", tera)
	}
	if tera.InputDir != "/tmp/in" {
		t.Fatalf("terasort spec lost the input dir: %+v", tera)
	}
	if err := tera.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNoMulticastFlag: the multicast has one algorithm, so the former
// -tree selector is an unknown flag.
func TestNoMulticastFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var j Job
	j.RegisterCommon(fs, 8)
	j.RegisterCoded(fs, 3)
	if err := fs.Parse([]string{"-tree"}); err == nil {
		t.Fatal("-tree accepted")
	}
}

// TestDefaults: defaults match the historical per-binary flag defaults,
// and the parameterized K default lands.
func TestDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterCommon(fs, 4)
	j.RegisterCoded(fs, 2)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if j.K != 4 || j.R != 2 || j.Rows != 100000 || j.Seed != 2017 {
		t.Fatalf("defaults: %+v", j)
	}
	if j.Chunk != 0 || j.Window != 0 || j.MemBudget != 0 || j.Procs != 0 {
		t.Fatalf("policy defaults must be zero (mono schedule): %+v", j)
	}
}

// TestProcsOnly: the worker's reduced surface registers only -procs.
func TestProcsOnly(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var j Job
	j.RegisterProcs(fs, "custom usage")
	if err := fs.Parse([]string{"-procs", "3"}); err != nil {
		t.Fatal(err)
	}
	if j.Procs != 3 {
		t.Fatalf("procs: %d", j.Procs)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 1 {
		t.Fatalf("%d flags registered, want 1", n)
	}
}
