package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// resetPeakRSS collects garbage and restarts the kernel's peak-RSS (VmHWM)
// counter from the current RSS, so the next read covers only what runs in
// between. With free set it first returns the freed heap to the OS, so the
// next read is the peak of what runs next alone; without, the process
// keeps its warm heap.
func resetPeakRSS(free bool) error {
	runtime.GC()
	if free {
		debug.FreeOSMemory()
	}
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set since the last
// reset, in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
