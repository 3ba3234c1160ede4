// Package bench reports the process's peak resident set size, the memory
// figure the benchmark module (see benchmark/README.md) prints next to
// its own measurements.
package bench

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// PeakRSS returns the process's peak resident set size in bytes, read
// from /proc/self/status (VmHWM) on Linux. On platforms without procfs
// it falls back to the Go heap's current Sys size — an underestimate,
// but monotone enough for regression tracking on one platform.
func PeakRSS() int64 {
	if v, ok := procPeakRSS(); ok {
		return v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

func procPeakRSS() (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
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
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}
