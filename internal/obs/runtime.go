package obs

import (
	"io"
	"runtime"
	"runtime/debug"
)

// Version identifies the build in siwa_build_info and slog startup lines.
// Stamped by the Makefile via
//
//	-ldflags "-X repro/internal/obs.Version=<git describe>"
//
// and falling back to the module's VCS revision when unstamped.
var Version = ""

// VersionString resolves the build version: the -ldflags stamp when
// present, else the vcs.revision recorded by the Go toolchain, else
// "dev".
func VersionString() string {
	if Version != "" {
		return Version
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "dev"
}

// The runtime families. The process-level ones are declared without the
// tier prefix; siwa_build_info keeps one fleet-wide name so a single
// query lists every binary's version.
var (
	famGoroutines = Family{Name: "_go_goroutines", Help: "Number of live goroutines.", Type: "gauge"}
	famHeapInuse  = Family{Name: "_go_heap_inuse_bytes", Help: "Heap bytes in use.", Type: "gauge"}
	famGCPause    = Family{Name: "_go_gc_pause_seconds_total", Help: "Cumulative stop-the-world GC pause.", Type: "counter"}
	famBuildInfo  = Family{Name: "siwa_build_info", Help: "Build metadata; the gauge value is always 1.", Type: "gauge", Labels: []string{"version", "go"}}
)

// WriteRuntimeMetrics renders Go runtime telemetry in Prometheus text
// format under the tier's prefix: goroutine count, heap in use,
// cumulative GC pause, and the build-info gauge.
func WriteRuntimeMetrics(w io.Writer, prefix string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	famGoroutines.Prefixed(prefix).Write(w, runtime.NumGoroutine())
	famHeapInuse.Prefixed(prefix).Write(w, ms.HeapInuse)
	famGCPause.Prefixed(prefix).Write(w, float64(ms.PauseTotalNs)/1e9)
	famBuildInfo.Write(w, 1, VersionString(), runtime.Version())
}
