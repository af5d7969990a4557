package service

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind:
// after the run it closes idle client connections and waits up to 5 s for
// the goroutine count to fall back to where it started, then prints the
// stacks of whatever is left. A fuzzing run (-test.fuzz, which the
// coordinator passes on to its workers) is not checked: the fuzzing engine
// starts the os/signal goroutine, which never exits.
func TestMain(m *testing.M) {
	start := runtime.NumGoroutine()
	code := m.Run()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if code == 0 && !fuzzing && !goroutinesSettle(start, 5*time.Second) {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines before the tests, %d after\n%s\n",
			start, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettle polls until at most want goroutines are left or the
// wait runs out.
func goroutinesSettle(want int, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
