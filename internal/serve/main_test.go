package serve

import (
	"fmt"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// watchdogLimit bounds the whole package's test run. The suite takes ~12 s
// (~45 s under -race) on two idle CPUs, so passing the limit means a test is
// stuck: dump every goroutine and fail now, not at go test's ten-minute
// default.
const watchdogLimit = 3 * time.Minute

func TestMain(m *testing.M) {
	watchdog := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "serve tests: still running after %s, goroutines:\n", watchdogLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // diagnostics only; exiting either way
		os.Exit(2)
	})
	code := m.Run()
	watchdog.Stop()
	os.Exit(code)
}
