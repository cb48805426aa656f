// Package logtest captures the records the repo's packages write through
// log/slog's default logger, for tests that assert on them.
package logtest

import (
	"bytes"
	"log"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// Log holds the captured records, one text-handler line each.
type Log struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// Capture makes slog's default logger a debug-level text handler writing
// into the returned Log until t ends, then restores the previous default and
// the log package's output, which slog.SetDefault redirects. The default is
// process-wide, so a test that captures must not call t.Parallel.
func Capture(t testing.TB) *Log {
	prev, out, flags := slog.Default(), log.Writer(), log.Flags()
	l := &Log{}
	slog.SetDefault(slog.New(slog.NewTextHandler(l, &slog.HandlerOptions{Level: slog.LevelDebug})))
	t.Cleanup(func() { slog.SetDefault(prev); log.SetOutput(out); log.SetFlags(flags) })
	return l
}

func (l *Log) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// Lines returns the captured records that contain every one of subs.
func (l *Log) Lines(subs ...string) []string {
	l.mu.Lock()
	lines := strings.Split(l.buf.String(), "\n")
	l.mu.Unlock()
	return slices.DeleteFunc(lines, func(line string) bool {
		return line == "" || slices.ContainsFunc(subs, func(s string) bool { return !strings.Contains(line, s) })
	})
}

// Wait polls until n records contain every one of subs and returns them,
// failing t after five seconds.
func (l *Log) Wait(t testing.TB, n int, subs ...string) []string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got := l.Lines(subs...); len(got) >= n {
			return got
		}
	}
	t.Fatalf("no %d log records containing %q; captured:\n%s", n, subs, strings.Join(l.Lines(), "\n"))
	return nil
}
