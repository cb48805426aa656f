// Package fixture exercises the lockscope analyzer: blocking operations
// under data mutexes must be flagged, the sanctioned patterns (publish
// after unlock, select-with-default, coordlock ordering) must not.
package fixture

import (
	"log"
	"log/slog"
	"sync"
	"time"
)

type bus struct{ mu sync.Mutex }

func (b *bus) Publish(v int) {}

type state struct {
	mu sync.Mutex // data lock: guards n
	//wcc:coordlock swap-ordering protocol publishes under this lock
	tickMu sync.Mutex
	n      int
	b      *bus
	ch     chan int
}

func (s *state) badUnderLock() {
	s.mu.Lock()
	s.b.Publish(s.n)             // want `event publish`
	time.Sleep(time.Millisecond) // want `time.Sleep`
	s.ch <- s.n                  // want `blocking channel send`
	s.mu.Unlock()
}

func (s *state) goodAfterUnlock() {
	s.mu.Lock()
	s.n++
	v := s.n
	s.mu.Unlock()
	s.b.Publish(v)
	s.ch <- v
}

func (s *state) goodSelectDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- s.n:
	default:
	}
}

func (s *state) badSelectNoDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- s.n: // want `blocking channel send`
	}
}

// guardKeepsLockState: the early-unlock-and-return guard must not clear
// the lock state on the fall-through path.
func (s *state) guardKeepsLockState(err error) error {
	s.mu.Lock()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.b.Publish(s.n) // want `event publish`
	s.mu.Unlock()
	return nil
}

func (s *state) coordPublishOK() {
	s.tickMu.Lock()
	s.b.Publish(s.n)
	s.tickMu.Unlock()
}

func (s *state) coordStillNoSleep() {
	s.tickMu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep`
	s.tickMu.Unlock()
}

func (s *state) coordPlusDataStillBad() {
	s.tickMu.Lock()
	s.mu.Lock()
	s.b.Publish(s.n) // want `event publish`
	s.mu.Unlock()
	s.tickMu.Unlock()
}

func (s *state) badWaitUnderLock(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want `sync wait`
	s.mu.Unlock()
}

// goroutines do not inherit the spawner's locks, but their own bodies
// are still checked.
func (s *state) goroutineFresh() {
	s.mu.Lock()
	go func() {
		s.b.Publish(1)
		s.mu.Lock()
		s.ch <- 2 // want `blocking channel send`
		s.mu.Unlock()
	}()
	s.mu.Unlock()
}

// Logging is I/O: a handler writes to a file or pipe, so no record is
// written under a data mutex or a coordlock, only after the unlock.
func (s *state) logUnderLock(l *slog.Logger) {
	s.mu.Lock()
	log.Printf("n=%d", s.n)       // want `log.Printf`
	slog.Info("tick", "n", s.n)   // want `log/slog.Info`
	l.Warn("tick slow", "n", s.n) // want `log/slog.Warn`
	s.mu.Unlock()
	s.tickMu.Lock()
	l.LogAttrs(nil, slog.LevelError, "swap") // want `log/slog.LogAttrs`
	s.tickMu.Unlock()
	slog.Error("tick failed")
	l.Debug("tick done")
}
