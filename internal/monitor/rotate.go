package monitor

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// RotatingWriter is an io.WriteCloser for endless JSONL event streams:
// when the active file exceeds MaxBytes or MaxAge it is rotated out by an
// atomic rename to <path>.<seq> and a fresh file opened at <path>. The
// monitor writes exactly one complete line per Write call, and rotation
// only ever happens between Write calls, so no line is ever split across
// files — the gap-free property the rotation test pins down.
//
// Rotated names count up from 1 (<path>.1 is the oldest). An existing
// rotation sequence in the directory is continued, so a restarted daemon
// never overwrites an earlier run's rotated files.
type RotatingWriter struct {
	path     string
	maxBytes int64
	maxAge   time.Duration

	mu     sync.Mutex
	f      *os.File
	size   int64
	opened time.Time
	seq    int // last rotated suffix in use
}

// NewRotatingWriter opens (appending to) path and rotates it when it
// exceeds maxBytes bytes or maxAge of wall-clock age. A zero maxBytes or
// maxAge disables that bound; both zero means the writer never rotates
// (plain append).
func NewRotatingWriter(path string, maxBytes int64, maxAge time.Duration) (*RotatingWriter, error) {
	w := &RotatingWriter{path: path, maxBytes: maxBytes, maxAge: maxAge}
	// Continue an existing rotation sequence rather than clobbering it.
	for {
		if _, err := os.Stat(w.rotatedPath(w.seq + 1)); err != nil {
			break
		}
		w.seq++
	}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *RotatingWriter) rotatedPath(seq int) string {
	return fmt.Sprintf("%s.%d", w.path, seq)
}

func (w *RotatingWriter) open() error {
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("monitor: rotate open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("monitor: rotate open: %w", err)
	}
	w.f = f
	w.size = st.Size()
	w.opened = time.Now()
	return nil
}

// shouldRotateLocked reports whether the next write of n bytes warrants a
// rotation first. Never rotates an empty file (a single over-long line
// still lands somewhere).
func (w *RotatingWriter) shouldRotateLocked(n int) bool {
	if w.size == 0 {
		return false
	}
	if w.maxBytes > 0 && w.size+int64(n) > w.maxBytes {
		return true
	}
	if w.maxAge > 0 && time.Since(w.opened) > w.maxAge {
		return true
	}
	return false
}

func (w *RotatingWriter) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("monitor: rotate close: %w", err)
	}
	w.seq++
	if err := os.Rename(w.path, w.rotatedPath(w.seq)); err != nil {
		return fmt.Errorf("monitor: rotate rename: %w", err)
	}
	return w.open()
}

// Write appends p to the active file, rotating first if the configured
// bounds are exceeded. The monitor hands complete lines to Write, so
// rotation boundaries always fall between lines.
func (w *RotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("monitor: rotating writer is closed")
	}
	if w.shouldRotateLocked(len(p)) {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// Close closes the active file. Rotated files are already closed.
func (w *RotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
