package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the run started; Parent is 0 for the root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory. Hot loops append to a
// spanBuf they own; buffers are gathered when the run ends. A nil *tracer
// records nothing, which is how the untraced runs stay free of tracing
// work.
type tracer struct {
	base time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf grows in fixed-size blocks, so recording never copies the spans
// already kept (a growing slice would stall the recording goroutine on
// ever larger copies).
type spanBuf struct {
	t      *tracer
	blocks [][]span
}

const spanBlock = 4096

func (b *spanBuf) push(s span) {
	if n := len(b.blocks); n == 0 || len(b.blocks[n-1]) == spanBlock {
		b.blocks = append(b.blocks, make([]span, 0, spanBlock))
	}
	last := &b.blocks[len(b.blocks)-1]
	*last = append(*last, s)
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// now returns nanoseconds since the run started (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// buf returns a new span buffer owned by the caller's goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// add records a finished span and returns its id (0 on a nil buffer).
func (b *spanBuf) add(parent int64, name string, start, end int64) int64 {
	if b == nil {
		return 0
	}
	id := b.t.ids.Add(1)
	b.push(span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open reserves an id for a span whose children are recorded before it
// ends; close records it.
func (b *spanBuf) open() int64 {
	if b == nil {
		return 0
	}
	return b.t.ids.Add(1)
}

func (b *spanBuf) close(id, parent int64, name string, start, end int64) {
	if b == nil {
		return
	}
	b.push(span{ID: id, Parent: parent, Name: name, Start: start, End: end})
}

// durations returns the durations (ns) of every span with the given name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, b := range t.bufs {
		for _, blk := range b.blocks {
			for _, s := range blk {
				if s.Name == name {
					out = append(out, s.End-s.Start)
				}
			}
		}
	}
	return out
}

// write stores every span as gzip-compressed JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, b := range t.bufs {
		for _, blk := range b.blocks {
			for i := range blk {
				if err := enc.Encode(&blk[i]); err != nil {
					t.mu.Unlock()
					f.Close()
					return err
				}
			}
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
