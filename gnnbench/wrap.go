package main

import (
	"context"
	"sync/atomic"
	"time"

	"gnndrive/internal/storage"
)

// timedBackend times every read that reaches a storage.Backend from
// outside it: the synchronous ReadAt*/ReadDirect* paths (page-cache
// faults) and each asynchronous request from Submit to its Done
// callback. Untimed setup accessors pass straight through.
type timedBackend struct {
	storage.Backend
	rec *recorder
	// submits counts submission calls (Submit or SubmitBatch) and
	// submitted the requests they carried.
	submits, submitted atomic.Int64
}

// wrapTimed wraps inner so that the result implements
// storage.BatchSubmitter and storage.BufferRegistrar exactly when inner
// does; otherwise storage.SubmitAll would quietly turn a batched backend
// into per-request submissions in the traced run.
func wrapTimed(inner storage.Backend, rec *recorder) storage.Backend {
	t := &timedBackend{Backend: inner, rec: rec}
	bs, batched := inner.(storage.BatchSubmitter)
	reg, registers := inner.(storage.BufferRegistrar)
	switch {
	case batched && registers:
		return &struct {
			*timedBackend
			batchSubmit
			storage.BufferRegistrar
		}{t, batchSubmit{t, bs}, reg}
	case batched:
		return &struct {
			*timedBackend
			batchSubmit
		}{t, batchSubmit{t, bs}}
	case registers:
		return &struct {
			*timedBackend
			storage.BufferRegistrar
		}{t, reg}
	}
	return t
}

// timed returns the timing layer of a backend built by wrapTimed, or nil.
func timed(b storage.Backend) *timedBackend {
	if u, ok := b.(interface{ timing() *timedBackend }); ok {
		return u.timing()
	}
	return nil
}

func (t *timedBackend) timing() *timedBackend { return t }

// unwrap returns the backend the timing layer wraps, or b itself.
func unwrap(b storage.Backend) storage.Backend {
	if t := timed(b); t != nil {
		return t.Backend
	}
	return b
}

func (t *timedBackend) syncDone(start time.Time, n int) {
	t.rec.read(spanSyncRead, start, time.Now(), n)
}

func (t *timedBackend) ReadAt(p []byte, off int64) (time.Duration, error) {
	start := time.Now()
	d, err := t.Backend.ReadAt(p, off)
	t.syncDone(start, len(p))
	return d, err
}

func (t *timedBackend) ReadAtCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	start := time.Now()
	d, err := t.Backend.ReadAtCtx(ctx, p, off)
	t.syncDone(start, len(p))
	return d, err
}

func (t *timedBackend) ReadDirect(p []byte, off int64) (time.Duration, error) {
	start := time.Now()
	d, err := t.Backend.ReadDirect(p, off)
	t.syncDone(start, len(p))
	return d, err
}

func (t *timedBackend) ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	start := time.Now()
	d, err := t.Backend.ReadDirectCtx(ctx, p, off)
	t.syncDone(start, len(p))
	return d, err
}

// arm interposes on req's completion. Callers pool requests with a
// fixed Done, so the original callback is restored before it runs and
// the request can be recycled unchanged.
func (t *timedBackend) arm(req *storage.Request, start time.Time) {
	done := req.Done
	req.Done = func(r *storage.Request) {
		r.Done = done
		t.rec.read(spanAsyncRead, start, time.Now(), len(r.Buf))
		if done != nil {
			done(r)
		}
	}
}

func (t *timedBackend) Submit(req *storage.Request) {
	t.submits.Add(1)
	t.submitted.Add(1)
	t.arm(req, time.Now())
	t.Backend.Submit(req)
}

// batchSubmit is the SubmitBatch half of a wrapped batching backend.
type batchSubmit struct {
	t  *timedBackend
	bs storage.BatchSubmitter
}

func (b batchSubmit) SubmitBatch(reqs []*storage.Request) {
	b.t.submits.Add(1)
	b.t.submitted.Add(int64(len(reqs)))
	start := time.Now()
	for _, r := range reqs {
		b.t.arm(r, start)
	}
	b.bs.SubmitBatch(reqs)
}

// countingGate is a core.IOGate whose capacity never binds: it grants
// every request at once and records how many backend reads are in flight
// each time one is admitted.
type countingGate struct {
	inflight atomic.Int64
	// hist[v] counts admissions that saw v reads in flight (the last
	// bucket collects anything larger).
	hist [1024]atomic.Int64
}

func (g *countingGate) admit(n int) {
	v := g.inflight.Add(int64(n))
	if v >= int64(len(g.hist)) {
		v = int64(len(g.hist) - 1)
	}
	g.hist[v].Add(1)
}

func (g *countingGate) Acquire(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g.admit(n)
	return nil
}

func (g *countingGate) TryAcquire(n int) bool {
	g.admit(n)
	return true
}

func (g *countingGate) Release(n int) { g.inflight.Add(-int64(n)) }

// histogram returns a copy of the occupancy counts.
func (g *countingGate) histogram() []int64 {
	out := make([]int64, len(g.hist))
	for i := range g.hist {
		out[i] = g.hist[i].Load()
	}
	return out
}
