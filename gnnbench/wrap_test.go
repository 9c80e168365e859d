package main

import (
	"bytes"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
)

func TestTimedConformanceSim(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		return wrapTimed(sim.New(storagetest.Capacity, sim.InstantConfig()), newRecorder())
	})
}

func TestTimedConformanceFile(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		b, err := file.Create(filepath.Join(t.TempDir(), "dev.img"), storagetest.Capacity, file.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return wrapTimed(b, newRecorder())
	})
}

func TestTimedConformanceLinuring(t *testing.T) {
	if !linuring.Supported() {
		t.Skip("io_uring unavailable")
	}
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		b, err := linuring.Create(filepath.Join(t.TempDir(), "dev.img"), storagetest.Capacity, linuring.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return wrapTimed(b, newRecorder())
	})
}

// Backends with every combination of the optional interfaces.
type batchOnly struct{ storage.Backend }

func (b batchOnly) SubmitBatch(reqs []*storage.Request) { storage.SubmitAll(b.Backend, reqs) }

type regOnly struct{ storage.Backend }

func (regOnly) RegisterBuffers(...[]byte) error { return nil }

type batchReg struct{ storage.Backend }

func (b batchReg) SubmitBatch(reqs []*storage.Request) { storage.SubmitAll(b.Backend, reqs) }
func (batchReg) RegisterBuffers(...[]byte) error       { return nil }

func TestWrapKeepsOptionalInterfaces(t *testing.T) {
	base := sim.New(1<<16, sim.InstantConfig())
	defer base.Close()
	for _, tc := range []struct {
		name            string
		inner           storage.Backend
		batch, register bool
	}{
		{"plain", base, false, false},
		{"batch", batchOnly{base}, true, false},
		{"register", regOnly{base}, false, true},
		{"both", batchReg{base}, true, true},
	} {
		w := wrapTimed(tc.inner, newRecorder())
		if _, ok := w.(storage.BatchSubmitter); ok != tc.batch {
			t.Errorf("%s: BatchSubmitter %v, want %v", tc.name, ok, tc.batch)
		}
		if _, ok := w.(storage.BufferRegistrar); ok != tc.register {
			t.Errorf("%s: BufferRegistrar %v, want %v", tc.name, ok, tc.register)
		}
		if timed(w) == nil || unwrap(w) != tc.inner {
			t.Errorf("%s: wrapper does not unwrap to its inner backend", tc.name)
		}
	}
}

func TestWrapKeepsLinuringInterfaces(t *testing.T) {
	if !linuring.Supported() {
		t.Skip("io_uring unavailable")
	}
	b, err := linuring.Create(filepath.Join(t.TempDir(), "dev.img"), 1<<16, linuring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := wrapTimed(b, newRecorder())
	defer w.Close()
	if _, ok := w.(storage.BatchSubmitter); !ok {
		t.Error("wrapped linuring lost SubmitBatch")
	}
	if _, ok := w.(storage.BufferRegistrar); !ok {
		t.Error("wrapped linuring lost RegisterBuffers")
	}
}

func TestTimedRecordsReads(t *testing.T) {
	rec := newRecorder()
	w := wrapTimed(batchOnly{sim.New(1<<16, sim.InstantConfig())}, rec)
	defer w.Close()
	want := bytes.Repeat([]byte{7}, 512)
	if err := w.WriteRaw(want, 0); err != nil {
		t.Fatal(err)
	}
	epoch := rec.open(spanEpoch, -1)
	buf := make([]byte, 512)
	if _, err := w.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadDirect(buf, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var calls atomic.Int32
	done := func(*storage.Request) { calls.Add(1); wg.Done() }
	reqs := []*storage.Request{
		{Buf: make([]byte, 512), Done: done},
		{Buf: make([]byte, 512), Off: 512, Done: done},
	}
	wg.Add(len(reqs))
	storage.SubmitAll(w, reqs)
	wg.Wait()
	// A pooled request keeps its own callback for the next submission.
	wg.Add(1)
	w.Submit(reqs[0])
	wg.Wait()
	rec.close(epoch)

	if n := calls.Load(); n != 3 {
		t.Fatalf("Done ran %d times, want 3", n)
	}
	if !bytes.Equal(reqs[0].Buf, want) {
		t.Fatal("async read returned wrong bytes")
	}
	var syncReads, asyncReads int
	for _, s := range rec.snapshot() {
		switch s.kind {
		case spanSyncRead:
			syncReads++
		case spanAsyncRead:
			asyncReads++
			if s.parent != epoch || s.bytes != 512 {
				t.Errorf("async span parent %d bytes %d, want %d and 512", s.parent, s.bytes, epoch)
			}
		}
	}
	if syncReads != 2 || asyncReads != 3 {
		t.Fatalf("spans: %d sync, %d async; want 2 and 3", syncReads, asyncReads)
	}
	tb := timed(w)
	if got := tb.submits.Load(); got != 2 {
		t.Errorf("submission calls %d, want 2 (one batch, one Submit)", got)
	}
	if got := tb.submitted.Load(); got != 3 {
		t.Errorf("submitted requests %d, want 3", got)
	}
}
