package main

import (
	"errors"
	"io"
	"math"
	"testing"

	"gnndrive/internal/core"
	"gnndrive/internal/metrics"
)

func TestCheckEpoch(t *testing.T) {
	good := core.EpochResult{Breakdown: metrics.Breakdown{Batches: 3, BytesRead: 2048, BytesNeeded: 1024}, Loss: 1}
	w := workload{realTrain: true}
	if p := checkEpoch(w, 0, good, nil, 3, 0); len(p) != 0 {
		t.Fatalf("healthy epoch failed: %v", p)
	}
	for _, tc := range []struct {
		name     string
		mutate   func(*core.EpochResult)
		err      error
		degraded int64
	}{
		{"error", nil, errors.New("boom"), 0},
		{"batches", func(r *core.EpochResult) { r.Batches = 2 }, nil, 0},
		{"nothing needed", func(r *core.EpochResult) { r.BytesNeeded, r.BytesRead = 0, 0 }, nil, 0},
		{"short read", func(r *core.EpochResult) { r.BytesRead = 512 }, nil, 0},
		{"escalation", func(r *core.EpochResult) { r.Escalations = 1 }, nil, 0},
		{"stall", func(r *core.EpochResult) { r.Stalls = 1 }, nil, 0},
		{"degraded", nil, nil, 1},
		{"checkpoint", func(r *core.EpochResult) { r.CheckpointErr = errors.New("disk full") }, nil, 0},
		{"loss", func(r *core.EpochResult) { r.Loss = math.NaN() }, nil, 0},
	} {
		r := good
		if tc.mutate != nil {
			tc.mutate(&r)
		}
		if p := checkEpoch(w, 0, r, tc.err, 3, tc.degraded); len(p) == 0 {
			t.Errorf("%s: check passed", tc.name)
		}
	}
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{"--workload", "extract-file", "--seed", "3", "--seconds", "5", "--trace", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "extract-file", "--trace", "2"},
		{"--workload", "extract-file", "--seconds", "0"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
