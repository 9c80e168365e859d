package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, kind: spanEpoch},
		// Children cover [10,40) and [30,60): 50 of the epoch's 100.
		{start: 10, end: 40, parent: 0, kind: spanSample},
		{start: 30, end: 60, parent: 0, kind: spanAsyncRead},
		// A child running past its parent counts only inside it.
		{start: 90, end: 120, parent: 0, kind: spanAsyncRead},
	}
	rows := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	if got := rows["epoch"].Self; got != 40e-9 {
		t.Errorf("epoch self %v, want 40ns", got)
	}
	if r := rows["storage.async_read"]; r.Count != 2 || r.Total != 60e-9 || r.Self != 60e-9 {
		t.Errorf("async reads %+v, want 2 spans of 60ns total, all self", r)
	}
}

func TestWriteTrace(t *testing.T) {
	rec := newRecorder()
	e := rec.open(spanEpoch, -1)
	rec.read(spanSyncRead, rec.base, rec.base, 4096)
	rec.close(e)
	path := filepath.Join(t.TempDir(), "t.json.gz")
	if err := writeTrace(path, rec.snapshot(), envStamp{Backend: "file"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				ID, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData envStamp `json:"otherData"`
	}
	if err := json.NewDecoder(zr).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "storage.sync_read" || doc.TraceEvents[1].Args.Parent != 0 {
		t.Fatalf("trace events %+v", doc.TraceEvents)
	}
	if doc.OtherData.Backend != "file" {
		t.Fatalf("environment stamp missing: %+v", doc.OtherData)
	}
}
