package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark emits %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit || got[i].better != want[i].Better {
				t.Errorf("%s %d: benchmark %+v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, bf.PerLayer)
}

func TestCollectReportsMissingMetrics(t *testing.T) {
	values := map[string]float64{"epoch_s": 1, "train_s": 2, "setup_s": 0.1}
	got, err := collect(endToEnd, values)
	if err == nil {
		t.Fatal("missing peak_rss_mb not reported")
	}
	if got["epoch_s"].Unit != "s" || got["epoch_s"].Value != 1 {
		t.Fatalf("epoch_s collected as %+v", got["epoch_s"])
	}
}

func TestEndToEndValues(t *testing.T) {
	w := workload{minEpochs: 2}
	run := childResult{PeakRSSKB: 1000, Epochs: []epochRecord{{Wall: 3}, {Wall: 1}, {Wall: 2}, {Wall: 9}}}
	v := endToEndValues(w, run, []float64{0.3, 0.1, 0.2})
	if v["epoch_s"] != 2 || v["train_s"] != 4 || v["setup_s"] != 0.2 || v["peak_rss_mb"] != 1.024 {
		t.Fatalf("end-to-end values %v", v)
	}
}
