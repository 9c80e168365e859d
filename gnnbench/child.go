package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/graph"
	"gnndrive/internal/layout"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/tensor"
	"gnndrive/internal/trace"
)

// valAccFloor is the lowest validation accuracy realtrain-sage may end
// an epochs-long run with. The floors sit about 0.1 under the lowest
// accuracy measured over many seeds (0.40 after the traced runs' four
// epochs, 0.65 after the untraced runs' ten); a model that has not
// learned stays near 1/172.
func valAccFloor(epochs int) float64 {
	if epochs >= 10 {
		return 0.55
	}
	return 0.3
}

// epochRecord is what one epoch did, measured from outside the engine.
type epochRecord struct {
	Wall    float64 `json:"wall_s"`
	Sample  float64 `json:"sample_busy_s"`
	Extract float64 `json:"extract_busy_s"`
	Train   float64 `json:"train_busy_s"`
	Release float64 `json:"release_busy_s"`
	Batches int     `json:"batches"`
	Loss    float64 `json:"loss"`

	BytesRead   int64 `json:"bytes_read"`
	BytesNeeded int64 `json:"bytes_needed"`

	PageHits   int64                   `json:"page_hits"`
	PageMisses int64                   `json:"page_misses"`
	FB         core.FeatureBufferStats `json:"featbuf"`
	DevBytes   int64                   `json:"device_bytes"`

	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCs        uint32 `json:"gcs"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

// childResult is the JSON line a run process prints when it exits.
type childResult struct {
	SetupS    float64       `json:"setup_s"`
	Epochs    []epochRecord `json:"epochs"`
	ValAcc    float64       `json:"val_acc"`
	PeakRSSKB int64         `json:"peak_rss_kb"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Problems  []string      `json:"problems,omitempty"`
	Backend   string        `json:"backend"`
	DataFile  string        `json:"data_file"`
	DataFS    string        `json:"data_fs"`
	ODirect   bool          `json:"o_direct"`
	RealRing  bool          `json:"real_ring"`
	// Layers holds per-layer metrics the run could measure.
	Layers map[string]float64 `json:"layers"`
	// SelfTimes is a traced run's time per span name.
	SelfTimes []layerTime `json:"self_times,omitempty"`
}

func (c *childResult) fail(format string, args ...any) {
	c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
}

// counters is a snapshot of the cumulative counters an epoch is diffed
// against.
type counters struct {
	pageHits, pageMisses int64
	fb                   core.FeatureBufferStats
	devBytes             int64
	degraded             int64
	mem                  runtime.MemStats
}

func snap(r *rig) counters {
	var c counters
	st := r.cache.Stats()
	c.pageHits, c.pageMisses = st.Hits, st.Misses
	c.fb = r.eng.FeatureBuffer().Stats()
	c.devBytes = r.dev.BytesMoved()
	c.degraded = r.ds.Dev.Stats().DirectDegraded
	runtime.ReadMemStats(&c.mem)
	return c
}

func subFB(a, b core.FeatureBufferStats) core.FeatureBufferStats {
	return core.FeatureBufferStats{
		ReuseHits:    a.ReuseHits - b.ReuseHits,
		Loads:        a.Loads - b.Loads,
		SharedWaits:  a.SharedWaits - b.SharedWaits,
		SlotRecycles: a.SlotRecycles - b.SlotRecycles,
		StandbyWaits: a.StandbyWaits - b.StandbyWaits,
	}
}

// traceProbes are the hooks installed in a traced run: the timing
// backend's span recorder, the engine tracer and the counting gate.
type traceProbes struct {
	rec        *recorder
	tracer     *trace.Tracer
	tracerBase time.Time
	gate       *countingGate
}

// runWorkload sets the workload up in this process and trains it: the
// body of one run process. A positive epochs trains exactly that many
// epochs instead of the workload's timed policy. traceFile is written
// only by a traced run.
func runWorkload(ctx context.Context, w workload, seed uint64, seconds float64, epochs int, traced bool, dir, container, traceFile string) childResult {
	if epochs > 0 {
		w.minEpochs, w.maxEpochs = epochs, epochs
	}
	res := childResult{Backend: w.backend, Layers: map[string]float64{}}
	var tp *traceProbes
	if traced {
		tp = &traceProbes{rec: newRecorder(), tracerBase: time.Now(), tracer: trace.New(), gate: &countingGate{}}
	}
	opts := w.options(seed, filepath.Join(dir, "ckpt"))
	start := time.Now()
	r, err := w.setup(container, dir, opts, tp)
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.fail("setup: %v", err)
		return res
	}
	defer r.close()
	res.SetupS = time.Since(start).Seconds()

	res.DataFS = fsType(r.data.path)
	res.DataFile = r.data.path
	if r.data.mem != nil {
		res.DataFile = "memfd"
	}
	inner := unwrap(r.ds.Dev)
	if d, ok := inner.(interface{ DirectActive() bool }); ok {
		res.ODirect = d.DirectActive()
	}
	_, res.RealRing = inner.(linuring.RingStatser)
	if w.backend == "linuring" && !res.RealRing {
		res.Attempted, res.Failed = 1, 1
		res.fail("linuring backend is not a real io_uring (%T)", inner)
		return res
	}
	res.Layers["hostmem.pinned_mb"] = float64(r.budget.Pinned()) / 1e6

	wantBatches := (len(r.ds.TrainIdx) + opts.BatchSize - 1) / opts.BatchSize
	var epochSpans []int32
	var steadyStart probeSnap
	var commitsSeen int
	var ckptBytes int64
	var ckptCommits int
	begin := time.Now()
	for e := 0; e < w.maxEpochs; e++ {
		if e >= w.minEpochs && time.Since(begin).Seconds() >= seconds {
			break
		}
		if tp != nil && e == 1 {
			steadyStart = takeProbeSnap(tp, r.ds.Dev)
		}
		before := snap(r)
		var span int32
		if tp != nil {
			span = tp.rec.open(spanEpoch, -1)
			epochSpans = append(epochSpans, span)
		}
		t0 := time.Now()
		er, err := r.eng.RunEpochCtx(ctx, e)
		wall := time.Since(t0)
		if tp != nil {
			tp.rec.close(span)
		}
		after := snap(r)
		rec := epochRecord{
			Wall: wall.Seconds(), Sample: er.Sample.Seconds(), Extract: er.Extract.Seconds(),
			Train: er.Train.Seconds(), Release: er.Release.Seconds(),
			Batches: er.Batches, Loss: er.Loss,
			BytesRead: er.BytesRead, BytesNeeded: er.BytesNeeded,
			PageHits: after.pageHits - before.pageHits, PageMisses: after.pageMisses - before.pageMisses,
			FB:       subFB(after.fb, before.fb),
			DevBytes: after.devBytes - before.devBytes,
			Mallocs:  after.mem.Mallocs - before.mem.Mallocs, AllocBytes: after.mem.TotalAlloc - before.mem.TotalAlloc,
			GCs: after.mem.NumGC - before.mem.NumGC, GCPauseNs: after.mem.PauseTotalNs - before.mem.PauseTotalNs,
		}
		res.Attempted++
		problems := checkEpoch(w, e, er, err, wantBatches, after.degraded-before.degraded)
		if tp != nil && w.checkpoint {
			if n, b := newCommits(tp.tracer, &commitsSeen); e >= 1 {
				ckptCommits += n
				ckptBytes += b
			}
		}
		if len(problems) > 0 {
			res.Failed++
			res.Problems = append(res.Problems, problems...)
		}
		res.Epochs = append(res.Epochs, rec)
		if err != nil {
			break
		}
	}
	if res.Failed == 0 {
		checkRun(w, r, &res)
	}
	res.Layers["pagecache.resident_mb"] = float64(r.cache.ResidentBytes()) / 1e6
	counterLayers(&res)
	if tp != nil && len(res.Epochs) > 1 {
		steady := int64(len(res.Epochs) - 1)
		res.Layers["checkpoint.commits"] = float64(ckptCommits) / float64(steady)
		res.Layers["checkpoint.mb_per_epoch"] = float64(ckptBytes) / 1e6 / float64(steady)
		tp.rec.addStages(tp.tracer.Events(), tp.tracerBase, epochSpans)
		traceLayers(&res, tp, r, epochSpans, steadyStart)
		if err := replayPlanner(r, tp.rec, res.Layers); err != nil {
			res.fail("planner replay: %v", err)
		}
		spans := tp.rec.snapshot()
		res.SelfTimes = selfTimes(spans)
		if traceFile != "" {
			root, _ := os.Getwd()
			env := stampEnv(root)
			env.setRun(res)
			if err := writeTrace(traceFile, spans, env); err != nil {
				res.fail("%v", err)
			}
		}
	}
	res.PeakRSSKB = peakRSSKB()
	return res
}

// checkEpoch returns the output checks one epoch failed.
func checkEpoch(w workload, e int, er core.EpochResult, err error, wantBatches int, degraded int64) []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("epoch %d: ", e)+fmt.Sprintf(format, args...))
	}
	if err != nil {
		bad("%v", err)
		return out
	}
	if er.Batches != wantBatches {
		bad("%d batches, want %d", er.Batches, wantBatches)
	}
	if er.BytesNeeded <= 0 || er.BytesRead < er.BytesNeeded {
		bad("bytes read %d, needed %d: want read >= needed > 0", er.BytesRead, er.BytesNeeded)
	}
	if er.Escalations != 0 || er.Stalls != 0 {
		bad("%d escalations, %d stalls", er.Escalations, er.Stalls)
	}
	if degraded != 0 {
		bad("%d direct reads served buffered", degraded)
	}
	if er.CheckpointErr != nil {
		bad("checkpoint: %v", er.CheckpointErr)
	}
	if w.realTrain && (math.IsNaN(er.Loss) || math.IsInf(er.Loss, 0)) {
		bad("loss %v is not finite", er.Loss)
	}
	return out
}

// checkRun applies the whole-run quality checks of a real-training
// workload; a failure counts against the last epoch.
func checkRun(w workload, r *rig, res *childResult) {
	if !w.realTrain {
		return
	}
	n := len(res.Epochs)
	first, last := res.Epochs[0].Loss, res.Epochs[n-1].Loss
	acc, err := core.EvaluateModel(r.ds, r.eng.Model(), r.opts.Fanouts, r.ds.ValIdx, r.opts.Seed)
	res.ValAcc = acc
	var problems []string
	if err != nil {
		problems = append(problems, fmt.Sprintf("validation: %v", err))
	}
	if !(last < first) {
		problems = append(problems, fmt.Sprintf("loss did not fall: epoch 0 %.4f, epoch %d %.4f", first, n-1, last))
	}
	if floor := valAccFloor(n); acc < floor {
		problems = append(problems, fmt.Sprintf("val_acc %.4f below floor %.2f after %d epochs", acc, floor, n))
	}
	if len(problems) > 0 {
		res.Failed++
		res.Problems = append(res.Problems, problems...)
	}
}

// newCommits counts the checkpoint commits the tracer annotated since
// the last call and sums the committed files' sizes.
func newCommits(tr *trace.Tracer, seen *int) (n int, bytes int64) {
	var commits []string
	for _, ev := range tr.Events() {
		if path, ok := strings.CutPrefix(ev.Note, "checkpoint committed: "); ok {
			commits = append(commits, path)
		}
	}
	for _, path := range commits[*seen:] {
		if fi, err := os.Stat(path); err == nil {
			bytes += fi.Size()
		}
		n++
	}
	*seen = len(commits)
	return n, bytes
}

// peakRSSKB reads this process's resident high-water mark (VmHWM).
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// counterLayers derives the per-layer metrics the engine's own counters
// give, over the steady epochs (every epoch after the first).
func counterLayers(res *childResult) {
	l := res.Layers
	l["val_acc"] = res.ValAcc
	l["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	if n := len(res.Epochs); n > 0 {
		l["loss"] = res.Epochs[n-1].Loss
	}
	if len(res.Epochs) < 2 {
		return
	}
	steady := res.Epochs[1:]
	var sum epochRecord
	for _, e := range steady {
		sum.Sample += e.Sample
		sum.Extract += e.Extract
		sum.Train += e.Train
		sum.Release += e.Release
		sum.Batches += e.Batches
		sum.BytesRead += e.BytesRead
		sum.BytesNeeded += e.BytesNeeded
		sum.PageHits += e.PageHits
		sum.PageMisses += e.PageMisses
		sum.FB.ReuseHits += e.FB.ReuseHits
		sum.FB.Loads += e.FB.Loads
		sum.FB.SharedWaits += e.FB.SharedWaits
		sum.FB.StandbyWaits += e.FB.StandbyWaits
		sum.DevBytes += e.DevBytes
		sum.Mallocs += e.Mallocs
		sum.AllocBytes += e.AllocBytes
		sum.GCs += e.GCs
		sum.GCPauseNs += e.GCPauseNs
	}
	n := float64(len(steady))
	b := float64(sum.Batches)
	l["sample.busy_s"] = sum.Sample / n
	l["core.extract.busy_s"] = sum.Extract / n
	l["core.train.busy_s"] = sum.Train / n
	l["core.release.busy_s"] = sum.Release / n
	l["pagecache.hits"] = float64(sum.PageHits) / n
	l["pagecache.misses"] = float64(sum.PageMisses) / n
	l["pagecache.misses_per_batch"] = ratio(float64(sum.PageMisses), b)
	l["pagecache.hit_ratio"] = ratio(float64(sum.PageHits), float64(sum.PageHits+sum.PageMisses))
	l["storage.needed_mb_per_batch"] = ratio(float64(sum.BytesNeeded)/1e6, b)
	l["storage.read_amp"] = ratio(float64(sum.BytesRead), float64(sum.BytesNeeded))
	l["core.featbuf.reuse_hits"] = float64(sum.FB.ReuseHits) / n
	l["core.featbuf.loads"] = float64(sum.FB.Loads) / n
	l["core.featbuf.hit_ratio"] = ratio(float64(sum.FB.ReuseHits), float64(sum.FB.ReuseHits+sum.FB.Loads))
	l["core.featbuf.shared_waits"] = float64(sum.FB.SharedWaits) / n
	l["core.featbuf.standby_waits"] = float64(sum.FB.StandbyWaits) / n
	l["device.mb_per_batch"] = ratio(float64(sum.DevBytes)/1e6, b)
	l["runtime.allocs_per_batch"] = ratio(float64(sum.Mallocs), b)
	l["runtime.alloc_mb_per_batch"] = ratio(float64(sum.AllocBytes)/1e6, b)
	l["runtime.gc_cycles_per_epoch"] = float64(sum.GCs) / n
	l["runtime.gc_pause_ms_per_epoch"] = float64(sum.GCPauseNs) / 1e6 / n
}

// probeSnap is the traced run's probe state at the start of the steady
// epochs.
type probeSnap struct {
	hist               []int64
	submits, submitted int64
}

func takeProbeSnap(tp *traceProbes, dev storage.Backend) probeSnap {
	s := probeSnap{hist: tp.gate.histogram()}
	if t := timed(dev); t != nil {
		s.submits, s.submitted = t.submits.Load(), t.submitted.Load()
	}
	return s
}

// traceLayers derives the per-layer metrics only the traced run's
// probes give: stage latency distributions from the engine tracer, read
// latencies and counts from the timing backend, and read occupancy from
// the counting gate.
func traceLayers(res *childResult, tp *traceProbes, r *rig, epochSpans []int32, steadyStart probeSnap) {
	l := res.Layers
	steadyIDs := map[int32]bool{}
	for _, id := range epochSpans[1:] {
		steadyIDs[id] = true
	}
	var batches float64
	for _, e := range res.Epochs[1:] {
		batches += float64(e.Batches)
	}
	spans := tp.rec.snapshot()
	for _, st := range []struct {
		kind   spanKind
		prefix string
	}{{spanSample, "sample"}, {spanExtract, "core.extract"}, {spanTrain, "core.train"}} {
		d := durationsMs(spans, st.kind, steadyIDs)
		l[st.prefix+".batch_p50_ms"] = percentile(d, 0.50)
		l[st.prefix+".batch_p90_ms"] = percentile(d, 0.90)
	}

	syncUs := durationsMs(spans, spanSyncRead, steadyIDs)
	asyncUs := durationsMs(spans, spanAsyncRead, steadyIDs)
	for i := range syncUs {
		syncUs[i] *= 1e3
	}
	for i := range asyncUs {
		asyncUs[i] *= 1e3
	}
	var asyncBytes float64
	for _, s := range spans {
		if s.kind == spanAsyncRead && steadyIDs[s.parent] {
			asyncBytes += float64(s.bytes)
		}
	}
	l["storage.sync_reads_per_batch"] = ratio(float64(len(syncUs)), batches)
	l["storage.sync_read_p50_us"] = percentile(syncUs, 0.50)
	l["storage.sync_read_p99_us"] = percentile(syncUs, 0.99)
	l["storage.async_reads_per_batch"] = ratio(float64(len(asyncUs)), batches)
	l["storage.async_read_p50_us"] = percentile(asyncUs, 0.50)
	l["storage.async_read_p99_us"] = percentile(asyncUs, 0.99)
	l["storage.mb_per_batch"] = ratio(asyncBytes/1e6, batches)
	end := takeProbeSnap(tp, r.ds.Dev)
	l["storage.submit_batch_mean"] = ratio(float64(end.submitted-steadyStart.submitted),
		float64(end.submits-steadyStart.submits))

	for i := range end.hist {
		end.hist[i] -= steadyStart.hist[i]
	}
	p50, maxV := histQuantile(end.hist, 0.50)
	l["core.iogate.inflight_p50"] = p50
	l["core.iogate.inflight_max"] = maxV
	l["core.iogate.staging_slots"] = float64(r.opts.Extractors * r.opts.RingDepth)
}

// replayPlanner times the extract read planner over one epoch's batches
// sampled with the run's seeds: BuildReadPlanInto for the strided layout,
// AddrPlanner.PlanInto for the packed one. Every node of a batch is
// planned, as if the feature buffer were cold.
func replayPlanner(r *rig, rec *recorder, l map[string]float64) error {
	ds, o := r.ds, r.opts
	const epoch = 1
	plan := sample.NewPlan(ds.TrainIdx, o.BatchSize, tensor.NewRNG(sample.PlanSeed(o.Seed, epoch)))
	smp := sample.New(graph.NewRawReader(ds), o.Fanouts, tensor.NewRNG(o.Seed))
	batches := make([][]int64, len(plan.Batches))
	for i, targets := range plan.Batches {
		smp.Reseed(sample.BatchSeed(o.Seed, epoch, i))
		b, _, err := smp.SampleBatch(i, targets)
		if err != nil {
			return err
		}
		batches[i] = b.Nodes
	}
	addr := ds.Addresser()
	_, strided := addr.(layout.Strided)
	featBytes, sector := int(ds.FeatBytes()), ds.Dev.SectorSize()
	var (
		ap        core.AddrPlanner
		ops       []core.ReadOp
		nodes     []int64
		positions []int32
	)
	prep := func(batch []int64) {
		nodes = append(nodes[:0], batch...)
		positions = positions[:0]
		for i := range batch {
			positions = append(positions, int32(i))
		}
	}
	planNow := func() error {
		if strided {
			ops = core.BuildReadPlanInto(ops[:0], ds.Layout.FeaturesOff, featBytes, sector, o.MaxJointRead, nodes, positions)
			return nil
		}
		var err error
		ops, err = ap.PlanInto(ops[:0], addr, sector, o.MaxJointRead, nodes, positions)
		return err
	}
	// A warm-up pass grows the scratch to its steady size, as the
	// engine's extractors have by their first steady epoch.
	for _, b := range batches {
		prep(b)
		if err := planNow(); err != nil {
			return err
		}
	}
	const passes = 3
	n := passes * len(batches)
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	var planned int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		prep(batches[k%len(batches)])
		starts[k] = time.Now()
		err := planNow()
		ends[k] = time.Now()
		if err != nil {
			return err
		}
		planned += len(ops)
	}
	runtime.ReadMemStats(&after)
	root := rec.open(spanReplay, -1)
	perPass := make([]float64, passes)
	for k := range starts {
		rec.add(spanPlan, root, starts[k], ends[k], 0)
		perPass[k/len(batches)] += float64(ends[k].Sub(starts[k]).Nanoseconds())
	}
	rec.close(root)
	for p := range perPass {
		perPass[p] /= float64(len(batches))
	}
	l["core.planner.ns_per_batch"] = median(perPass)
	l["core.planner.ops_per_batch"] = float64(planned) / float64(n)
	l["core.planner.allocs_per_batch"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	return nil
}
