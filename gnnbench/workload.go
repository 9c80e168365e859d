package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
)

// computeScale stretches the device's modeled compute. At the default
// 2.0 the modeled sleep alone sets extract-file's epoch time and hides
// the program.
const computeScale = 0.1

// scaledGB is one paper-gigabyte of host memory at the datasets' 1:1000
// scale, as in internal/trainsim.
const scaledGB = 1 << 20

// workload is one GNNDrive-GPU training run on papers100m-s with SAGE
// and the engine's default stage counts.
type workload struct {
	name string

	backend string // "file" or "linuring"
	layout  string // "strided" or "packed"
	memGB   int    // host memory in scaled GB

	realTrain  bool
	hidden     int
	trainLimit int
	checkpoint bool

	// An untraced run trains at least minEpochs and at most maxEpochs
	// epochs, stopping at the first epoch boundary after its time is up.
	// train_s covers the first minEpochs epochs. Both runs of --trace 1
	// train exactly traceEpochs epochs: the traced run keeps every span
	// in memory.
	minEpochs, maxEpochs, traceEpochs int
}

// workloads are the benchmark's fixed workloads; later changes cite them
// by name. README.md says why each exists.
var workloads = []workload{
	{
		name:    "extract-file",
		backend: "file", layout: "strided", memGB: 32,
		minEpochs: 36, maxEpochs: 200, traceEpochs: 4,
	},
	{
		name:    "extract-uring-packed",
		backend: "linuring", layout: "packed", memGB: 32,
		minEpochs: 14, maxEpochs: 200, traceEpochs: 4,
	},
	{
		name:    "sample-uring-lowmem",
		backend: "linuring", layout: "strided", memGB: 8,
		minEpochs: 7, maxEpochs: 200, traceEpochs: 3,
	},
	{
		name:    "realtrain-sage",
		backend: "file", layout: "strided", memGB: 32,
		realTrain: true, hidden: 64, trainLimit: 1000, checkpoint: true,
		minEpochs: 10, maxEpochs: 10, traceEpochs: 4,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// datasetSpec is papers100m-s generated from the workload seed; seed 0
// reproduces the stock dataset.
func datasetSpec(seed uint64) gen.Spec {
	s := gen.Papers()
	s.Seed += seed
	return s
}

// engineSeed feeds core.Options.Seed, which must be non-zero.
func engineSeed(seed uint64) uint64 { return seed + 1 }

// makeContainer generates the seed's dataset and writes it as a .gnnd
// container, the only input the program sees.
func makeContainer(seed uint64, path string) error {
	spec := datasetSpec(seed)
	dev := sim.New(spec.SizeBytes()+4096, sim.InstantConfig())
	defer dev.Close()
	ds, err := gen.Build(spec, dev, 0)
	if err != nil {
		return fmt.Errorf("generate dataset: %w", err)
	}
	if err := graph.Save(ds, path); err != nil {
		return fmt.Errorf("save dataset: %w", err)
	}
	return nil
}

// options returns the engine options of the workload's untraced run.
func (w workload) options(seed uint64, ckptDir string) core.Options {
	o := core.DefaultOptions(nn.GraphSAGE)
	o.Seed = engineSeed(seed)
	o.RealTrain = w.realTrain
	if w.hidden != 0 {
		o.Hidden = w.hidden
	}
	if w.checkpoint {
		o.CheckpointDir = ckptDir
	}
	return o
}

// rig is one set-up training run.
type rig struct {
	ds     *graph.Dataset
	budget *hostmem.Budget
	cache  *pagecache.Cache
	dev    *device.Device
	eng    *core.Engine
	opts   core.Options
	data   dataFile
}

func (r *rig) close() {
	if r.eng != nil {
		r.eng.Close()
	}
	if r.dev != nil {
		r.dev.Close()
	}
	if r.ds != nil {
		r.ds.Dev.Close()
	}
	r.data.remove()
}

// dataFile holds a run's device image: a memfd, so that reads measure
// the program on tmpfs rather than a shared disk and nothing is left on
// any filesystem, or, where memfd is refused, a file in the run
// directory. The environment stamp records which.
type dataFile struct {
	path string
	mem  *os.File
}

func newDataFile(dir, name string) dataFile {
	f, path, err := memFile(name)
	if err == nil {
		return dataFile{path: path, mem: f}
	}
	fmt.Fprintf(os.Stderr, "gnnbench: %v; the data file goes under %s\n", err, dir)
	return dataFile{path: filepath.Join(dir, name)}
}

func (d dataFile) remove() {
	if d.mem != nil {
		d.mem.Close()
		return
	}
	os.Remove(d.path)
}

// setup loads the container onto the workload's backend, packs it for
// the packed layout, and builds the engine: everything up to the first
// epoch.
// A non-nil tp installs the traced run's probes.
func (w workload) setup(container, dir string, opts core.Options, tp *traceProbes) (*rig, error) {
	r := &rig{data: newDataFile(dir, "data.img"), opts: opts}
	dataFile := r.data.path
	factory := func(capacity int64) (storage.Backend, error) {
		var (
			b   storage.Backend
			err error
		)
		switch w.backend {
		case "file":
			b, err = file.Create(dataFile, capacity, file.Options{})
		case "linuring":
			// linuring.Create, not FallbackFactory: a refused ring must
			// fail the run, never report storage/file under this name.
			b, err = linuring.Create(dataFile, capacity, linuring.Options{})
		default:
			err = fmt.Errorf("unknown backend %q", w.backend)
		}
		if err != nil || tp == nil {
			return b, err
		}
		return wrapTimed(b, tp.rec), nil
	}
	ds, err := graph.Load(container, factory, 0)
	if err != nil {
		r.close()
		return nil, err
	}
	r.ds = ds
	if w.layout == "packed" {
		tr, err := gen.SampleTrace(ds, opts.BatchSize, opts.Fanouts, opts.Seed, opts.Shuffle)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("pack trace: %w", err)
		}
		pk, err := layout.PackInPlace(ds.Dev, ds.Layout.FeaturesOff, int(ds.FeatBytes()), ds.NumNodes, tr, layout.PackOptions{})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("pack: %w", err)
		}
		ds.Addr = pk
	}
	if w.trainLimit > 0 && w.trainLimit < len(ds.TrainIdx) {
		ds.TrainIdx = ds.TrainIdx[:w.trainLimit]
	}
	r.budget = hostmem.NewBudget(int64(w.memGB) * scaledGB)
	r.cache = pagecache.New(ds.Dev, r.budget)
	dcfg := device.RTX3090()
	dcfg.TimeScale = computeScale
	if w.realTrain {
		// Real math takes real time; no modeled compute on top.
		dcfg.Throughput = 0
	}
	r.dev = device.New(dcfg)
	if tp != nil {
		opts.Tracer = tp.tracer
		opts.IOGate = tp.gate
	}
	eng, err := core.New(ds, r.dev, r.budget, r.cache, nil, opts)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	r.eng = eng
	return r, nil
}
