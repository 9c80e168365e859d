package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"gnndrive/internal/storage/linuring"
)

// envStamp records where a result was measured. Results from different
// stamps are not comparable: the filesystem under the data directory
// alone can flip which backend is faster.
type envStamp struct {
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GOGC         string `json:"gogc"`
	Kernel       string `json:"kernel"`
	// Backend is the storage backend the run actually used, DataFile and
	// DataFS where its device image lived, ODirect whether it obtained an
	// O_DIRECT descriptor, and RealRing whether reads went through a real
	// io_uring.
	Backend  string `json:"backend"`
	DataFile string `json:"data_file"`
	DataFS   string `json:"data_fs"`
	ODirect  bool   `json:"o_direct"`
	RealRing bool   `json:"linuring_real_ring"`
	// LinuringSupported is whether this host can build an io_uring
	// backend at all, whichever backend the workload uses.
	LinuringSupported bool `json:"linuring_supported"`
}

// stampEnv fills the host and source fields of the stamp; setRun adds
// the run's.
func stampEnv(root string) envStamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return envStamp{
		Commit:       gitHead(root),
		SourceDigest: sourceDigest(root),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         gogc,
		Kernel:       kernelRelease(),
		// The probe opens and closes a one-entry ring, once per process.
		LinuringSupported: linuring.Supported(),
	}
}

func (e *envStamp) setRun(r childResult) {
	e.Backend, e.DataFile, e.DataFS = r.Backend, r.DataFile, r.DataFS
	e.ODirect, e.RealRing = r.ODirect, r.RealRing
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitHead resolves HEAD of a git work tree at root without running git;
// a checkout without .git reports "none".
func gitHead(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod files under
// root, so results from a checkout that is not a git repository still
// name the code they measured.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
