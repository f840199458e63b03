package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// histo is a single-writer log-linear latency histogram: 32 linear
// sub-buckets per power of two (about 3% wide) up to 2^40 ns, with
// quantiles interpolated inside a bucket so that a reported percentile
// keeps all its digits instead of snapping to a bucket edge.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	histoSize  = (40 - subBits + 1) * subBuckets
)

type histo struct {
	counts [histoSize]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return min((e+1)*subBuckets+int(v>>e&(subBuckets-1)), histoSize-1)
}

// bucketRange returns the first value of bucket i and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	e := i/subBuckets - 1
	return float64(uint64(subBuckets+i%subBuckets) << e), float64(uint64(1) << e)
}

func (h *histo) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *histo) merge(o *histo) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *histo) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histoSize - 1)
	return lo + w
}

// sysSample is a snapshot of process-wide counters.
type sysSample struct {
	at                 time.Time
	cpu                time.Duration // user + system, getrusage
	allocs, bytes      uint64
	gcCycles           uint64
	gcCPU, allCPU      float64
	gcPauses, schedLat *metrics.Float64Histogram
	writeBytes         uint64 // /proc/self/io: bytes sent to the storage layer
}

var metricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readSys() sysSample {
	samples := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return sysSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     samples[0].Value.Uint64() + samples[1].Value.Uint64(),
		bytes:      samples[2].Value.Uint64(),
		gcCycles:   samples[3].Value.Uint64(),
		gcCPU:      samples[4].Value.Float64(),
		allCPU:     samples[5].Value.Float64(),
		gcPauses:   samples[6].Value.Float64Histogram(),
		schedLat:   samples[7].Value.Float64Histogram(),
		writeBytes: readWriteBytes(),
	}
}

// sysDelta is what the process did between pairs of samples; the deltas of
// several measured slots add up.
type sysDelta struct {
	elapsed, cpu         time.Duration
	allocs, bytes        uint64
	gcCycles, writeBytes uint64
	gcCPU, allCPU        float64
	gcPauses, schedLat   histDelta
}

func (d *sysDelta) add(a, b sysSample) {
	d.elapsed += b.at.Sub(a.at)
	d.cpu += b.cpu - a.cpu
	d.allocs += b.allocs - a.allocs
	d.bytes += b.bytes - a.bytes
	d.gcCycles += b.gcCycles - a.gcCycles
	d.writeBytes += b.writeBytes - a.writeBytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.allCPU += b.allCPU - a.allCPU
	d.gcPauses.add(a.gcPauses, b.gcPauses)
	d.schedLat.add(a.schedLat, b.schedLat)
}

// histDelta holds the samples a runtime/metrics histogram gained.
type histDelta struct {
	counts  []uint64
	buckets []float64
}

func (h *histDelta) add(a, b *metrics.Float64Histogram) {
	if h.counts == nil {
		h.counts, h.buckets = make([]uint64, len(b.Counts)), b.Buckets
	}
	for i := range b.Counts {
		h.counts[i] += b.Counts[i] - a.Counts[i]
	}
}

// quantile returns the q-quantile, interpolated inside its bucket.
func (h *histDelta) quantile(q float64) float64 {
	var total float64
	for _, c := range h.counts {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var cum float64
	for i, n := range h.counts {
		c := float64(n)
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := h.buckets[i], h.buckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return h.buckets[len(h.buckets)-2]
}

// readWriteBytes reads write_bytes from /proc/self/io: what the process
// sent to the storage layer.
func readWriteBytes() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fingerprint names the machine and the code a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitRev     string `json:"git_rev"`
	SourceHash string `json:"source_sha256"`
	WALFS      string `json:"wal_fs"`
}

func machineFingerprint(root, walDir string) fingerprint {
	rev := os.Getenv("PERFBENCH_GIT_REV")
	if rev == "" {
		rev = "none"
	}
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GitRev:     rev,
		SourceHash: sourceHash(root),
		WALFS:      fsType(walDir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root, skipping
// hidden directories (build output lives there). A checkout need not be a
// git repository, so this identifies the code when the revision cannot.
func sourceHash(root string) string {
	h := sha256.New()
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
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
