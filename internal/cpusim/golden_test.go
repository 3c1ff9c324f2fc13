package cpusim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"github.com/xylem-sim/xylem/internal/workload"
)

// digestValue feeds every number reachable from v into h: float64s by
// their IEEE bits, integers as uint64, slices prefixed by their length.
// It walks the value with reflection so a field added to CoreStats or
// dram.Stats is covered without touching the digest.
func digestValue(h hash.Hash, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Uint64, reflect.Uint32, reflect.Uint8, reflect.Uint:
		put(v.Uint())
	case reflect.Int, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	default:
		panic("digestValue: unhandled kind " + v.Kind().String())
	}
}

// resultDigest is the SHA-256 of everything a run computed: the
// makespan, every core's counters and the DRAM statistics. Cfg is left
// out because it only echoes the caller's configuration back.
func resultDigest(r Result) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(r.TimeNs))
	digestValue(h, reflect.ValueOf(r.Cores))
	digestValue(h, reflect.ValueOf(r.DRAM))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCase is one pinned simulation: threads of app placed on cores
// (thread i on cores[i]) at the given per-core clocks.
type goldenCase struct {
	name          string
	app           string
	cores         []int
	freqs         []float64
	instr, warmup int
	// recorded replays the first recorded instructions of each thread's
	// synthetic trace through a workload.RecordedTrace instead.
	recorded int
	want     string
}

func uniform(f float64) []float64 {
	out := make([]float64, DefaultConfig().Cores)
	for i := range out {
		out[i] = f
	}
	return out
}

var allCores = []int{0, 1, 2, 3, 4, 5, 6, 7}

// goldenCases cover the shapes the figures and the fleet replay run:
// Figure 7's eight threads with a half-budget warm-up, the fleet's
// one- and four-thread runs, a mixed clock vector (equal clocks on
// several cores exercise the earliest-core tie rule), a sparse
// placement and a recorded stream.
var goldenCases = []goldenCase{
	{name: "fig7-lu-nas-3.5", app: "lu-nas", cores: allCores, freqs: uniform(3.5), instr: 150000, warmup: 75000,
		want: "ecc166c2cc8c67d8dfcf93f6cc9787e074795c75b37b7d36a3999a15c0f30f55"},
	{name: "fig7-is-2.4", app: "is", cores: allCores, freqs: uniform(2.4), instr: 150000, warmup: 75000,
		want: "9ccbe33ae341f3aa3b49f2ae64fce7cb4d59eb4b919e2cf98f2089e3cd287a4c"},
	{name: "fleet-fft-1t-2.8", app: "fft", cores: allCores[:1], freqs: uniform(2.8), instr: 40000, warmup: 20000,
		want: "d7116bf47b5ab87cfb78b98cdf1e5c5eb9abb048467be59647101c61513a30ef"},
	{name: "fleet-radiosity-4t-3.2", app: "radiosity", cores: allCores[:4], freqs: uniform(3.2), instr: 40000, warmup: 20000,
		want: "6ae9cebbec9a67c385f9f95a306291ac7b3bffa27fb6ae241912e46e47b1c476"},
	{name: "mixed-clocks-raytrace", app: "raytrace", cores: allCores,
		freqs: []float64{2.4, 3.5, 2.4, 2.8, 3.5, 3.2, 2.4, 2.8}, instr: 40000, warmup: 20000,
		want: "0bf80ae8a9d640a8f4fcf2b92217f02fb6fbef1528e0e32039c173e6c0dfc182"},
	{name: "sparse-mixed-cg-cold", app: "cg", cores: []int{1, 3, 6},
		freqs: []float64{3.5, 2.6, 3.5, 2.6, 3.1, 3.5, 2.6, 3.1}, instr: 40000,
		want: "5c393b30b145bddd2a8b0df1f4127ca1f0e1d1305b601d200613ba97ee6c210e"},
	{name: "recorded-radix-2t", app: "radix", cores: []int{0, 5}, freqs: uniform(3.0), instr: 30000, warmup: 5000, recorded: 7000,
		want: "b97a8dbe1e63ae7f705ae2709deebc172c72a8db3779fc271c3d402a1f8f5985"},
}

func (gc goldenCase) run(t *testing.T) Result {
	t.Helper()
	p, err := workload.ByName(gc.app)
	if err != nil {
		t.Fatal(err)
	}
	var as []Assignment
	for i, c := range gc.cores {
		a := Assignment{Core: c, App: p, Thread: i, Instructions: gc.instr, Warmup: gc.warmup}
		if gc.recorded > 0 {
			src := workload.NewTrace(p, i)
			instrs := make([]workload.Instr, gc.recorded)
			for k := range instrs {
				instrs[k] = src.Next()
			}
			if a.Stream, err = workload.NewRecordedTrace(instrs); err != nil {
				t.Fatal(err)
			}
		}
		as = append(as, a)
	}
	s, err := New(DefaultConfig(), gc.freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultGolden pins cpusim's output bit for bit. The digests were
// recorded before the simulator's hot loop was rewritten for speed
// (integer trace thresholds, shift/mask cache indexing, packed cache
// lines, per-core clock quotients); any change to a Result, however
// small, fails here. Regenerate a digest only for a change that is
// meant to alter the simulation.
func TestResultGolden(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			if got := resultDigest(gc.run(t)); got != gc.want {
				t.Errorf("Result digest %s, want %s", got, gc.want)
			}
		})
	}
}
