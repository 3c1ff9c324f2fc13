package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func testSnap(marker string) *Snapshot {
	s := NewSnapshot()
	s.Put("meta", []byte(marker))
	var e Enc
	e.U32(7)
	e.F64s([]float64{1.5, math.Pi, math.NaN(), -0.0})
	e.Str("bank/lu-nas")
	s.Put("state", e.Data())
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.U32(42)
	e.U64(1 << 60)
	e.I64(-7)
	e.F64(math.Inf(-1))
	e.Str("hello, 世界")
	e.Blob([]byte{0, 1, 2})
	e.F64s([]float64{0.1, -0.2})

	d := NewDec(e.Data())
	if v := d.U32(); v != 42 {
		t.Fatalf("U32 = %d", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.I64(); v != -7 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.F64(); !math.IsInf(v, -1) {
		t.Fatalf("F64 = %g", v)
	}
	if v := d.Str(); v != "hello, 世界" {
		t.Fatalf("Str = %q", v)
	}
	if v := d.Blob(); len(v) != 3 || v[2] != 2 {
		t.Fatalf("Blob = %v", v)
	}
	if v := d.F64s(); len(v) != 2 || v[1] != -0.2 {
		t.Fatalf("F64s = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// Float64 round trips must be bit-exact, including NaN payloads and
// signed zero — table byte-identity after resume depends on it.
func TestCodecFloatBitExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e-308, 66.60000000000001}
	var e Enc
	for _, v := range vals {
		e.F64(v)
	}
	d := NewDec(e.Data())
	for i, want := range vals {
		got := d.F64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("value %d: bits %016x, want %016x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// A corrupt length prefix must poison the decoder, not over-allocate.
func TestDecBogusLengthRejected(t *testing.T) {
	var e Enc
	e.U32(0xffffffff) // string length far beyond the buffer
	d := NewDec(e.Data())
	if s := d.Str(); s != "" {
		t.Fatalf("Str = %q on corrupt input", s)
	}
	if d.Err() == nil {
		t.Fatal("no sticky error after bogus length")
	}

	var e2 Enc
	e2.U64(1 << 40) // blob length beyond the buffer
	d2 := NewDec(e2.Data())
	if b := d2.Blob(); b != nil {
		t.Fatalf("Blob = %v on corrupt input", b)
	}
	if d2.Err() == nil {
		t.Fatal("no sticky error after bogus blob length")
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	snap := testSnap("v1")
	snap.Seq = 9
	raw := snap.Encode()
	back, err := DecodeSnapshot("mem", raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != 9 {
		t.Fatalf("Seq = %d", back.Seq)
	}
	if got, _ := back.Get("meta"); string(got) != "v1" {
		t.Fatalf("meta = %q", got)
	}
	st, ok := back.Get("state")
	if !ok {
		t.Fatal("state section missing")
	}
	d := NewDec(st)
	if d.U32() != 7 {
		t.Fatal("state payload mangled")
	}
	// Section order must not affect the encoding.
	other := NewSnapshot()
	other.Seq = 9
	for i := len(snap.Names()) - 1; i >= 0; i-- {
		n := snap.Names()[i]
		b, _ := snap.Get(n)
		other.Put(n, b)
	}
	if string(other.Encode()) != string(raw) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestStoreSaveLoadRotate(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store Load err = %v, want ErrNoCheckpoint", err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := st.Save(testSnap(fmt.Sprintf("gen-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 5 {
		t.Fatalf("loaded Seq = %d, want 5", snap.Seq)
	}
	if got, _ := snap.Get("meta"); string(got) != "gen-5" {
		t.Fatalf("meta = %q", got)
	}
	seqs, err := st.snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("%d snapshots retained, want Keep=2", len(seqs))
	}
}

// The crash-safety contract, checked exhaustively: the newest snapshot
// file truncated at EVERY byte offset must either fall back to the
// previous intact snapshot or fail with a typed corruption error —
// never panic, never return wrong data.
func TestLoadSurvivesTruncationAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(testSnap("good")); err != nil {
		t.Fatal(err)
	}
	newest := testSnap("newest")
	if _, err := st.Save(newest); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(2))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Load()
		if err != nil {
			t.Fatalf("cut=%d: Load returned error %v despite intact fallback", cut, err)
		}
		if got, _ := snap.Get("meta"); string(got) != "good" {
			t.Fatalf("cut=%d: loaded %q, want fallback to the intact snapshot", cut, got)
		}
	}
	// Restore and confirm the newest wins again when intact.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := snap.Get("meta"); string(got) != "newest" {
		t.Fatalf("restored file not preferred: %q", got)
	}
}

// With no fallback available, every truncation must yield the typed
// corruption error (except cut=0+removed, which is ErrNoCheckpoint).
func TestLoadSoleCorruptSnapshotTypedError(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(testSnap("only")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(1))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := st.Load()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Path != path {
			t.Fatalf("cut=%d: error does not carry the offending path: %v", cut, err)
		}
	}
}

// A single flipped bit anywhere in the file must be detected.
func TestLoadDetectsBitFlips(t *testing.T) {
	snap := testSnap("bits")
	snap.Seq = 3
	full := snap.Encode()
	for off := 0; off < len(full); off++ {
		mut := make([]byte, len(full))
		copy(mut, full)
		mut[off] ^= 0x10
		got, err := DecodeSnapshot("mem", mut)
		if err == nil {
			// The only acceptable silent decode would be a flip that
			// still CRC-matches — impossible for a single bit with CRC-32C.
			t.Fatalf("offset %d: flipped bit decoded silently (seq=%d)", off, got.Seq)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("offset %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the old content and no temp litter.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		fmt.Fprint(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "old" {
		t.Fatalf("old content lost: %q, %v", b, err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	// A successful writer replaces the content.
	if err := WriteFileAtomicBytes(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if string(b) != "new" {
		t.Fatalf("content = %q", b)
	}
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("%d directory entries after atomic write, want 1", len(ents))
	}
}

// frame wraps body in a valid snapshot header: magic, body CRC and body
// length.
func frame(body []byte) []byte {
	var hdr Enc
	hdr.U32(crc32.Checksum(body, castagnoli))
	hdr.U64(uint64(len(body)))
	return append(append([]byte(Magic), hdr.Data()...), body...)
}

// FuzzDecodeSnapshot feeds DecodeSnapshot arbitrary bodies under a
// correct header, so mutations get past the length and CRC checks into
// section parsing. It must never panic, reject only with *CorruptError,
// allocate in proportion to its input, and decode what it accepts to a
// snapshot that survives an encode/decode round trip unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(testSnap("seed").Encode()[headerLen:])
	f.Add(NewSnapshot().Encode()[headerLen:])
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := frame(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := DecodeSnapshot("fuzz", raw)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(raw))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), alloc)
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %v (%T) is not a *CorruptError", err, err)
			}
			return
		}
		again, err := DecodeSnapshot("fuzz", snap.Encode())
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if again.Seq != snap.Seq || !reflect.DeepEqual(again.sections, snap.sections) {
			t.Fatalf("snapshot changed across an encode/decode round trip")
		}
	})
}
