// Codec tests: the binary dataset format must round-trip the arena
// spine exactly — spans, digests, plan, flags — and fail cleanly on
// truncated or hostile payloads instead of over-allocating.

package wire

import (
	"bytes"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

func encodedPayload(t testing.TB) []byte {
	t.Helper()
	d := synth.Reads(synth.ReadsSpec{
		Name: "wire", GenomeLen: 30000, Coverage: 6, MeanReadLen: 1500, MinReadLen: 600,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 400, Seed: 9, MaxComparisons: 20,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServiceWireRoundTrip(t *testing.T) {
	d := synth.Reads(synth.ReadsSpec{
		Name: "wire", GenomeLen: 30000, Coverage: 6, MeanReadLen: 1500, MinReadLen: 600,
		Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: 400, Seed: 9, MaxComparisons: 20,
	})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.Protein != d.Protein {
		t.Fatalf("metadata drift: %q/%v vs %q/%v", got.Name, got.Protein, d.Name, d.Protein)
	}
	wantArena, wantPlan := d.Spine()
	gotArena, gotPlan := got.Spine()
	if gotArena.Len() != wantArena.Len() {
		t.Fatalf("arena length %d, want %d", gotArena.Len(), wantArena.Len())
	}
	for i := 0; i < wantArena.Len(); i++ {
		// Digest equality is the load-bearing property: routing keys and
		// result-cache identity both hang off it.
		if gotArena.Digest(i) != wantArena.Digest(i) {
			t.Fatalf("sequence %d digest drifted across the wire", i)
		}
		if string(gotArena.Seq(i)) != string(wantArena.Seq(i)) {
			t.Fatalf("sequence %d bytes drifted across the wire", i)
		}
	}
	if gotPlan.Len() != wantPlan.Len() {
		t.Fatalf("plan rows %d, want %d", gotPlan.Len(), wantPlan.Len())
	}
	for i := 0; i < wantPlan.Len(); i++ {
		for c, col := range [][]int32{gotPlan.H, gotPlan.V, gotPlan.SeedH, gotPlan.SeedV, gotPlan.SeedLen} {
			want := [][]int32{wantPlan.H, wantPlan.V, wantPlan.SeedH, wantPlan.SeedV, wantPlan.SeedLen}[c]
			if col[i] != want[i] {
				t.Fatalf("plan row %d column %d drifted: %d vs %d", i, c, col[i], want[i])
			}
		}
	}

	// Canonical encoding: re-encoding the decoded dataset reproduces the
	// payload byte for byte.
	p2, err := EncodeDataset(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != string(p) {
		t.Fatal("encoding is not canonical: decode→encode changed bytes")
	}
}

// corruptPayloads derives malformed variants of a valid payload p.
func corruptPayloads(p []byte) map[string][]byte {
	return map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XDW9"), p[4:]...),
		"truncated":  p[:len(p)/2],
		"trailing":   append(append([]byte{}, p...), 0xFF),
		"magic only": p[:4],
		"cut varint": p[:5],
	}
}

func TestServiceWireRejectsCorruption(t *testing.T) {
	for name, payload := range corruptPayloads(encodedPayload(t)) {
		mustReject(t, name, payload)
	}
}

// hostilePayloads are hand-built frames claiming absurd element counts
// or addressing data the payload never shipped.
func hostilePayloads() map[string][]byte {
	// magic, flags 0, empty name, empty slab, then a refs count of 2^40
	// the remaining zero bytes cannot possibly hold.
	refs := []byte{'X', 'D', 'W', '1', 0, 0, 0}
	refs = append(refs, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^40
	// magic, flags, empty name, then 2^40 slabs.
	slabs := []byte{'X', 'D', 'W', '2', 0, 0}
	slabs = append(slabs, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	// Two 4-byte slabs and one span naming slab 7.
	index := []byte{'X', 'D', 'W', '2', 0, 0, 2, 4}
	index = append(index, "AAAA"...)
	index = append(index, 4)
	index = append(index, "CCCC"...)
	index = append(index, 1)
	index = u32le(u32le(u32le(index, 7), 0), 4)
	index = append(index, 0) // empty plan
	// One 8-byte slab and a span whose int32 end Off+Len wraps negative.
	wrap := []byte{'X', 'D', 'W', '1', 0, 0, 8}
	wrap = append(wrap, "ACGTACGT"...)
	wrap = append(wrap, 1)
	wrap = u32le(u32le(wrap, 0x30303030), 0x58303030)
	wrap = append(wrap, 0) // empty plan
	return map[string][]byte{
		"refs count": refs, "slab count": slabs, "slab index": index, "span end overflow": wrap,
	}
}

// mustReject asserts DecodeDataset refuses payload with a wire error.
func mustReject(t *testing.T, name string, payload []byte) {
	t.Helper()
	if _, err := DecodeDataset(payload); err == nil {
		t.Fatalf("%s payload decoded without error", name)
	} else if !strings.Contains(err.Error(), "wire") {
		t.Fatalf("%s: error %q lost the wire prefix", name, err)
	}
}

// TestServiceWireHostileCounts: a payload claiming absurd element counts
// must fail the bounds check, not attempt the allocation.
func TestServiceWireHostileCounts(t *testing.T) {
	mustReject(t, "hostile refs count", hostilePayloads()["refs count"])
}

// TestServiceWireHostileSlabCount: an XDW2 payload claiming 2^40 slabs
// must fail the bounds check before any per-slab allocation.
func TestServiceWireHostileSlabCount(t *testing.T) {
	mustReject(t, "hostile slab count", hostilePayloads()["slab count"])
}

// TestServiceWireRejectsOutOfRangeSlabIndex: a span naming a slab the
// payload never shipped must fail restore, not index out of bounds.
func TestServiceWireRejectsOutOfRangeSlabIndex(t *testing.T) {
	_, err := DecodeDataset(hostilePayloads()["slab index"])
	if err == nil || !strings.Contains(err.Error(), "slab 7") {
		t.Fatalf("out-of-range slab index: error %v, want a restore error naming slab 7", err)
	}
}

// TestServiceWireRejectsOverflowingSpan: a span whose int32 end wraps
// negative must fail restore instead of slicing out of bounds.
func TestServiceWireRejectsOverflowingSpan(t *testing.T) {
	mustReject(t, "span end overflow", hostilePayloads()["span end overflow"])
}

// TestServiceWireRejectsNonCanonical: the decoder accepts only the
// canonical encoding, so overlong varints, unknown flag bits and a
// single-slab spine framed as XDW2 are refused rather than decoded to a
// dataset that re-encodes differently.
func TestServiceWireRejectsNonCanonical(t *testing.T) {
	golden := xdw1Golden()
	overlong := append([]byte{}, golden[:5]...)
	overlong = append(overlong, 0x81, 0x00) // name length 1, two bytes
	overlong = append(overlong, golden[6:]...)
	flags := append([]byte{}, golden...)
	flags[4] = 0x02
	single := []byte{'X', 'D', 'W', '2', 0, 0, 1, 4}
	single = append(single, "AAAA"...)
	single = append(single, 1)
	single = u32le(u32le(u32le(single, 0), 0), 4)
	single = append(single, 0)
	mustReject(t, "overlong varint", overlong)
	mustReject(t, "unknown flags", flags)
	mustReject(t, "single-slab XDW2", single)
}

// u32le appends v little-endian — for hand-building golden payloads.
func u32le(p []byte, v uint32) []byte {
	return append(p, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func multiSlabDataset(t testing.TB) *workload.Dataset {
	t.Helper()
	a := workload.NewArena(0, 4)
	a.SetMaxSlabBytes(8)
	for _, s := range []string{"AAAACCCC", "GGGGTTTT", "ACGTACGT", "TTTTAAAA"} {
		a.Append([]byte(s))
	}
	if a.NumSlabs() != 4 {
		t.Fatalf("fixture spine has %d slabs, want 4", a.NumSlabs())
	}
	d := a.NewDataset("multi", workload.PlanOf([]workload.Comparison{
		{H: 0, V: 1, SeedH: 2, SeedV: 2, SeedLen: 4},
		{H: 2, V: 3, SeedH: 0, SeedV: 0, SeedLen: 4},
	}), false)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestServiceWireSingleSlabStaysXDW1: single-slab spines must keep the
// version-1 framing so every pre-spine payload stays byte-identical.
func TestServiceWireSingleSlabStaysXDW1(t *testing.T) {
	p := encodedPayload(t)
	if string(p[:4]) != "XDW1" {
		t.Fatalf("single-slab payload framed as %q, want XDW1", p[:4])
	}
}

func TestServiceWireMultiSlabRoundTrip(t *testing.T) {
	d := multiSlabDataset(t)
	p, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(p[:4]) != "XDW2" {
		t.Fatalf("multi-slab payload framed as %q, want XDW2", p[:4])
	}
	got, err := DecodeDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	wantArena, wantPlan := d.Spine()
	gotArena, gotPlan := got.Spine()
	if gotArena.NumSlabs() != wantArena.NumSlabs() {
		t.Fatalf("decoded spine has %d slabs, want %d", gotArena.NumSlabs(), wantArena.NumSlabs())
	}
	if gotArena.Len() != wantArena.Len() || gotPlan.Len() != wantPlan.Len() {
		t.Fatalf("decoded %d seqs / %d rows, want %d / %d",
			gotArena.Len(), gotPlan.Len(), wantArena.Len(), wantPlan.Len())
	}
	for i := 0; i < wantArena.Len(); i++ {
		if gotArena.Ref(i) != wantArena.Ref(i) {
			t.Fatalf("seq %d span drifted: %+v vs %+v", i, gotArena.Ref(i), wantArena.Ref(i))
		}
		if gotArena.Digest(i) != wantArena.Digest(i) {
			t.Fatalf("seq %d digest drifted across the wire", i)
		}
		if string(gotArena.Seq(i)) != string(wantArena.Seq(i)) {
			t.Fatalf("seq %d bytes drifted across the wire", i)
		}
	}
	// Canonical: decode→encode reproduces the payload byte for byte.
	p2, err := EncodeDataset(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != string(p) {
		t.Fatal("XDW2 encoding is not canonical: decode→encode changed bytes")
	}
}

// xdw1Golden is a hand-rolled version-1 payload: two sequences in one
// slab and one comparison.
func xdw1Golden() []byte {
	p := []byte{'X', 'D', 'W', '1', 0}
	p = append(p, 1, 'g')                       // name "g"
	p = append(p, 8)                            // slab length
	p = append(p, "AAAACCCC"...)                // slab bytes
	p = append(p, 2)                            // ref count
	p = u32le(u32le(p, 0), 4)                   // ref 0: off 0 len 4
	p = u32le(u32le(p, 4), 4)                   // ref 1: off 4 len 4
	p = append(p, 1)                            // plan rows
	for _, v := range []uint32{0, 1, 0, 0, 4} { // H V SeedH SeedV SeedLen columns
		p = u32le(p, v)
	}
	return p
}

// TestServiceWireXDW1GoldenDecode pins version-1 decode compatibility with
// a hand-rolled byte payload — independent of the current encoder, so an
// encoder change can never silently redefine what old senders mean.
func TestServiceWireXDW1GoldenDecode(t *testing.T) {
	p := xdw1Golden()
	d, err := DecodeDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "g" || d.Protein {
		t.Fatalf("golden metadata: %q/%v", d.Name, d.Protein)
	}
	arena, plan := d.Spine()
	if arena.Len() != 2 || string(arena.Seq(0)) != "AAAA" || string(arena.Seq(1)) != "CCCC" {
		t.Fatalf("golden pool corrupt: %d seqs", arena.Len())
	}
	if arena.NumSlabs() != 1 {
		t.Fatalf("golden decoded to %d slabs", arena.NumSlabs())
	}
	if plan.Len() != 1 || plan.At(0) != (workload.Comparison{H: 0, V: 1, SeedLen: 4}) {
		t.Fatalf("golden plan corrupt: %+v", plan.At(0))
	}
	// And the golden is canonical: re-encoding reproduces it exactly.
	p2, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != string(p) {
		t.Fatal("re-encoding the XDW1 golden changed bytes")
	}
}

// corruptMultiSlabPayloads derives malformed variants of a valid XDW2
// payload p.
func corruptMultiSlabPayloads(p []byte) map[string][]byte {
	return map[string][]byte{
		"truncated mid-slab": p[:9],
		"truncated mid-refs": p[:len(p)-30],
		"trailing":           append(append([]byte{}, p...), 0xAB),
	}
}

func TestServiceWireMultiSlabRejectsCorruption(t *testing.T) {
	p, err := EncodeDataset(multiSlabDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range corruptMultiSlabPayloads(p) {
		mustReject(t, name, payload)
	}
}

// FuzzDecodeDataset fuzzes the network boundary: no input may panic the
// decoder, every accepted dataset must pass Validate, and an accepted
// payload must be the canonical encoding of what it decodes to. Seeded
// with valid XDW1 and XDW2 frames plus the corruption and hostile-count
// tables.
func FuzzDecodeDataset(f *testing.F) {
	// Small frames keep each execution, and the fuzzer's minimisation
	// of every new input, cheap enough for a short CI run.
	single := xdw1Golden()
	multi, err := EncodeDataset(multiSlabDataset(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	f.Add(multi)
	for _, table := range []map[string][]byte{
		corruptPayloads(single), corruptMultiSlabPayloads(multi), hostilePayloads(),
	} {
		for _, p := range table {
			f.Add(p)
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		d, err := DecodeDataset(p)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted payload fails Validate: %v", err)
		}
		q, err := EncodeDataset(d)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if !bytes.Equal(q, p) {
			t.Fatalf("accepted payload is not canonical: %d bytes in, %d re-encoded", len(p), len(q))
		}
	})
}
