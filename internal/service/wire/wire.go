// Package wire is the alignment service's interchange format: a compact
// binary codec for shipping a workload (the arena spine — slab, spans,
// columnar plan) across the network boundary, a FASTA ingestion path for
// thin clients, and the NDJSON record types the result stream is framed
// in. The codec preserves the spine exactly: a decoded dataset has the
// same sequence indices, spans and content digests as the sender's, so
// routing keys, ExtensionKeys and result-cache identity survive the trip
// and the service's reports stay byte-identical to an in-process run.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/sram-align/xdropipu/internal/alignment"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/workload"
)

// Content types the service accepts on POST /v1/jobs.
const (
	// ContentTypeDataset is the binary arena/plan payload EncodeDataset
	// produces — the zero-loss format engine-aware clients use.
	ContentTypeDataset = "application/x-xdropipu-dataset"
	// ContentTypeFasta is plain FASTA text; the server derives the
	// comparison plan (file-order pairing, midpoint seeds) like the CLI.
	ContentTypeFasta = "text/x-fasta"
	// ContentTypeNDJSON frames the result stream: one JSON Envelope per
	// line.
	ContentTypeNDJSON = "application/x-ndjson"
)

// Binary layout (little-endian). Version 1 frames a single-slab spine:
//
//	magic   "XDW1"
//	flags   u8      bit0 = protein
//	name    uvarint length + bytes
//	slab    uvarint length + bytes
//	refs    uvarint count  + count × (off u32, len u32)
//	plan    uvarint rows   + 5 columns × rows × i32  (H V SeedH SeedV SeedLen)
//
// Version 2 frames a multi-slab spine; spans carry their slab index:
//
//	magic   "XDW2"
//	flags   u8      bit0 = protein
//	name    uvarint length + bytes
//	slabs   uvarint count  + count × (uvarint length + bytes)
//	refs    uvarint count  + count × (slab u32, off u32, len u32)
//	plan    uvarint rows   + 5 columns × rows × i32  (H V SeedH SeedV SeedLen)
//
// The encoder emits XDW1 whenever the spine fits one slab — so every
// pre-spine payload stays byte-identical — and XDW2 only for genuinely
// multi-slab pools. The decoder accepts both.
var (
	magic  = [4]byte{'X', 'D', 'W', '1'}
	magic2 = [4]byte{'X', 'D', 'W', '2'}
)

const flagProtein = 1

// EncodeDataset serializes a dataset's arena spine. The encoding is
// canonical for a given spine: same slabs, spans and plan produce the
// same bytes, and a single-slab spine encodes byte-identically to the
// pre-spine XDW1 format.
func EncodeDataset(d *workload.Dataset) ([]byte, error) {
	arena, plan := d.Spine()
	refs := arena.Refs()
	var buf bytes.Buffer
	var flags byte
	if d.Protein {
		flags |= flagProtein
	}
	var u32 [4]byte
	if arena.NumSlabs() <= 1 {
		slab := arena.Slab()
		buf.Grow(len(slab) + len(refs)*8 + plan.Len()*20 + len(d.Name) + 64)
		buf.Write(magic[:])
		buf.WriteByte(flags)
		writeUvarint(&buf, uint64(len(d.Name)))
		buf.WriteString(d.Name)
		writeUvarint(&buf, uint64(len(slab)))
		buf.Write(slab)
		writeUvarint(&buf, uint64(len(refs)))
		for _, r := range refs {
			binary.LittleEndian.PutUint32(u32[:], uint32(r.Off))
			buf.Write(u32[:])
			binary.LittleEndian.PutUint32(u32[:], uint32(r.Len))
			buf.Write(u32[:])
		}
	} else {
		buf.Grow(arena.SlabBytes() + len(refs)*12 + plan.Len()*20 + len(d.Name) + 64)
		buf.Write(magic2[:])
		buf.WriteByte(flags)
		writeUvarint(&buf, uint64(len(d.Name)))
		buf.WriteString(d.Name)
		writeUvarint(&buf, uint64(arena.NumSlabs()))
		for si := 0; si < arena.NumSlabs(); si++ {
			slab := arena.SlabView(si)
			writeUvarint(&buf, uint64(len(slab)))
			buf.Write(slab)
		}
		writeUvarint(&buf, uint64(len(refs)))
		for _, r := range refs {
			binary.LittleEndian.PutUint32(u32[:], uint32(r.Slab))
			buf.Write(u32[:])
			binary.LittleEndian.PutUint32(u32[:], uint32(r.Off))
			buf.Write(u32[:])
			binary.LittleEndian.PutUint32(u32[:], uint32(r.Len))
			buf.Write(u32[:])
		}
	}
	writeUvarint(&buf, uint64(plan.Len()))
	for _, col := range [][]int32{plan.H, plan.V, plan.SeedH, plan.SeedV, plan.SeedLen} {
		for _, v := range col {
			binary.LittleEndian.PutUint32(u32[:], uint32(v))
			buf.Write(u32[:])
		}
	}
	return buf.Bytes(), nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// DecodeDataset reverses EncodeDataset: the restored dataset shares the
// adopted slabs (no per-sequence copies) and validates like any other
// submission. Both wire versions decode — "XDW1" single-slab payloads
// from pre-spine senders and "XDW2" multi-slab spines. Lengths and
// counts are checked against the remaining input before any allocation,
// so truncated or hostile payloads (including absurd slab counts) fail
// cleanly instead of over-allocating. Decoding is strict: only the
// canonical encoding of a dataset is accepted (minimal varints, known
// flag bits, XDW2 only for multi-slab spines), so every accepted payload
// re-encodes byte for byte.
func DecodeDataset(p []byte) (*workload.Dataset, error) {
	r := &reader{p: p}
	var m [4]byte
	r.bytes(m[:])
	multi := m == magic2
	if r.err == nil && m != magic && !multi {
		return nil, fmt.Errorf("wire: bad magic %q", m[:])
	}
	flags := r.u8()
	if flags&^flagProtein != 0 {
		r.fail("unknown flag bits %#x", flags&^flagProtein)
	}
	name := string(r.lenBytes("name"))
	var slabs [][]byte
	if multi {
		nslabs := r.count("slabs", 1)
		if nslabs < 2 && r.err == nil {
			// Spines that fit one slab travel as XDW1; accepting them
			// here would give one dataset two encodings.
			r.fail("XDW2 frame with %d slabs", nslabs)
		}
		slabs = make([][]byte, 0, nslabs)
		for i := 0; i < nslabs && r.err == nil; i++ {
			slabs = append(slabs, append([]byte(nil), r.lenBytes("slab")...))
		}
	} else {
		slabs = [][]byte{append([]byte(nil), r.lenBytes("slab")...)}
	}
	refBytes := 8
	if multi {
		refBytes = 12
	}
	nrefs := r.count("refs", refBytes)
	refs := make([]workload.SeqRef, nrefs)
	for i := range refs {
		if multi {
			refs[i].Slab = int32(r.u32())
		}
		refs[i].Off = int32(r.u32())
		refs[i].Len = int32(r.u32())
	}
	nrows := r.count("plan", 20)
	plan := workload.NewPlan(nrows)
	cols := [5][]int32{}
	for c := range cols {
		col := make([]int32, nrows)
		for i := range col {
			col[i] = int32(r.u32())
		}
		cols[c] = col
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.p) != r.off {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(r.p)-r.off)
	}
	for i := 0; i < nrows; i++ {
		plan.Add(workload.Comparison{
			H: int(cols[0][i]), V: int(cols[1][i]),
			SeedH: int(cols[2][i]), SeedV: int(cols[3][i]), SeedLen: int(cols[4][i]),
		})
	}
	arena, err := workload.RestoreArenaSlabs(slabs, refs)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	d := arena.NewDataset(name, plan, flags&flagProtein != 0)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return d, nil
}

// reader is a bounds-checked cursor over the payload; the first error
// sticks and every later read is a no-op.
type reader struct {
	p   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(dst) > len(r.p) {
		r.fail("truncated payload")
		return
	}
	copy(dst, r.p[r.off:])
	r.off += len(dst)
}

func (r *reader) u8() byte {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutUvarint(tmp[:], v) != n {
		r.fail("overlong varint")
		return 0
	}
	r.off += n
	return v
}

// lenBytes reads a uvarint length and returns that many payload bytes as
// a subslice (no copy).
func (r *reader) lenBytes(what string) []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.p)-r.off) {
		r.fail("%s length %d exceeds payload", what, n)
		return nil
	}
	s := r.p[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// count reads an element count and rejects values the remaining payload
// cannot possibly hold (elemSize bytes each), bounding allocations.
func (r *reader) count(what string, elemSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.p)-r.off)/uint64(elemSize) {
		r.fail("%s count %d exceeds payload", what, n)
		return 0
	}
	return int(n)
}

// DecodeFasta ingests FASTA text the way the CLI's default mode does:
// records pair up in file order (1st vs 2nd, 3rd vs 4th, …) with a
// length-k seed at each pair's midpoints. The records stream straight
// into an arena slab.
func DecodeFasta(body io.Reader, protein bool, k int, name string) (*workload.Dataset, error) {
	alpha := seqio.DNAAlphabet
	if protein {
		alpha = seqio.ProteinAlphabet
	}
	if k <= 0 {
		k = 17
	}
	arena := workload.NewArena(0, 0)
	if _, err := arena.AppendFasta(body, alpha); err != nil {
		return nil, err
	}
	plan := workload.NewPlan(arena.Len() / 2)
	for i := 0; i+1 < arena.Len(); i += 2 {
		lh, lv := int(arena.Ref(i).Len), int(arena.Ref(i+1).Len)
		if lh < k || lv < k {
			continue
		}
		plan.Add(workload.Comparison{
			H: i, V: i + 1,
			SeedH: (lh - k) / 2, SeedV: (lv - k) / 2, SeedLen: k,
		})
	}
	if plan.Len() == 0 {
		return nil, fmt.Errorf("wire: no comparisons derivable from %d FASTA records", arena.Len())
	}
	d := arena.NewDataset(name, plan, protein)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Result is one comparison's alignment on the wire — every AlignOut
// field round-trips, CIGAR included, so client-side assembly reproduces
// the in-process report byte for byte.
type Result struct {
	GlobalID      int    `json:"id"`
	Score         int    `json:"score"`
	LeftScore     int    `json:"ls"`
	RightScore    int    `json:"rs"`
	BegH          int    `json:"bh"`
	BegV          int    `json:"bv"`
	EndH          int    `json:"eh"`
	EndV          int    `json:"ev"`
	Cells         int64  `json:"cells"`
	Antidiagonals int    `json:"ad"`
	MaxLiveBand   int    `json:"band"`
	Clamped       bool   `json:"clamped,omitempty"`
	Failed        bool   `json:"failed,omitempty"`
	Cigar         string `json:"cigar,omitempty"`
	TraceBytes    int    `json:"tb,omitempty"`
}

// FromAlignOut converts one kernel result to its wire form.
func FromAlignOut(o ipukernel.AlignOut) Result {
	return Result{
		GlobalID: o.GlobalID, Score: o.Score,
		LeftScore: o.LeftScore, RightScore: o.RightScore,
		BegH: o.BegH, BegV: o.BegV, EndH: o.EndH, EndV: o.EndV,
		Cells: o.Cells, Antidiagonals: o.Antidiagonals,
		MaxLiveBand: o.MaxLiveBand, Clamped: o.Clamped, Failed: o.Failed,
		Cigar: string(o.Cigar), TraceBytes: o.TraceBytes,
	}
}

// AlignOut converts the wire form back, re-validating the CIGAR so a
// corrupted stream cannot smuggle an invalid edit script into client
// code that trusts the Cigar invariants.
func (r Result) AlignOut() (ipukernel.AlignOut, error) {
	o := ipukernel.AlignOut{
		GlobalID: r.GlobalID, Score: r.Score,
		LeftScore: r.LeftScore, RightScore: r.RightScore,
		BegH: r.BegH, BegV: r.BegV, EndH: r.EndH, EndV: r.EndV,
		Cells: r.Cells, Antidiagonals: r.Antidiagonals,
		MaxLiveBand: r.MaxLiveBand, Clamped: r.Clamped, Failed: r.Failed,
		TraceBytes: r.TraceBytes,
	}
	if r.Cigar != "" {
		c, err := alignment.Parse(r.Cigar)
		if err != nil {
			return o, err
		}
		o.Cigar = c
	}
	return o, nil
}

// Header opens every result stream: the job's address plus the schedule
// shape the client needs to assemble and track progress.
type Header struct {
	Job string `json:"job"`
	// Comparisons is the submitted comparison count — the length of the
	// report's Results.
	Comparisons int `json:"comparisons"`
	// Batches is the schedule's executed-batch total.
	Batches int `json:"batches"`
	// Shard is the engine shard the job routed to (content affinity).
	Shard int `json:"shard"`
	// From is the first chunk sequence number this stream will carry
	// (non-zero on resumed streams).
	From int `json:"from,omitempty"`
}

// Chunk is one delivered batch: Seq numbers chunks in delivery order
// (the resume cursor), Batch is the batch's index in the job's schedule
// (-1 for the cache-served update that precedes execution).
type Chunk struct {
	Seq     int      `json:"seq"`
	Batch   int      `json:"batch"`
	Batches int      `json:"batches"`
	Seconds float64  `json:"seconds,omitempty"`
	Results []Result `json:"results"`
}

// ReportSummary carries every scalar field of driver.Report; Results
// travel in the chunks. Float fields round-trip exactly (Go's JSON
// encoder emits shortest-round-trip float64).
type ReportSummary struct {
	Batches                 int     `json:"batches"`
	IPUs                    int     `json:"ipus"`
	WallSeconds             float64 `json:"wallSeconds"`
	DeviceComputeSeconds    float64 `json:"deviceComputeSeconds"`
	TransferSeconds         float64 `json:"transferSeconds"`
	HostBytesIn             int64   `json:"hostBytesIn"`
	HostBytesOut            int64   `json:"hostBytesOut"`
	UniqueSeqBytesIn        int64   `json:"uniqueSeqBytesIn"`
	TheoreticalCells        int64   `json:"theoreticalCells"`
	Cells                   int64   `json:"cells"`
	SumBand                 int64   `json:"sumBand"`
	Antidiags               int64   `json:"antidiags"`
	Races                   int     `json:"races"`
	StealOps                int     `json:"stealOps"`
	Clamped                 int     `json:"clamped"`
	ReuseFactor             float64 `json:"reuseFactor"`
	MaxSRAM                 int     `json:"maxSRAM"`
	UniqueExtensions        int     `json:"uniqueExtensions"`
	DedupedComparisons      int     `json:"dedupedComparisons"`
	CacheHits               int     `json:"cacheHits"`
	CacheMisses             int     `json:"cacheMisses"`
	SkippedTheoreticalCells int64   `json:"skippedTheoreticalCells"`
	PeakTracebackBytes      int     `json:"peakTracebackBytes"`
	TracebackBytes          int64   `json:"tracebackBytes"`
	PartialFailures         int     `json:"partialFailures"`
	TracedExtensions        int     `json:"tracedExtensions"`
	TraceSkippedExtensions  int     `json:"traceSkippedExtensions"`
}

// Summarize extracts a report's scalar fields.
func Summarize(rep *driver.Report) ReportSummary {
	return ReportSummary{
		Batches: rep.Batches, IPUs: rep.IPUs,
		WallSeconds:          rep.WallSeconds,
		DeviceComputeSeconds: rep.DeviceComputeSeconds,
		TransferSeconds:      rep.TransferSeconds,
		HostBytesIn:          rep.HostBytesIn, HostBytesOut: rep.HostBytesOut,
		UniqueSeqBytesIn: rep.UniqueSeqBytesIn,
		TheoreticalCells: rep.TheoreticalCells, Cells: rep.Cells,
		SumBand: rep.SumBand, Antidiags: rep.Antidiags,
		Races: rep.Races, StealOps: rep.StealOps, Clamped: rep.Clamped,
		ReuseFactor: rep.ReuseFactor, MaxSRAM: rep.MaxSRAM,
		UniqueExtensions:   rep.UniqueExtensions,
		DedupedComparisons: rep.DedupedComparisons,
		CacheHits:          rep.CacheHits, CacheMisses: rep.CacheMisses,
		SkippedTheoreticalCells: rep.SkippedTheoreticalCells,
		PeakTracebackBytes:      rep.PeakTracebackBytes,
		TracebackBytes:          rep.TracebackBytes,
		PartialFailures:         rep.PartialFailures,
		TracedExtensions:        rep.TracedExtensions,
		TraceSkippedExtensions:  rep.TraceSkippedExtensions,
	}
}

// Report rebuilds a driver report around client-assembled results.
func (s ReportSummary) Report(results []ipukernel.AlignOut) *driver.Report {
	return &driver.Report{
		Results: results,
		Batches: s.Batches, IPUs: s.IPUs,
		WallSeconds:          s.WallSeconds,
		DeviceComputeSeconds: s.DeviceComputeSeconds,
		TransferSeconds:      s.TransferSeconds,
		HostBytesIn:          s.HostBytesIn, HostBytesOut: s.HostBytesOut,
		UniqueSeqBytesIn: s.UniqueSeqBytesIn,
		TheoreticalCells: s.TheoreticalCells, Cells: s.Cells,
		SumBand: s.SumBand, Antidiags: s.Antidiags,
		Races: s.Races, StealOps: s.StealOps, Clamped: s.Clamped,
		ReuseFactor: s.ReuseFactor, MaxSRAM: s.MaxSRAM,
		UniqueExtensions:   s.UniqueExtensions,
		DedupedComparisons: s.DedupedComparisons,
		CacheHits:          s.CacheHits, CacheMisses: s.CacheMisses,
		SkippedTheoreticalCells: s.SkippedTheoreticalCells,
		PeakTracebackBytes:      s.PeakTracebackBytes,
		TracebackBytes:          s.TracebackBytes,
		PartialFailures:         s.PartialFailures,
		TracedExtensions:        s.TracedExtensions,
		TraceSkippedExtensions:  s.TraceSkippedExtensions,
	}
}

// Final closes every result stream: the report summary on success, the
// job's terminal error otherwise.
type Final struct {
	Report *ReportSummary `json:"report,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// Envelope is one NDJSON line of the result stream: exactly one of the
// fields is set.
type Envelope struct {
	Header *Header `json:"header,omitempty"`
	Chunk  *Chunk  `json:"chunk,omitempty"`
	Final  *Final  `json:"final,omitempty"`
}
