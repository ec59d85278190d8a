// Wire-restore surface: rebuilding an arena spine from its serialized
// parts. The service tier ships datasets as (slabs, refs, plan columns);
// RestoreArenaSlabs turns the first two back into a full Arena — digests
// and intern index included — without re-appending byte by byte, so the
// restored spine is semantically identical to the sender's: same
// indices, same spans, same content digests, and therefore the same
// ExtensionKeys and result-cache identity.

package workload

import "fmt"

// RestoreArenaSlabs rebuilds an arena spine from its slabs and span
// table, the inverse of reading SlabViews() and Refs() on the wire's
// encode side. The slabs are adopted, not copied — the caller must not
// mutate them afterwards (slab contents are immutable once shared) — and
// come back sealed, so the restored spine is immediately spillable and a
// later append rolls a fresh slab. Spans are validated against their
// slabs; exact duplicate spans are recognised as interned (they share
// their canonical's digest and count toward SavedBytes), so a
// round-tripped arena reports the same interning the original did.
func RestoreArenaSlabs(slabs [][]byte, refs []SeqRef) (*Arena, error) {
	a := &Arena{
		refs:    append([]SeqRef(nil), refs...),
		digests: make([]SeqDigest, len(refs)),
		index:   make(map[uint64][]int32, len(refs)),
		maxSlab: MaxSlabBytes,
		slabs:   make([]*slab, len(slabs)),
	}
	for si, b := range slabs {
		if len(b) > MaxSlabBytes {
			return nil, fmt.Errorf("workload: restored slab %d exceeds %d bytes", si, int64(MaxSlabBytes))
		}
		sl := &slab{size: len(b), sealed: true}
		sl.setBytes(b[:len(b):len(b)])
		a.slabs[si] = sl
	}
	seen := make(map[SeqRef]int32, len(refs))
	for i, r := range a.refs {
		if r.Slab < 0 || int(r.Slab) >= len(slabs) {
			return nil, fmt.Errorf("workload: restored span %d references slab %d of a %d-slab spine",
				i, r.Slab, len(slabs))
		}
		// Off+Len in int64: hostile int32 spans must not wrap past the
		// bound into a negative end.
		if r.Off < 0 || r.Len < 0 || int64(r.Off)+int64(r.Len) > int64(len(slabs[r.Slab])) {
			return nil, fmt.Errorf("workload: restored span %d (%d+%d) outside the %d-byte slab %d",
				i, r.Off, r.Len, len(slabs[r.Slab]), r.Slab)
		}
		if ci, ok := seen[r]; ok {
			a.digests[i] = a.digests[ci]
			a.savedBytes += int64(r.Len)
			continue
		}
		d := digestBytes(slabs[r.Slab][r.Off:r.End()])
		a.digests[i] = d
		a.index[d.Lo] = append(a.index[d.Lo], int32(i))
		seen[r] = int32(i)
	}
	return a, nil
}

// RestoreArena is the single-slab form of RestoreArenaSlabs, kept for
// producers (and the XDW1 wire compat path) whose pools fit one slab.
// Every span must carry Slab == 0.
func RestoreArena(slab []byte, refs []SeqRef) (*Arena, error) {
	return RestoreArenaSlabs([][]byte{slab}, refs)
}
