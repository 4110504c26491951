package gdo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// State export/import. A replicated or relocating directory shard must hand
// its full lock state — holders, queues, upgrades, page maps and copy sets —
// to another process as bytes. The encoding is deterministic (maps are
// serialized in sorted order) so two replicas that applied the same op
// sequence export byte-identical snapshots; the chaos harness and the
// handoff state machine both rely on that.

// ErrBadSnapshot reports a malformed or truncated exported snapshot.
var ErrBadSnapshot = errors.New("gdo: bad snapshot")

// exportVersion is bumped whenever the snapshot layout changes; 2 and 3
// carried a commit-order window, which no directory keeps any more. A
// directory with retention on sets exportRetainBit in the version byte, and
// every entry then also carries its grant streak, which decides the next
// keep.
const (
	exportVersion   = 4
	exportRetainBit = 1
)

// exportMagic guards against feeding arbitrary bytes to Import.
const exportMagic = 0x4c474458 // "LGDX"

type snapWriter struct{ buf []byte }

func (w *snapWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *snapWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

type snapReader struct {
	buf []byte
	off int
	err error
}

func (r *snapReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrBadSnapshot, r.off)
	}
}

func (r *snapReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *snapReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// count reads a u32 length and bounds it against the remaining bytes with a
// conservative per-element floor, so a corrupt length cannot drive a huge
// allocation.
func (r *snapReader) count(elemFloor int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if elemFloor < 1 {
		elemFloor = 1
	}
	if n < 0 || n*elemFloor > len(r.buf)-r.off {
		r.fail()
		return 0
	}
	return n
}

// Export serializes the directory's entire state deterministically. The
// result can be fed to Import to reconstruct an equivalent directory, and is
// byte-identical across replicas that applied the same operation sequence.
func (d *Directory) Export() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()

	w := &snapWriter{buf: make([]byte, 0, 64+64*len(d.entries))}
	w.u32(exportMagic)
	if d.retain {
		w.u8(exportVersion | exportRetainBit)
	} else {
		w.u8(exportVersion)
	}
	w.u32(uint32(d.nodes))

	objs := make([]ids.ObjectID, 0, len(d.entries))
	for o := range d.entries {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	w.u32(uint32(len(objs)))
	for _, o := range objs {
		e := d.entries[o]
		w.u64(uint64(e.obj))
		w.u32(uint32(e.numPages))
		w.u32(uint32(e.lastWriter))
		if d.retain {
			w.u32(uint32(e.streakSite))
			w.u8(e.streak)
		}

		w.u32(uint32(len(e.holders)))
		for _, h := range e.holders {
			w.u64(uint64(h.family))
			w.u32(uint32(h.site))
			w.u8(uint8(h.mode))
			w.u32(uint32(len(h.refs)))
			for _, ref := range h.refs {
				w.u64(uint64(ref.Tx))
				w.u32(uint32(ref.Node))
			}
		}

		w.u32(uint32(len(e.queues)))
		for _, q := range e.queues {
			w.u64(uint64(q.family))
			w.u32(uint32(q.site))
			w.u64(q.age)
			w.u32(uint32(len(q.reqs)))
			for _, req := range q.reqs {
				w.u64(uint64(req.Ref.Tx))
				w.u32(uint32(req.Ref.Node))
				w.u8(uint8(req.Mode))
			}
		}

		w.u32(uint32(len(e.upgrades)))
		for _, u := range e.upgrades {
			w.u64(uint64(u.family))
			w.u32(uint32(u.site))
			w.u64(u.age)
			w.u64(uint64(u.ref.Tx))
			w.u32(uint32(u.ref.Node))
		}

		for _, loc := range e.pageMap {
			w.u32(uint32(loc.Node))
			w.u64(loc.Version)
		}

		nodes := make([]ids.NodeID, 0, len(e.copySet))
		for n := range e.copySet {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		w.u32(uint32(len(nodes)))
		for _, n := range nodes {
			w.u32(uint32(n))
		}
	}
	return w.buf
}

// Import reconstructs a directory from an Export snapshot.
func Import(data []byte) (*Directory, error) {
	r := &snapReader{buf: data}
	if r.u32() != exportMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	version := r.u8()
	if version&^exportRetainBit != exportVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, version)
	}
	nodes := int(r.u32())
	d := New(nodes)
	d.retain = version&exportRetainBit != 0

	for i, n := 0, r.count(16); i < n; i++ {
		e := &entry{
			obj:        ids.ObjectID(r.u64()),
			numPages:   int(r.u32()),
			lastWriter: ids.NodeID(r.u32()),
			copySet:    make(map[ids.NodeID]bool),
		}
		if r.err == nil && (e.numPages < 0 || e.numPages > len(data)) {
			r.fail()
		}
		if d.retain {
			e.streakSite, e.streak = ids.NodeID(r.u32()), r.u8()
		}

		for j, hn := 0, r.count(17); j < hn; j++ {
			h := &familyHold{
				family: ids.FamilyID(r.u64()),
				site:   ids.NodeID(r.u32()),
				mode:   o2pl.Mode(r.u8()),
			}
			for k, rn := 0, r.count(12); k < rn; k++ {
				h.refs = append(h.refs, ids.TxRef{Tx: ids.TxID(r.u64()), Node: ids.NodeID(r.u32())})
			}
			e.holders = append(e.holders, h)
		}

		for j, qn := 0, r.count(24); j < qn; j++ {
			q := &familyQueue{
				family: ids.FamilyID(r.u64()),
				site:   ids.NodeID(r.u32()),
				age:    r.u64(),
			}
			for k, rn := 0, r.count(13); k < rn; k++ {
				q.reqs = append(q.reqs, QueuedReq{
					Ref:  ids.TxRef{Tx: ids.TxID(r.u64()), Node: ids.NodeID(r.u32())},
					Mode: o2pl.Mode(r.u8()),
				})
			}
			e.queues = append(e.queues, q)
		}

		for j, un := 0, r.count(32); j < un; j++ {
			e.upgrades = append(e.upgrades, &upgradeWait{
				family: ids.FamilyID(r.u64()),
				site:   ids.NodeID(r.u32()),
				age:    r.u64(),
				ref:    ids.TxRef{Tx: ids.TxID(r.u64()), Node: ids.NodeID(r.u32())},
			})
		}

		if r.err == nil {
			e.pageMap = make([]PageLoc, e.numPages)
			for p := range e.pageMap {
				e.pageMap[p] = PageLoc{Node: ids.NodeID(r.u32()), Version: r.u64()}
			}
		}

		for j, cn := 0, r.count(4); j < cn; j++ {
			e.copySet[ids.NodeID(r.u32())] = true
		}

		if r.err != nil {
			return nil, r.err
		}
		if _, dup := d.entries[e.obj]; dup {
			return nil, fmt.Errorf("%w: duplicate object %v", ErrBadSnapshot, e.obj)
		}
		d.entries[e.obj] = e
		d.noteWaitersLocked(e)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data)-r.off)
	}
	return d, nil
}
