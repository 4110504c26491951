package xfer

import (
	"errors"

	"lotec/internal/ids"
	"lotec/internal/pstore"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// Staged pages come from pstore's page pool. Safety rests on
// pstore.InstallPage copying its input: once a page is installed (or a
// message encoded, on the TCP path) the buffer carries no live data and may
// be given back. Who gives back what (DESIGN.md §9 has the table): the
// requester's apply stage releases the pages of a fetch reply — on the
// simulator the very buffers ServeFetch staged, over TCP the pool pages
// wire.Retain copied them into — and the serving TCPNet releases the staged
// buffers once the reply is written, unless fault.Dedup keeps the reply for
// replay. Each DeltaPage owns one staging buffer (its Data slice), never a
// sub-slice of a shared one: ReleasePage pools buf[:cap], so two releases of
// overlapping slices would corrupt the pool.

// ReleasePage gives a staged buffer back to the page pool; it is
// pstore.ReleasePage, named here for callers of ServeFetch outside the
// runtime (benchmark/probes.go).
//
//lotec:noalloc
func ReleasePage(buf []byte) { pstore.ReleasePage(buf) }

// ReleaseServed gives back every staged buffer of a reply ServeFetch built,
// once nothing reads it any more.
//
//lotec:noalloc
func ReleaseServed(resp *wire.MultiFetchResp) {
	for _, op := range resp.Objs {
		releasePayloads(op)
	}
}

// toWireSpans converts journal spans to their wire form.
func toWireSpans(runs []pstore.Span) []wire.Span {
	out := make([]wire.Span, len(runs))
	for i, r := range runs {
		out[i] = wire.Span{Off: uint32(r.Off), Len: uint32(r.Len)}
	}
	return out
}

// toStoreSpans converts wire spans to their journal form.
func toStoreSpans(runs []wire.Span) []pstore.Span {
	out := make([]pstore.Span, len(runs))
	for i, r := range runs {
		out[i] = pstore.Span{Off: int(r.Off), Len: int(r.Len)}
	}
	return out
}

// ServeFetch is the serving side of the gather stage: copy the requested
// pages of every object out of the local store into pooled staging buffers.
// A page whose request carries a usable base version is answered with a
// dirty-range delta when the local journal still covers that base AND the
// encoded delta is smaller than the full payload; everything else — cold
// caches, evicted journals, broken chains, deltas that would not pay —
// falls back to the full page, so the reply is correct for any requester
// state. The staged buffers are pool pages; whoever reads the reply last
// gives them back (see ReleaseServed).
func ServeFetch(store *pstore.Store, rec *stats.Recorder, req *wire.MultiFetchReq) wire.Msg {
	fullSize := wire.PagePayload{Data: make([]byte, 0)}.EncodedSize() + store.PageSize()
	resp := &wire.MultiFetchResp{Objs: make([]wire.ObjPayload, 0, len(req.Objs))}
	abort := func(out wire.ObjPayload, msg string) wire.Msg {
		ReleaseServed(resp)
		releasePayloads(out)
		return &wire.ErrResp{Msg: msg}
	}
	for _, op := range req.Objs {
		out := wire.ObjPayload{Obj: op.Obj, Pages: make([]wire.PagePayload, 0, len(op.Pages))}
		for i, p := range op.Pages {
			pid := ids.PageID{Object: op.Obj, Page: p}
			var base uint64
			if i < len(op.Bases) {
				base = op.Bases[i]
			}
			buf := pstore.GetPage(store.PageSize())
			if base > 0 {
				if runs, target, n, ok := store.DeltaSince(pid, base, buf); ok {
					dp := wire.DeltaPage{Page: p, Base: base, Version: target, Runs: toWireSpans(runs), Data: buf[:n]}
					if dp.EncodedSize() < fullSize {
						out.Deltas = append(out.Deltas, dp)
						if rec != nil {
							rec.AddDelta(dp.EncodedSize(), fullSize-dp.EncodedSize())
						}
						continue
					}
				}
				// Delta-eligible but unservable or not worth it: full page.
				if rec != nil {
					rec.AddDeltaFallback()
				}
			}
			ver, err := store.PageCopyInto(pid, buf)
			if err != nil {
				pstore.ReleasePage(buf)
				return abort(out, err.Error())
			}
			if rec != nil {
				rec.AddFullPage(fullSize)
			}
			out.Pages = append(out.Pages, wire.PagePayload{Page: p, Version: ver, Data: buf})
		}
		resp.Objs = append(resp.Objs, out)
	}
	return resp
}

// releasePayloads hands one object's staged buffers back.
//
//lotec:noalloc
func releasePayloads(op wire.ObjPayload) {
	for _, pg := range op.Pages {
		pstore.ReleasePage(pg.Data)
	}
	for _, dp := range op.Deltas {
		pstore.ReleasePage(dp.Data)
	}
}

// ApplyPush is the serving side of the push direction: install pushed
// pages that are newer than the local copies. Locally dirty pages are
// impossible at a pushee (it does not hold the lock) but are skipped
// defensively. A pushed delta lands only on a clean resident copy at
// exactly its base version; otherwise the stale copy is EVICTED — never
// silently kept — because RC trusts resident pages and only re-fetches
// absent ones, so eviction converts potential staleness into a future
// full-page fetch. Pages already at or beyond the pushed version are left
// alone (a duplicated or replayed push must not double-apply). The pushed
// buffers belong to the pusher and are not released here.
func ApplyPush(store *pstore.Store, rec *stats.Recorder, req *wire.MultiPushReq) wire.Msg {
	for _, op := range req.Objs {
		dirty := make(map[ids.PageNum]bool)
		for _, p := range store.DirtyPages(op.Obj) {
			dirty[p] = true
		}
		for _, pg := range op.Pages {
			if dirty[pg.Page] {
				continue
			}
			pid := ids.PageID{Object: op.Obj, Page: pg.Page}
			if v, ok := store.PageVersion(pid); ok && v >= pg.Version {
				continue
			}
			if err := store.InstallPage(pid, pg.Data, pg.Version); err != nil {
				return &wire.ErrResp{Msg: err.Error()}
			}
		}
		for _, dp := range op.Deltas {
			if dirty[dp.Page] {
				continue
			}
			pid := ids.PageID{Object: op.Obj, Page: dp.Page}
			if !store.HasPage(pid) {
				// Not caching this page: nothing to patch, nothing to evict.
				continue
			}
			if v, ok := store.PageVersion(pid); ok && v >= dp.Version {
				continue
			}
			err := store.ApplyDelta(pid, dp.Base, dp.Version, toStoreSpans(dp.Runs), dp.Data)
			if errors.Is(err, pstore.ErrDeltaBase) {
				store.Drop(pid)
				if rec != nil {
					rec.AddDeltaFallback()
				}
				continue
			}
			if err != nil {
				return &wire.ErrResp{Msg: err.Error()}
			}
		}
	}
	return &wire.PushResp{}
}
