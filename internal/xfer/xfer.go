// Package xfer is the data plane of the LOTEC runtime: the transfer engine
// of Algorithm 4.5 extracted into an explicit four-stage pipeline —
// plan → batch → gather → apply — shared by every path that moves pages
// (protocol fetches in transfer, §4.3 demand fetches, and the §6 RC eager
// push), plus the serving side of both directions.
//
// The plan stage decides which pages must actually move and which peer site
// sources (or sinks) each one; the batch stage groups pages *across
// objects* by peer site into one MultiFetchReq/MultiPushReq per site; the
// gather stage issues the per-site calls with bounded concurrency through
// transport.CallGroup; the apply stage installs the received pages. Staged
// page buffers come from pstore's page pool and per-stage accounting lands in
// stats.TransferSample records.
//
// Concurrency is a wall-clock optimization only: the byte and message
// trace is identical at every FetchConcurrency for every protocol. The
// simulator enforces the invariant by construction (it issues the group
// sequentially on the virtual clock and models the k-worker overlap — see
// transport.GroupCaller); the TCP transport overlaps the calls for real.
// Consistency protocols (package core) stay pure policies: they choose
// *what* to fetch, this package only decides *how* it moves.
package xfer

import (
	"errors"
	"fmt"
	"sort"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/pstore"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// Want is one object's fetch demand: the protocol-planned pages plus the
// grant-time location metadata needed to source them.
type Want struct {
	Obj ids.ObjectID
	// Pages is the protocol's fetch plan for the object (FetchPlan output
	// or the §4.3 demand-miss set).
	Pages []ids.PageNum
	// PageMap is the grant-time page map: PageMap[p] locates page p's
	// newest committed copy.
	PageMap []gdo.PageLoc
	// Single, when not ids.NoNode, is the one site holding a complete
	// current copy (COTEC/OTEC's last updater); ids.NoNode scatters the
	// gather to each page's newest location (LOTEC, demand fetches).
	Single ids.NodeID
	// VersionAware lets the plan skip pages whose resident version already
	// matches the map (OTEC/LOTEC/RC); COTEC re-transfers regardless.
	VersionAware bool
	// Delta lets the plan piggyback each requester-cached page's version on
	// the fetch request, inviting the serving side to answer with dirty-range
	// deltas (core.Protocol.DeltaEligible; COTEC stays version-blind).
	Delta bool
}

// Engine executes transfers for one site.
type Engine struct {
	Env   transport.Env
	Store *pstore.Store
	Rec   *stats.Recorder // may be nil
	// Concurrency bounds the in-flight per-site calls of one gather or
	// push fan-out (Options.FetchConcurrency); <= 1 means serial.
	Concurrency int
	// DeltaOff disables sub-page delta transfers entirely (the -delta=off
	// escape hatch): no base versions are piggybacked on fetches and pushes
	// stage only full pages, so the wire traffic is byte-identical to the
	// pre-delta data plane.
	DeltaOff bool
}

// sourcePlan is the batch stage's unit: the pages one peer site must
// provide, grouped per object.
type sourcePlan struct {
	site ids.NodeID
	objs []wire.ObjPages
}

// Fetch runs the gather direction of the pipeline for the given wants:
// plan which pages must move, batch them by source site across objects,
// pull each site's batch under the concurrency bound, and install the
// received pages. demand marks §4.3 demand fetches (counted per batched
// source-site request, as serial per-source fetches were).
func (e *Engine) Fetch(wants []Want, demand bool) error {
	t0 := e.Env.Now()
	plans, err := e.planFetch(wants)
	if err != nil {
		return err
	}
	if len(plans) == 0 {
		return nil
	}
	calls := make([]transport.GroupCall, 0, len(plans))
	for _, sp := range plans {
		calls = append(calls, transport.GroupCall{
			To:  sp.site,
			Msg: &wire.MultiFetchReq{Demand: demand, Objs: sp.objs},
		})
		if demand && e.Rec != nil {
			e.Rec.AddDemandFetch()
		}
	}
	t1 := e.Env.Now()

	results, span := transport.CallGroup(e.Env, calls, e.Concurrency)

	t2 := e.Env.Now()
	pages, bytes, deltaPages, deltaBytes, err := e.applyFetch(calls, results)
	if err != nil {
		return err
	}
	if e.Rec != nil {
		e.Rec.AddTransfer(stats.TransferSample{
			Kind:       stats.TransferFetch,
			Batches:    len(calls),
			Pages:      pages,
			Bytes:      bytes,
			DeltaPages: deltaPages,
			DeltaBytes: deltaBytes,
			Plan:       t1 - t0,
			Gather:     span,
			Apply:      e.Env.Now() - t2,
		})
	}
	return nil
}

// planFetch is the plan + batch stages: filter each want's pages down to
// the ones that must move, resolve each page's source site, and group the
// survivors by source across objects (sites ascending, objects in want
// order, pages in plan order — the batch layout is part of the
// deterministic trace).
func (e *Engine) planFetch(wants []Want) ([]sourcePlan, error) {
	self := e.Env.Self()
	type key struct {
		site ids.NodeID
		obj  ids.ObjectID
	}
	pagesAt := make(map[key][]ids.PageNum)
	basesAt := make(map[key][]uint64)
	objsAt := make(map[ids.NodeID][]ids.ObjectID)
	var sites []ids.NodeID
	for _, w := range wants {
		scatter := w.Single == ids.NoNode
		if !scatter && w.Single == self {
			// This site performed the last update: it already holds a
			// complete current copy; nothing to pull.
			continue
		}
		delta := w.Delta && !e.DeltaOff
		dirtyLocal := make(map[ids.PageNum]bool)
		for _, p := range e.Store.DirtyPages(w.Obj) {
			dirtyLocal[p] = true
		}
		for _, p := range w.Pages {
			if int(p) >= len(w.PageMap) {
				return nil, fmt.Errorf("xfer: fetch plan page %v/p%d outside page map", w.Obj, p)
			}
			loc := w.PageMap[p]
			if loc.Node == self || dirtyLocal[p] {
				continue
			}
			// Skip pages already at (or beyond) the mapped version: another
			// transaction of this family may have fetched them already.
			// COTEC has no version tracking and re-transfers regardless.
			if w.VersionAware {
				if v, ok := e.Store.PageVersion(ids.PageID{Object: w.Obj, Page: p}); ok && v >= loc.Version {
					continue
				}
			}
			src := loc.Node
			if !scatter {
				src = w.Single
			}
			k := key{site: src, obj: w.Obj}
			if _, seen := pagesAt[k]; !seen {
				if _, seenSite := objsAt[src]; !seenSite {
					sites = append(sites, src)
				}
				objsAt[src] = append(objsAt[src], w.Obj)
			}
			pagesAt[k] = append(pagesAt[k], p)
			if delta {
				// Piggyback the resident copy's version as the delta base
				// (0 = no usable copy → the server must send a full page).
				var base uint64
				if v, ok := e.Store.PageVersion(ids.PageID{Object: w.Obj, Page: p}); ok && v > 0 && v < loc.Version {
					base = v
				}
				basesAt[k] = append(basesAt[k], base)
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	plans := make([]sourcePlan, 0, len(sites))
	for _, site := range sites {
		objs := objsAt[site]
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		sp := sourcePlan{site: site}
		for _, obj := range objs {
			k := key{site: site, obj: obj}
			bases := basesAt[k]
			allZero := true
			for _, b := range bases {
				if b != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				// No usable base anywhere: omit the section so the request
				// encodes byte-identically to the pre-delta format.
				bases = nil
			}
			sp.objs = append(sp.objs, wire.ObjPages{Obj: obj, Pages: pagesAt[k], Bases: bases})
		}
		plans = append(plans, sp)
	}
	return plans, nil
}

// applyFetch installs the gathered pages, skipping any a concurrent
// transfer already brought to the mapped version, and returns pooled
// staging buffers. Deltas patch the resident copy in place; a delta whose
// base no longer matches (a concurrent transfer moved the copy to an
// intermediate version) is re-fetched as a full page — one bounded,
// base-free follow-up per page, so a fetch can never stall on a delta. It
// reports the pages and payload bytes moved, and the delta subset of both.
func (e *Engine) applyFetch(calls []transport.GroupCall, results []transport.GroupResult) (pages, bytes, deltaPages, deltaBytes int, err error) {
	type miss struct {
		src  ids.NodeID
		obj  ids.ObjectID
		page ids.PageNum
	}
	var misses []miss
	for i, r := range results {
		src := calls[i].To
		if r.Err != nil {
			return 0, 0, 0, 0, fmt.Errorf("fetch from %v: %w", src, r.Err)
		}
		resp, ok := r.Reply.(*wire.MultiFetchResp)
		if !ok {
			return 0, 0, 0, 0, fmt.Errorf("fetch from %v: unexpected reply %T", src, r.Reply)
		}
		for _, op := range resp.Objs {
			for _, pg := range op.Pages {
				pages++
				bytes += len(pg.Data)
				pid := ids.PageID{Object: op.Obj, Page: pg.Page}
				if v, ok := e.Store.PageVersion(pid); ok && v >= pg.Version {
					pstore.ReleasePage(pg.Data)
					continue
				}
				if err := e.Store.InstallPage(pid, pg.Data, pg.Version); err != nil {
					return 0, 0, 0, 0, fmt.Errorf("install %v: %w", pid, err)
				}
				pstore.ReleasePage(pg.Data)
			}
			for _, dp := range op.Deltas {
				pages++
				bytes += len(dp.Data)
				deltaPages++
				deltaBytes += len(dp.Data)
				pid := ids.PageID{Object: op.Obj, Page: dp.Page}
				if v, ok := e.Store.PageVersion(pid); ok && v >= dp.Version {
					pstore.ReleasePage(dp.Data)
					continue
				}
				applyErr := e.Store.ApplyDelta(pid, dp.Base, dp.Version, toStoreSpans(dp.Runs), dp.Data)
				pstore.ReleasePage(dp.Data)
				if applyErr == nil {
					continue
				}
				if !errors.Is(applyErr, pstore.ErrDeltaBase) {
					return 0, 0, 0, 0, fmt.Errorf("apply delta %v: %w", pid, applyErr)
				}
				misses = append(misses, miss{src: src, obj: op.Obj, page: dp.Page})
			}
		}
	}
	for _, ms := range misses {
		if e.Rec != nil {
			e.Rec.AddDeltaFallback()
		}
		pid := ids.PageID{Object: ms.obj, Page: ms.page}
		reply, callErr := e.Env.Call(ms.src, &wire.MultiFetchReq{Objs: []wire.ObjPages{{Obj: ms.obj, Pages: []ids.PageNum{ms.page}}}})
		if callErr != nil {
			return 0, 0, 0, 0, fmt.Errorf("refetch %v from %v: %w", pid, ms.src, callErr)
		}
		resp, ok := reply.(*wire.MultiFetchResp)
		if !ok {
			return 0, 0, 0, 0, fmt.Errorf("refetch %v from %v: unexpected reply %T", pid, ms.src, reply)
		}
		for _, op := range resp.Objs {
			for _, pg := range op.Pages {
				pages++
				bytes += len(pg.Data)
				rpid := ids.PageID{Object: op.Obj, Page: pg.Page}
				if v, ok := e.Store.PageVersion(rpid); ok && v >= pg.Version {
					pstore.ReleasePage(pg.Data)
					continue
				}
				if err := e.Store.InstallPage(rpid, pg.Data, pg.Version); err != nil {
					return 0, 0, 0, 0, fmt.Errorf("install %v: %w", rpid, err)
				}
				pstore.ReleasePage(pg.Data)
			}
		}
	}
	return pages, bytes, deltaPages, deltaBytes, nil
}

// Push runs the scatter direction of the pipeline (the §6 RC extension):
// look up the copy set of every dirty object — batched into one CopySetReq
// per GDO home site — stage each object's dirty pages once, batch the
// payloads by destination site across objects, and push each site's batch
// acknowledged under the concurrency bound. homeFn maps an object to its
// GDO home. With delta set (the protocol is delta-eligible and deltas are
// on), each page is staged as its newest journal epoch's dirty ranges when
// that beats the full page; a pushee not at the delta's base evicts its
// stale copy (see ApplyPush).
func (e *Engine) Push(objs []ids.ObjectID, dirty map[ids.ObjectID][]ids.PageNum, homeFn func(ids.ObjectID) ids.NodeID, delta bool) error {
	t0 := e.Env.Now()
	var withPages []ids.ObjectID
	for _, obj := range objs {
		if len(dirty[obj]) > 0 {
			withPages = append(withPages, obj)
		}
	}
	if len(withPages) == 0 {
		return nil
	}
	copySets, err := e.copySets(withPages, homeFn)
	if err != nil {
		return err
	}

	// Stage each dirty page once; the buffer is shared by every
	// destination's message and released only after the whole group
	// completes.
	var staged [][]byte
	defer func() {
		for _, buf := range staged {
			pstore.ReleasePage(buf)
		}
	}()
	delta = delta && !e.DeltaOff
	fullSize := wire.PagePayload{}.EncodedSize() + e.Store.PageSize()
	payloads := make(map[ids.ObjectID][]wire.PagePayload, len(withPages))
	deltas := make(map[ids.ObjectID][]wire.DeltaPage)
	for _, obj := range withPages {
		for _, p := range dirty[obj] {
			pid := ids.PageID{Object: obj, Page: p}
			buf := pstore.GetPage(e.Store.PageSize())
			if delta {
				// restampDirty sealed this commit's dirty ranges as the
				// newest epoch (version-1 → version) just before this push.
				if ver, ok := e.Store.PageVersion(pid); ok && ver > 0 {
					if runs, target, n, ok := e.Store.DeltaSince(pid, ver-1, buf); ok && target == ver {
						dp := wire.DeltaPage{Page: p, Base: ver - 1, Version: target, Runs: toWireSpans(runs), Data: buf[:n]}
						if dp.EncodedSize() < fullSize {
							staged = append(staged, buf)
							deltas[obj] = append(deltas[obj], dp)
							if e.Rec != nil {
								e.Rec.AddDelta(dp.EncodedSize(), fullSize-dp.EncodedSize())
							}
							continue
						}
					}
					if e.Rec != nil {
						e.Rec.AddDeltaFallback()
					}
				}
			}
			// restampDirty already advanced the version to what the GDO
			// will assign at the release that follows.
			ver, err := e.Store.PageCopyInto(pid, buf)
			if err != nil {
				pstore.ReleasePage(buf)
				return err
			}
			if delta && e.Rec != nil {
				e.Rec.AddFullPage(fullSize)
			}
			staged = append(staged, buf)
			payloads[obj] = append(payloads[obj], wire.PagePayload{Page: p, Version: ver, Data: buf})
		}
	}

	// Batch by destination site across objects (sites ascending, objects
	// in caller order — commitRoot passes them sorted).
	self := e.Env.Self()
	byDest := make(map[ids.NodeID][]wire.ObjPayload)
	var dests []ids.NodeID
	for _, obj := range withPages {
		for _, site := range copySets[obj] {
			if site == self {
				continue
			}
			if _, seen := byDest[site]; !seen {
				dests = append(dests, site)
			}
			byDest[site] = append(byDest[site], wire.ObjPayload{Obj: obj, Pages: payloads[obj], Deltas: deltas[obj]})
		}
	}
	if len(dests) == 0 {
		return nil
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	calls := make([]transport.GroupCall, 0, len(dests))
	pages, bytes, deltaPages, deltaBytes := 0, 0, 0, 0
	for _, site := range dests {
		for _, op := range byDest[site] {
			pages += len(op.Pages) + len(op.Deltas)
			for _, pg := range op.Pages {
				bytes += len(pg.Data)
			}
			for _, dp := range op.Deltas {
				bytes += len(dp.Data)
				deltaPages++
				deltaBytes += len(dp.Data)
			}
		}
		calls = append(calls, transport.GroupCall{To: site, Msg: &wire.MultiPushReq{Objs: byDest[site]}})
	}
	t1 := e.Env.Now()

	results, span := transport.CallGroup(e.Env, calls, e.Concurrency)
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("push to %v: %w", calls[i].To, r.Err)
		}
	}
	if e.Rec != nil {
		e.Rec.AddTransfer(stats.TransferSample{
			Kind:       stats.TransferPush,
			Batches:    len(calls),
			Pages:      pages,
			Bytes:      bytes,
			DeltaPages: deltaPages,
			DeltaBytes: deltaBytes,
			Plan:       t1 - t0,
			Gather:     span,
			Apply:      0, // installs happen at the receiving sites
		})
	}
	return nil
}

// copySets fetches the caching sites of every object, one batched
// CopySetReq per GDO home site (homes ascending).
func (e *Engine) copySets(objs []ids.ObjectID, homeFn func(ids.ObjectID) ids.NodeID) (map[ids.ObjectID][]ids.NodeID, error) {
	byHome := make(map[ids.NodeID][]ids.ObjectID)
	var homes []ids.NodeID
	for _, obj := range objs {
		home := homeFn(obj)
		if _, seen := byHome[home]; !seen {
			homes = append(homes, home)
		}
		byHome[home] = append(byHome[home], obj)
	}
	sort.Slice(homes, func(i, j int) bool { return homes[i] < homes[j] })
	out := make(map[ids.ObjectID][]ids.NodeID, len(objs))
	for _, home := range homes {
		reply, err := e.Env.Call(home, &wire.CopySetReq{Objs: byHome[home]})
		if err != nil {
			return nil, err
		}
		cs, ok := reply.(*wire.CopySetResp)
		if !ok {
			return nil, fmt.Errorf("copyset from %v: unexpected reply %T", home, reply)
		}
		for _, set := range cs.Sets {
			out[set.Obj] = set.Sites
		}
	}
	return out, nil
}
