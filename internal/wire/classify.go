package wire

import (
	"lotec/internal/ids"
	"lotec/internal/stats"
)

// Classify maps a message onto its stats record: kind, size, and the shared
// object(s) whose consistency maintenance the message is attributed to
// (Figures 2–5 report bytes per object; Figures 6–8 report message time per
// object). From/To are left for the transport to fill in.
func Classify(m Msg) stats.MsgRecord {
	rec := stats.MsgRecord{Obj: stats.NoObject, Bytes: m.Size(), Kind: stats.KindOther, Shard: stats.NoShard}
	switch t := m.(type) {
	case *AcquireReq:
		rec.Kind, rec.Obj, rec.Shard = stats.KindLockReq, t.Obj, int(t.Shard)
	case *AcquireResp:
		rec.Kind, rec.Obj, rec.Shard = stats.KindLockReply, t.Obj, int(t.Shard)
	case *ReleaseReq:
		rec.Kind, rec.Shard = stats.KindRelease, int(t.Shard)
		objs := make([]ids.ObjectID, 0, len(t.Rels))
		overheads := make([]int, 0, len(t.Rels))
		for _, rel := range t.Rels {
			objs = append(objs, rel.Obj)
			overheads = append(overheads, 8+4+4*len(rel.Dirty))
		}
		rec.Objs, rec.Overheads = objs, overheads
	case *ReleaseResp:
		rec.Kind, rec.Shard = stats.KindReleaseReply, int(t.Shard)
		objs := make([]ids.ObjectID, 0, len(t.Stamps))
		stamps := make(map[ids.ObjectID]int, len(t.Stamps))
		for _, st := range t.Stamps {
			if _, seen := stamps[st.Obj]; !seen {
				objs = append(objs, st.Obj)
			}
			stamps[st.Obj]++
		}
		overheads := make([]int, 0, len(objs))
		for _, o := range objs {
			overheads = append(overheads, sizeStamp*stamps[o])
		}
		rec.Objs, rec.Overheads = objs, overheads
	case *Grant:
		rec.Kind, rec.Obj, rec.Shard = stats.KindGrant, t.Obj, int(t.Shard)
	case *Abort:
		rec.Kind, rec.Obj, rec.Shard = stats.KindAbort, t.Obj, int(t.Shard)
	case *Recall:
		rec.Kind, rec.Obj, rec.Shard = stats.KindRecall, t.Obj, int(t.Shard)
	case *PushResp:
		rec.Kind = stats.KindPushReply
	case *CopySetReq:
		rec.Kind = stats.KindLockReq
		rec.Objs = append([]ids.ObjectID(nil), t.Objs...)
	case *CopySetResp:
		rec.Kind = stats.KindLockReply
		objs := make([]ids.ObjectID, 0, len(t.Sets))
		overheads := make([]int, 0, len(t.Sets))
		for _, c := range t.Sets {
			objs = append(objs, c.Obj)
			overheads = append(overheads, c.size())
		}
		rec.Objs, rec.Overheads = objs, overheads
	case *MultiFetchReq:
		rec.Kind = stats.KindMultiFetchReq
		objs := make([]ids.ObjectID, 0, len(t.Objs))
		overheads := make([]int, 0, len(t.Objs))
		for _, o := range t.Objs {
			objs = append(objs, o.Obj)
			overheads = append(overheads, o.size())
		}
		rec.Objs, rec.Overheads = objs, overheads
	case *MultiFetchResp:
		rec.Kind = stats.KindMultiPageData
		rec.Objs, rec.Payloads, rec.Overheads = classifyObjPayloads(t.Objs)
		for _, pb := range rec.Payloads {
			rec.Payload += pb
		}
	case *MultiPushReq:
		rec.Kind = stats.KindMultiPush
		rec.Objs, rec.Payloads, rec.Overheads = classifyObjPayloads(t.Objs)
		for _, pb := range rec.Payloads {
			rec.Payload += pb
		}
	case *RegisterReq:
		rec.Kind, rec.Obj = stats.KindRegister, t.Obj
	case *RegisterResp:
		rec.Kind = stats.KindRegisterReply
	case *RunReq:
		rec.Kind, rec.Obj = stats.KindRun, t.Obj
	case *RunResp:
		rec.Kind = stats.KindRunReply
	case *ErrResp:
		rec.Kind = stats.KindError
	case *ReplicateReq:
		rec.Kind, rec.Shard = stats.KindReplicate, int(t.Shard)
	case *ReplicateResp:
		rec.Kind = stats.KindReplicateReply
	case *PromoteReq:
		rec.Kind = stats.KindPromote
	case *PromoteResp:
		rec.Kind = stats.KindPromoteReply
	case *EpochChangeReq:
		rec.Kind = stats.KindEpoch
	case *EpochChangeResp:
		rec.Kind = stats.KindEpochReply
	case *RouteResp:
		rec.Kind = stats.KindEpochReply
	case *HandoffStartReq:
		rec.Kind, rec.Shard = stats.KindHandoff, int(t.Shard)
	case *HandoffStartResp:
		rec.Kind = stats.KindHandoffReply
	case *HandoffReq:
		rec.Kind, rec.Shard = stats.KindHandoff, int(t.Shard)
		rec.Payload = len(t.State)
	case *HandoffResp:
		rec.Kind = stats.KindHandoffReply
	case *WaitEdgeUpdate:
		rec.Kind = stats.KindDetect
	case *WaitEdgeResp:
		rec.Kind = stats.KindDetectReply
	case *AbortFamilyReq:
		rec.Kind = stats.KindDetect
	case *AbortFamilyResp:
		rec.Kind = stats.KindDetectReply
	}
	return rec
}

// classifyObjPayloads flattens a batched payload message into the parallel
// per-object attribution lists of a stats.MsgRecord, so the paper's
// per-object byte counts (Figures 2–5) stay exact under batching. An
// object's payload is its full-page bytes plus its delta run bytes; the rest
// of its section (page numbers, versions, run offsets, length prefixes) is
// its exact framing overhead.
func classifyObjPayloads(objs []ObjPayload) ([]ids.ObjectID, []int, []int) {
	os := make([]ids.ObjectID, 0, len(objs))
	payloads := make([]int, 0, len(objs))
	overheads := make([]int, 0, len(objs))
	for _, o := range objs {
		n := 0
		for _, pg := range o.Pages {
			n += len(pg.Data)
		}
		for _, d := range o.Deltas {
			n += len(d.Data)
		}
		os = append(os, o.Obj)
		payloads = append(payloads, n)
		overheads = append(overheads, o.size()-n)
	}
	return os, payloads, overheads
}
