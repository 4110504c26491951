package stats

import (
	"sync"
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/netmodel"
)

func TestMsgKindStrings(t *testing.T) {
	kinds := []MsgKind{KindLockReq, KindLockReply, KindGrant, KindRelease,
		KindReleaseReply, KindPushReply, KindAbort,
		KindRegister, KindRun, KindRunReply, KindError, KindOther,
		KindMultiFetchReq, KindMultiPageData, KindMultiPush}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad string %q", int(k), s)
		}
		seen[s] = true
	}
}

func TestIsData(t *testing.T) {
	if !KindMultiPageData.IsData() || !KindMultiPush.IsData() {
		t.Error("payload kinds must be data")
	}
	if KindLockReq.IsData() || KindGrant.IsData() || KindPushReply.IsData() || KindMultiFetchReq.IsData() {
		t.Error("control kinds must not be data")
	}
}

func TestPerObjectAggregation(t *testing.T) {
	r := NewRecorder()
	r.Record(MsgRecord{From: 1, To: 2, Obj: 5, Kind: KindLockReq, Bytes: 100})
	r.Record(MsgRecord{From: 2, To: 1, Obj: 5, Kind: KindMultiPageData, Bytes: 4100, Payload: 4000})
	r.Record(MsgRecord{From: 1, To: 2, Obj: 6, Kind: KindLockReq, Bytes: 50})

	s5 := r.Object(5)
	if s5.Msgs != 2 || s5.ControlBytes != 200 || s5.DataBytes != 4000 {
		t.Errorf("obj5 = %+v", s5)
	}
	if s5.TotalBytes() != 4200 {
		t.Errorf("TotalBytes = %d", s5.TotalBytes())
	}
	s6 := r.Object(6)
	if s6.Msgs != 1 || s6.ControlBytes != 50 {
		t.Errorf("obj6 = %+v", s6)
	}
	objs := r.Objects()
	if len(objs) != 2 || objs[0] != 5 || objs[1] != 6 {
		t.Errorf("Objects = %v", objs)
	}
}

func TestMultiObjectAttribution(t *testing.T) {
	r := NewRecorder()
	r.Record(MsgRecord{From: 1, To: 2, Obj: NoObject, Objs: []ids.ObjectID{1, 2}, Kind: KindRelease, Bytes: 200})
	per := r.PerObject()
	if per[1].ControlBytes != 100 || per[2].ControlBytes != 100 {
		t.Errorf("shared attribution = %+v", per)
	}
	if per[1].Msgs != 1 || per[2].Msgs != 1 {
		t.Errorf("msg counts = %+v", per)
	}
	// Totals count the message once.
	tot := r.Totals()
	if tot.Msgs != 1 || tot.ControlBytes != 200 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestNoObjectWithoutObjsIgnoredPerObject(t *testing.T) {
	r := NewRecorder()
	r.Record(MsgRecord{From: 1, To: 2, Obj: NoObject, Kind: KindOther, Bytes: 10})
	if len(r.PerObject()) != 0 {
		t.Error("orphan record should not appear per-object")
	}
	if r.Totals().Msgs != 1 {
		t.Error("orphan record must still count in totals")
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.AddLocalLockOp()
				r.AddGlobalLockOp()
				r.AddDemandFetch()
				r.AddAbort()
				r.AddRetry()
				r.AddCommit()
			}
		}()
	}
	wg.Wait()
	c := r.Counters()
	if c.LocalLockOps != 800 || c.GlobalLockOps != 800 || c.DemandFetches != 800 ||
		c.Aborts != 800 || c.Retries != 800 || c.Commits != 800 {
		t.Errorf("counters = %+v", c)
	}
}

func TestTraceCopy(t *testing.T) {
	r := NewRecorder()
	r.Record(MsgRecord{From: 1, To: 2, Obj: 1, Kind: KindGrant, Bytes: 10})
	tr := r.Trace()
	tr[0].Bytes = 999
	if r.Trace()[0].Bytes != 10 {
		t.Error("Trace aliased internal storage")
	}
	if r.MsgCount() != 1 {
		t.Errorf("MsgCount = %d", r.MsgCount())
	}
}

func TestTransferTime(t *testing.T) {
	r := NewRecorder()
	r.Record(MsgRecord{From: 1, To: 2, Obj: 5, Kind: KindLockReq, Bytes: 0})
	r.Record(MsgRecord{From: 2, To: 1, Obj: 5, Kind: KindMultiPageData, Bytes: 1000, Payload: 900})
	r.Record(MsgRecord{From: 2, To: 1, Obj: 6, Kind: KindMultiPageData, Bytes: 1000, Payload: 900})

	p := netmodel.Params{Name: "t", BandwidthBps: 8e6, SoftwareCost: 10 * time.Microsecond}
	// obj5: 2 msgs → 2×10µs software + 1000B×8/8Mbps = 1ms wire.
	got := r.TransferTime(5, p)
	want := 20*time.Microsecond + time.Millisecond
	if got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	// Total: 3 msgs, 2000 data bytes.
	gotTotal := r.TotalTime(p)
	wantTotal := 30*time.Microsecond + 2*time.Millisecond
	if gotTotal != wantTotal {
		t.Errorf("TotalTime = %v, want %v", gotTotal, wantTotal)
	}
}

func TestTransferTimeSharedMessageSplitsBytes(t *testing.T) {
	r := NewRecorder()
	r.Record(MsgRecord{From: 1, To: 2, Obj: NoObject, Objs: []ids.ObjectID{1, 2}, Kind: KindRelease, Bytes: 2000})
	p := netmodel.Params{Name: "t", BandwidthBps: 8e6, SoftwareCost: 0}
	// Each object is charged half the bytes: 1000B → 1ms.
	if got := r.TransferTime(1, p); got != time.Millisecond {
		t.Errorf("TransferTime(1) = %v", got)
	}
}

// TestBatchedOverheadAttribution pins the exact-framing split for batched
// messages: with Overheads recorded (parallel to Objs), each object is
// charged its own section framing exactly, and only the residual shared
// bytes (envelope + top-level fields) divide evenly. Delta-bearing batches
// made this necessary — their per-object framing varies with the run lists,
// so the historical even split would smear one object's run-list bytes over
// its batchmates.
func TestBatchedOverheadAttribution(t *testing.T) {
	r := NewRecorder()
	// 100 B message: 30 B payload (20+10), sections frame 12 B and 8 B,
	// leaving 50 B shared → 25 B each.
	r.Record(MsgRecord{
		From: 1, To: 2, Obj: NoObject, Kind: KindMultiPageData,
		Objs:      []ids.ObjectID{1, 2},
		Payloads:  []int{20, 10},
		Overheads: []int{12, 8},
		Bytes:     100,
		Payload:   30,
	})
	per := r.PerObject()
	if got := per[1]; got.DataBytes != 20 || got.ControlBytes != 12+25 {
		t.Errorf("object 1 = %+v, want data 20, control 37", got)
	}
	if got := per[2]; got.DataBytes != 10 || got.ControlBytes != 8+25 {
		t.Errorf("object 2 = %+v, want data 10, control 33", got)
	}
	// Conservation: per-object shares sum back to the full message.
	if sum := per[1].TotalBytes() + per[2].TotalBytes(); sum != 100 {
		t.Errorf("attribution lost bytes: %d of 100", sum)
	}
	tot := r.Totals()
	if tot.Msgs != 1 || tot.DataBytes != 30 || tot.ControlBytes != 70 {
		t.Errorf("totals = %+v", tot)
	}
}

// TestBatchedOverheadFallbackEvenSplit pins the historical approximation:
// without Overheads, all non-payload bytes divide evenly — unchanged
// behavior for every message type that never grew per-object framing.
func TestBatchedOverheadFallbackEvenSplit(t *testing.T) {
	r := NewRecorder()
	r.Record(MsgRecord{
		From: 1, To: 2, Obj: NoObject, Kind: KindMultiPush,
		Objs:     []ids.ObjectID{4, 5, 6},
		Payloads: []int{9, 0, 3},
		Bytes:    90,
		Payload:  12,
	})
	per := r.PerObject()
	for _, o := range []ids.ObjectID{4, 5, 6} {
		if got := per[o].ControlBytes; got != 26 {
			t.Errorf("object %d control = %d, want even split 26", o, got)
		}
	}
	if per[4].DataBytes != 9 || per[5].DataBytes != 0 || per[6].DataBytes != 3 {
		t.Errorf("payload attribution = %+v", per)
	}
}
