package wire

import (
	"errors"
	"reflect"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/stats"
)

// shardSamples returns the six shard-addressed message types with nonzero
// Shard values, so a codec that drops the field cannot round-trip them.
func shardSamples() []Msg {
	return []Msg{
		&AcquireReq{Obj: 7, Ref: ids.TxRef{Tx: 9, Node: 2}, Family: 9, Age: 9, Site: 2,
			Mode: o2pl.Write, Shard: 3},
		&AcquireResp{Obj: 7, Status: gdo.Queued, Mode: o2pl.Read, NumPages: 3, LastWriter: 2,
			Shard: 5, PageMap: []gdo.PageLoc{{Node: 1, Version: 4}}},
		&ReleaseReq{Family: 3, Site: 1, Commit: true, Shard: 2, Rels: []gdo.ObjectRelease{
			{Obj: 1, Dirty: []ids.PageNum{0, 2}}, {Obj: 2}}},
		&ReleaseResp{Shard: 7, Stamps: []gdo.PageStamp{{Obj: 1, Page: 2, Version: 5}}},
		&Grant{Obj: 4, Family: 8, Mode: o2pl.Write, Upgrade: true, NumPages: 5, LastWriter: 3,
			Shard:   6,
			Reqs:    []gdo.QueuedReq{{Ref: ids.TxRef{Tx: 11, Node: 3}, Mode: o2pl.Read}},
			PageMap: []gdo.PageLoc{{Node: 3, Version: 2}}},
		&Abort{Obj: 4, Family: 8, Shard: 1,
			Reqs: []gdo.QueuedReq{{Ref: ids.TxRef{Tx: 11, Node: 3}, Mode: o2pl.Write}}},
	}
}

func TestShardRoundTrip(t *testing.T) {
	for _, m := range shardSamples() {
		buf := Encode(Envelope{ReqID: 7, From: 2, To: 9}, m)
		if got, want := len(buf), Size(m); got != want {
			t.Errorf("%T: encoded length %d, Size() %d", m, got, want)
		}
		_, got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: Decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

// TestShardClassify checks that directory-addressed messages carry their
// shard into the stats record and that non-directory traffic is marked
// NoShard.
func TestShardClassify(t *testing.T) {
	for _, m := range shardSamples() {
		rec := Classify(m)
		var want int
		switch t := m.(type) {
		case *AcquireReq:
			want = int(t.Shard)
		case *AcquireResp:
			want = int(t.Shard)
		case *ReleaseReq:
			want = int(t.Shard)
		case *ReleaseResp:
			want = int(t.Shard)
		case *Grant:
			want = int(t.Shard)
		case *Abort:
			want = int(t.Shard)
		}
		if rec.Shard != want {
			t.Errorf("%T: Classify shard = %d, want %d", m, rec.Shard, want)
		}
	}
	for _, m := range []Msg{
		&MultiFetchReq{}, &MultiFetchResp{}, &MultiPushReq{}, &PushResp{},
		&RunReq{Obj: 1}, &ErrResp{Msg: "x"},
	} {
		if rec := Classify(m); rec.Shard != stats.NoShard {
			t.Errorf("%T: Classify shard = %d, want NoShard", m, rec.Shard)
		}
	}
}

// TestShardDecodeMalformed mirrors robust_test.go for the shard-addressed
// frames: truncations and single-byte corruptions must error or decode,
// never panic, and truncating the shard field itself must be detected.
func TestShardDecodeMalformed(t *testing.T) {
	for _, m := range shardSamples() {
		base := Encode(Envelope{ReqID: 3, From: 1, To: 2}, m)
		for n := 0; n < len(base); n++ {
			if _, _, err := Decode(base[:n]); err == nil {
				t.Errorf("%T: truncation to %d of %d decoded cleanly", m, n, len(base))
			}
		}
		for i := 0; i < len(base); i++ {
			for _, delta := range []byte{1, 0x80, 0xFF} {
				buf := append([]byte(nil), base...)
				buf[i] ^= delta
				_, _, _ = Decode(buf) // must not panic
			}
		}
	}
	// A frame from the old (shard-less) layout is 4 bytes short: decoding
	// must fail rather than misread fields.
	req := &AcquireReq{Obj: 1, Ref: ids.TxRef{Tx: 2, Node: 1}, Family: 2, Age: 2, Site: 1, Mode: o2pl.Read}
	buf := Encode(Envelope{}, req)
	short := append([]byte(nil), buf[:len(buf)-4]...)
	// Patch the envelope's body length to match the truncated body.
	short[17] -= 4
	if _, _, err := Decode(short); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("shard-less AcquireReq frame: err = %v, want ErrShortBuffer", err)
	}
}
