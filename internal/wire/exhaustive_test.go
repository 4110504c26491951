package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"lotec/internal/ids"
	"lotec/internal/stats"
)

// registeredTypes probes newMsg over the whole tag space — the codec's own
// registry is the single source of truth, so a type added to the enum but
// forgotten in newMsg shows up as a count mismatch here (and as a wiresync
// lint finding).
func registeredTypes(t *testing.T) map[MsgType]Msg {
	t.Helper()
	out := make(map[MsgType]Msg)
	for tag := 1; tag <= 255; tag++ {
		m, err := newMsg(MsgType(tag))
		if err != nil {
			continue
		}
		if m.Type() != MsgType(tag) {
			t.Errorf("newMsg(%d) returned a message reporting Type %d", tag, m.Type())
		}
		out[MsgType(tag)] = m
	}
	return out
}

// fill populates every exported field of a message with deterministic
// non-zero data so round-trips exercise real payloads.
func fill(v reflect.Value, ctr *int64) {
	next := func() int64 { *ctr++; return *ctr }
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem(), ctr)
	case reflect.Struct:
		// DeltaPage has internal validity constraints the generic filler
		// cannot satisfy (version progress, sorted non-overlapping runs
		// exactly covering the payload), so it gets a canonical value.
		if v.Type() == reflect.TypeOf(DeltaPage{}) {
			n := next()
			v.Set(reflect.ValueOf(DeltaPage{
				Page:    ids.PageNum(n),
				Base:    uint64(n + 1),
				Version: uint64(n + 2),
				Runs:    []Span{{Off: 0, Len: 2}, {Off: 8, Len: 1}},
				Data:    []byte{byte(n), byte(n + 1), byte(n + 2)},
			}))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), ctr)
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := next()
		if v.Type().Name() == "Mode" {
			n = n%2 + 1 // o2pl.Read / o2pl.Write
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(next()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s" + string(rune('a'+next()%26)))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), ctr)
		}
		v.Set(s)
	default:
		// No other kinds appear in wire messages; a new one should be
		// added here deliberately.
		panic("exhaustive_test: unhandled field kind " + v.Kind().String())
	}
}

// TestEveryRegisteredTypeRoundTripsAndClassifies is the runtime twin of the
// wiresync analyzer: every message the codec can construct must (1) encode
// to exactly Size bytes, (2) round-trip through Decode into a deep-equal
// value, (3) classify to a non-KindOther stats record, and (4) echo its
// Shard field into the record's shard attribution.
func TestEveryRegisteredTypeRoundTripsAndClassifies(t *testing.T) {
	reg := registeredTypes(t)
	// TRecall is the enum's last tag; tags 7–9 are retired holes.
	if want := int(TRecall) - 3; len(reg) != want {
		t.Fatalf("newMsg constructs %d types; the MsgType enum defines %d", len(reg), want)
	}
	for tag := MsgType(7); tag <= 9; tag++ {
		if _, live := reg[tag]; live {
			t.Errorf("retired tag %d decodes to a message again", tag)
		}
	}
	for tag, proto := range reg {
		ctr := int64(0)
		m := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(Msg)
		fill(reflect.ValueOf(m), &ctr)

		buf := Encode(Envelope{ReqID: 42, From: 1, To: 2}, m)
		if len(buf) != m.Size() {
			t.Errorf("%T: Size()=%d but encoded length=%d", m, m.Size(), len(buf))
		}
		env, back, err := Decode(buf)
		if err != nil {
			t.Errorf("%T: Decode: %v", m, err)
			continue
		}
		if env.Type != tag || env.ReqID != 42 || env.From != 1 || env.To != 2 {
			t.Errorf("%T: envelope corrupted in round-trip: %+v", m, env)
		}
		if !reflect.DeepEqual(m, back) {
			t.Errorf("%T: round-trip mismatch:\n sent %+v\n got  %+v", m, m, back)
		}

		rec := Classify(m)
		if rec.Kind == stats.KindOther {
			t.Errorf("%T: Classify degrades to KindOther — add a case in classify.go (wiresync catches this statically)", m)
		}
		if rec.Bytes != m.Size() {
			t.Errorf("%T: Classify records %d bytes, Size is %d", m, rec.Bytes, m.Size())
		}
		if shard := reflect.ValueOf(m).Elem().FieldByName("Shard"); shard.IsValid() {
			if int64(rec.Shard) != shard.Int() {
				t.Errorf("%T: Shard field %d not attributed (record has shard %d)", m, shard.Int(), rec.Shard)
			}
		}
	}
}

// TestEncodeFrameMatchesEncodeExactly pins the pooled frame path to the
// seed encoding byte for byte, over every registered message type: the
// frame's body must be identical to Encode's output, the headroom must
// hold exactly the little-endian message length, and DecodeView must
// round-trip the frame body into a message deep-equal to the copying
// decode. Any divergence means old and new binaries could not interoperate
// on one wire.
func TestEncodeFrameMatchesEncodeExactly(t *testing.T) {
	reg := registeredTypes(t)
	env := Envelope{ReqID: 99, From: 3, To: 1}
	for _, proto := range reg {
		ctr := int64(0)
		m := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(Msg)
		fill(reflect.ValueOf(m), &ctr)

		want := Encode(env, m)
		frame := EncodeFrame(env, m)
		if len(frame) != FrameHeadroom+len(want) {
			t.Errorf("%T: frame is %d bytes, want headroom %d + body %d", m, len(frame), FrameHeadroom, len(want))
		}
		if got := binary.LittleEndian.Uint32(frame); int(got) != len(want) {
			t.Errorf("%T: length prefix says %d, body is %d bytes", m, got, len(want))
		}
		if !bytes.Equal(frame[FrameHeadroom:], want) {
			t.Errorf("%T: pooled frame body differs from seed encoding", m)
		}

		venv, vm, err := DecodeView(frame[FrameHeadroom:])
		if err != nil {
			t.Errorf("%T: DecodeView: %v", m, err)
		} else {
			wantEnv := env
			wantEnv.Type = m.Type()
			if venv != wantEnv {
				t.Errorf("%T: view envelope %+v, want %+v", m, venv, wantEnv)
			}
			if !reflect.DeepEqual(m, vm) {
				t.Errorf("%T: view decode mismatch:\n sent %+v\n got  %+v", m, m, vm)
			}
			// Retain must sever every frame alias: poison the frame and the
			// retained message has to stay intact.
			Retain(vm)
			for i := range frame {
				frame[i] = 0xDB
			}
			if !reflect.DeepEqual(m, vm) {
				t.Errorf("%T: Retain left a field aliasing the frame", m)
			}
		}
		ReleaseFrame(frame)
	}
}

// TestIdempotentMessagesCarryRequestID pins the retry layer's dedup
// contract: exactly the retried request bodies — GDO acquire/release, the
// batched copy-set lookup, and the xfer fetch/push requests — implement
// Idempotent, and their stable body request ID survives a codec round-trip
// (it is the dedup key; losing it in transit would defeat duplicate
// suppression). A type added here must also get fuzz seeds in fuzz_test.go.
func TestIdempotentMessagesCarryRequestID(t *testing.T) {
	reg := registeredTypes(t)
	want := map[MsgType]bool{
		TAcquireReq:    true,
		TReleaseReq:    true,
		TCopySetReq:    true,
		TMultiFetchReq: true,
		TMultiPushReq:  true,
		// Control-plane replication requests: all retried across failover
		// and partitions, so all deduplicated by body request ID.
		TReplicateReq:    true,
		TPromoteReq:      true,
		TEpochChangeReq:  true,
		THandoffStartReq: true,
		THandoffReq:      true,
		TWaitEdgeUpdate:  true,
		TAbortFamilyReq:  true,
	}
	for tag, proto := range reg {
		im, ok := proto.(Idempotent)
		if want[tag] != ok {
			t.Errorf("type %d: Idempotent=%v, want %v — keep the retry-dedup set in sync with this test", tag, ok, want[tag])
		}
		if !ok {
			continue
		}
		if im.RequestID() != 0 {
			t.Errorf("%T: fresh message has nonzero request ID %d (0 must mean unstamped)", proto, im.RequestID())
		}
		id := 0xD00D0000 + uint64(tag)
		im.SetRequestID(id)
		if im.RequestID() != id {
			t.Errorf("%T: RequestID()=%d after SetRequestID(%d)", proto, im.RequestID(), id)
		}
		_, back, err := Decode(Encode(Envelope{ReqID: 1, From: 1, To: 2}, proto))
		if err != nil {
			t.Fatalf("%T: %v", proto, err)
		}
		if got := back.(Idempotent).RequestID(); got != id {
			t.Errorf("%T: body request ID %d drifted to %d across the codec", proto, id, got)
		}
	}
}

// TestClassifyKindsAreDistinctPerType guards against copy-paste drift: no
// two request/reply tags may collapse onto the same (Kind, direction)
// accidentally. CopySetReq/Resp intentionally share the lock-req/reply
// kinds with AcquireReq/Resp (they are priced as lock traffic), so they
// are exempted.
func TestClassifyKindsAreDistinctPerType(t *testing.T) {
	reg := registeredTypes(t)
	seen := make(map[stats.MsgKind]MsgType)
	// Control-plane pairs that deliberately share a kind: handoff control
	// (start) and payload legs are both handoff traffic, RouteResp is an
	// epoch-map reply wherever it appears, and the deadlock coordinator's
	// edge updates and abort fan-out are both detect traffic.
	shared := map[MsgType]bool{
		TCopySetReq: true, TCopySetResp: true,
		THandoffStartReq: true, THandoffStartResp: true,
		TRouteResp:      true,
		TAbortFamilyReq: true, TAbortFamilyResp: true,
	}
	for tag, proto := range reg {
		if shared[tag] {
			continue
		}
		m := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(Msg)
		kind := Classify(m).Kind
		if prev, dup := seen[kind]; dup {
			t.Errorf("types %d and %d both classify to %v", prev, tag, kind)
		}
		seen[kind] = tag
	}
}
