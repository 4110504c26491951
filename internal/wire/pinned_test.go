package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/encodings.txt from the current codec")

const pinnedFile = "testdata/encodings.txt"

type pinnedMsg struct {
	name string
	m    Msg
}

// pinnedMsgs lists the messages whose encodings testdata/encodings.txt
// records: every registered type's filled sample, in tag order, and
// FuzzDecode's hand-built seeds.
func pinnedMsgs(t *testing.T) []pinnedMsg {
	reg := registeredTypes(t)
	tags := make([]int, 0, len(reg))
	for tag := range reg {
		tags = append(tags, int(tag))
	}
	sort.Ints(tags)
	var out []pinnedMsg
	for _, tag := range tags {
		ctr := int64(0)
		m := reflect.New(reflect.TypeOf(reg[MsgType(tag)]).Elem()).Interface().(Msg)
		fill(reflect.ValueOf(m), &ctr)
		out = append(out, pinnedMsg{fmt.Sprintf("filled/%T", m), m})
	}
	for _, g := range []struct {
		name string
		msgs []Msg
	}{
		{"batched", batchedSeeds()},
		{"delta", deltaSeeds()},
		{"idempotent", idempotentSeeds()},
		{"replication", replicationSeeds()},
		{"commit-point", commitPointSeeds()},
		{"retention", retentionSeeds()},
	} {
		for i, m := range g.msgs {
			out = append(out, pinnedMsg{fmt.Sprintf("%s/%d/%T", g.name, i, m), m})
		}
	}
	return out
}

// TestPinnedEncodings holds the codec to the bytes it produced when the
// file was recorded: each listed message must encode to exactly its pinned
// hex, and its pinned bytes must decode (or be rejected) as recorded — a
// decoded message deep-equal to the one encoded, apart from the empty
// payloads the codec reads back as nil, and re-encoding to the same bytes.
// Regenerate with -update-pinned only for a deliberate format change.
func TestPinnedEncodings(t *testing.T) {
	env := Envelope{ReqID: 42, From: 1, To: 2}
	msgs := pinnedMsgs(t)
	if *updatePinned {
		var b strings.Builder
		for _, p := range msgs {
			buf := Encode(env, p.m)
			verdict := "ok"
			if _, _, err := Decode(buf); err != nil {
				verdict = "rejected"
			}
			fmt.Fprintf(&b, "%s %s %x\n", p.name, verdict, buf)
		}
		if err := os.MkdirAll(filepath.Dir(pinnedFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines [][]string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, strings.Fields(sc.Text()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(msgs) {
		t.Fatalf("%s pins %d messages, the test lists %d", pinnedFile, len(lines), len(msgs))
	}
	for i, p := range msgs {
		line := lines[i]
		if len(line) != 3 || line[0] != p.name {
			t.Errorf("line %d is %q, want the entry for %s", i+1, line, p.name)
			continue
		}
		want, err := hex.DecodeString(line[2])
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if got := Encode(env, p.m); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n %x\nwant pinned\n %x", p.name, got, want)
		}
		if got := Size(p.m); got != len(want) {
			t.Errorf("%s: Size %d, pinned encoding is %d bytes", p.name, got, len(want))
		}
		gotEnv, back, err := Decode(want)
		if line[1] == "rejected" {
			if err == nil {
				t.Errorf("%s: pinned bytes were rejected, now decode to %+v", p.name, back)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: pinned bytes no longer decode: %v", p.name, err)
			continue
		}
		if gotEnv.Type != p.m.Type() || gotEnv.ReqID != env.ReqID || gotEnv.From != env.From || gotEnv.To != env.To {
			t.Errorf("%s: envelope decodes to %+v", p.name, gotEnv)
		}
		if re := Encode(env, back); !bytes.Equal(re, want) {
			t.Errorf("%s: decoded message re-encodes to different bytes", p.name)
		}
		if !reflect.DeepEqual(nilEmptyBytes(p.m), back) {
			t.Errorf("%s: decodes to\n %+v\nwant\n %+v", p.name, back, p.m)
		}
	}
}

// nilEmptyBytes returns a deep copy of m with every empty non-nil []byte
// set to nil, the form the codec decodes an empty payload into.
func nilEmptyBytes(m Msg) Msg {
	v := reflect.New(reflect.TypeOf(m).Elem())
	v.Elem().Set(reflect.ValueOf(m).Elem())
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					walk(v.Field(i))
				}
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				if v.Len() == 0 && !v.IsNil() {
					v.Set(reflect.Zero(v.Type()))
				}
				return
			}
			if v.IsNil() {
				return
			}
			cp := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			reflect.Copy(cp, v)
			v.Set(cp)
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(v.Elem())
	return v.Interface().(Msg)
}
