package fabric

import (
	"bytes"
	"testing"
)

func TestHandleWireFormat(t *testing.T) {
	h := RMAHandle{Owner: 300, ID: 1<<40 + 17}
	enc := EncodeHandle(nil, h)
	if len(enc) != HandleLen {
		t.Fatalf("encoded handle is %d bytes, HandleLen says %d", len(enc), HandleLen)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		ok   bool
		rest []byte
	}{
		{"exact", enc, true, nil},
		{"trailing", append(enc[:HandleLen:HandleLen], 0xFF), true, []byte{0xFF}},
		{"empty", nil, false, nil},
		{"one short", enc[:HandleLen-1], false, enc[:HandleLen-1]},
	} {
		got, rest, ok := DecodeHandle(tc.in)
		if ok != tc.ok {
			t.Fatalf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if ok && got != h {
			t.Fatalf("%s: round trip got %+v, want %+v", tc.name, got, h)
		}
		if !bytes.Equal(rest, tc.rest) {
			t.Fatalf("%s: rest = %v, want %v", tc.name, rest, tc.rest)
		}
	}
}
