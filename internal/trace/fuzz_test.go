package trace

import (
	"bytes"
	"testing"
)

// FuzzReadBinary: arbitrary byte streams either parse into a trace whose
// re-encoding is a prefix-faithful round trip, or fail cleanly — never
// panic, never fabricate events beyond the input length.
func FuzzReadBinary(f *testing.F) {
	sample := sample()
	var buf bytes.Buffer
	if err := sample.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // clean failure
		}
		if tr.Len() != len(data)/recBytes {
			t.Fatalf("parsed %d events from %d bytes", tr.Len(), len(data))
		}
		for i, e := range tr.Events {
			if e.Kind > EvUnmap {
				t.Fatalf("event %d has unknown kind %d", i, e.Kind)
			}
		}
		var out bytes.Buffer
		if err := tr.WriteBinary(&out); err != nil {
			t.Fatal(err)
		}
		// Re-encoding must reproduce the consumed prefix except for bits
		// outside the architectural fields (kind is 1 byte, dir 1 byte —
		// both stored raw, so the round trip is exact).
		if !bytes.Equal(out.Bytes(), data[:tr.Len()*recBytes]) {
			t.Fatal("binary round trip not faithful")
		}
	})
}

// FuzzReadJSON: arbitrary text never panics the JSON trace reader.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := sample().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("{\"kind\":99}\n{bad")

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadJSON(bytes.NewReader([]byte(data)))
		if err == nil && tr == nil {
			t.Fatal("nil trace without error")
		}
	})
}
