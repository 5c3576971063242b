package engine

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeJournal feeds arbitrary bytes to the journal decoder — a
// trust boundary, since a checkpoint may come from another process or
// machine. Decoding must never panic, every refusal must wrap
// ErrBadJournal, and every accepted journal must re-encode to bytes
// that decode to an equal journal. Encode is canonical (sorted entries
// and leases, exact float bits), so two journals are equal exactly when
// they name the same run and encode to the same bytes. The committed
// corpus holds a v4 journal with an operator record, entries and
// leases.
func FuzzDecodeJournal(f *testing.F) {
	f.Add([]byte("SKMJ\x04\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJournal(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadJournal) {
				t.Fatalf("refusal does not wrap ErrBadJournal: %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := j.Encode(&first); err != nil {
			t.Fatalf("accepted journal does not re-encode: %v", err)
		}
		again, err := DecodeJournal(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v", err)
		}
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if again.run != j.run || again.Chunks() != j.Chunks() || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the journal: %+v != %+v", again.run, j.run)
		}
	})
}
