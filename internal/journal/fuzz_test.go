package journal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the journal decoder, mirroring the
// catalog fuzz harness: Replay must never panic, every record it recovers
// must be structurally sound, and on any prefix of a valid journal it must
// recover a prefix of the original records.
func FuzzReplay(f *testing.F) {
	j, err := Create(filepath.Join(f.TempDir(), "seed.journal"))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := j.Append([]float64{float64(i) / 20, 0.25, 0.75}, float64(i*i)); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	valid, err := os.ReadFile(j.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, cut, err := Replay(bytes.NewReader(data))
		if err != nil {
			return
		}
		if cut < 0 || cut > int64(len(data)) {
			t.Fatalf("truncated byte count %d outside stream of %d bytes", cut, len(data))
		}
		consumed := headerSize
		for _, r := range recs {
			if len(r.Point) == 0 || len(r.Point) > MaxDims {
				t.Fatalf("recovered record with %d dims", len(r.Point))
			}
			consumed += recordSize(len(r.Point))
		}
		if consumed+int(cut) != len(data) {
			t.Fatalf("accounting: %d consumed + %d cut != %d stream bytes", consumed, cut, len(data))
		}
		// Any recovered float must round-trip through a fresh journal: the
		// decoder and encoder agree on the format.
		if len(recs) > 0 {
			j2, err := Create(filepath.Join(t.TempDir(), "rt.journal"))
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			for _, r := range recs {
				finite := !math.IsNaN(r.Value) && !math.IsInf(r.Value, 0)
				if err := j2.Append(r.Point, r.Value); err != nil && finite {
					t.Fatalf("re-appending recovered record: %v", err)
				}
			}
		}
	})
}

// FuzzTailFollow feeds arbitrary bytes to the incremental tail decoder in
// arbitrary fragmentation: it must never panic, and the records it emits
// must be exactly what Replay recovers from the whole stream at once —
// fragmentation never changes the decoded prefix, and truncated or
// duplicated frames and flipped bits cost records, never correctness.
func FuzzTailFollow(f *testing.F) {
	j, err := Create(filepath.Join(f.TempDir(), "seed.journal"))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := j.Append([]float64{float64(i) / 12, 0.5}, float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	valid, err := os.ReadFile(j.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint8(7))
	f.Add(valid[:len(valid)-3], uint8(1))
	f.Add(append(append([]byte{}, valid...), valid[headerSize:]...), uint8(16))
	f.Add([]byte{}, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		step := int(chunk)%64 + 1
		var dec TailDecoder
		var got []Record
		for off := 0; off < len(data); off += step {
			end := off + step
			if end > len(data) {
				end = len(data)
			}
			dec.Feed(data[off:end])
			for {
				rec, err := dec.Next()
				if err != nil {
					if err == ErrNoRecord {
						break
					}
					// Permanent header error: nothing more ever comes out.
					if _, err2 := dec.Next(); err2 == nil {
						t.Fatal("decoder emitted a record after a permanent error")
					}
					return
				}
				if len(rec.Point) == 0 || len(rec.Point) > MaxDims {
					t.Fatalf("tail decoder emitted a record with %d dims", len(rec.Point))
				}
				got = append(got, rec)
			}
		}
		want, _, err := Replay(bytes.NewReader(data))
		if err != nil {
			// Replay rejected the stream outright (bad header); the tail
			// decoder must not have produced records from it either.
			if len(got) != 0 {
				t.Fatalf("tail decoder emitted %d records from a stream Replay rejects", len(got))
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("tail decoder emitted %d records, Replay %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Value != want[i].Value && !(math.IsNaN(got[i].Value) && math.IsNaN(want[i].Value)) {
				t.Fatalf("record %d value: tail %v, replay %v", i, got[i].Value, want[i].Value)
			}
			if len(got[i].Point) != len(want[i].Point) {
				t.Fatalf("record %d dims: tail %d, replay %d", i, len(got[i].Point), len(want[i].Point))
			}
			for d := range got[i].Point {
				if got[i].Point[d] != want[i].Point[d] && !(math.IsNaN(got[i].Point[d]) && math.IsNaN(want[i].Point[d])) {
					t.Fatalf("record %d dim %d: tail %v, replay %v", i, d, got[i].Point[d], want[i].Point[d])
				}
			}
		}
	})
}
