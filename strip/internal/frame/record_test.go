package frame

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestBatchRoundTrip decodes what AppendBatch encodes, and the pair
// lists both counts carry.
func TestBatchRoundTrip(t *testing.T) {
	kvs := []KeyValue{{Key: "last-price", Value: 1.6612}, {Key: "", Value: -3}}
	b, err := AppendBatch(nil, 8, kvs)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(b)
	if kind, seq, got := d.U8(), d.U64(), d.Pairs32(); kind != KindBatch || seq != 8 || !reflect.DeepEqual(got, kvs) {
		t.Fatalf("batch decodes to kind %d seq %d pairs %v", kind, seq, got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	b, err = AppendPairs16(nil, kvs)
	if err != nil {
		t.Fatal(err)
	}
	d = NewDecoder(b)
	if got := d.Pairs16(); !reflect.DeepEqual(got, kvs) || d.Finish() != nil {
		t.Fatalf("Pairs16 = %v, %v", got, d.Finish())
	}
	d = NewDecoder([]byte{0, 0, 0, 0})
	if got := d.Pairs32(); got != nil || d.Finish() != nil {
		t.Fatalf("empty list = %#v, %v; want nil", got, d.Finish())
	}
}

// TestPairsRejects covers the encoder's limits and a count the payload
// cannot hold.
func TestPairsRejects(t *testing.T) {
	if _, err := AppendPairs16(nil, make([]KeyValue, math.MaxUint16+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("AppendPairs16 over the u16 count: %v", err)
	}
	if _, err := AppendBatch(nil, 1, []KeyValue{{Key: strings.Repeat("k", math.MaxUint16+1)}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("AppendBatch with an oversized key: %v", err)
	}
	d := NewDecoder([]byte{0, 0, 0, 2, 0, 0})
	if got := d.Pairs32(); got != nil || !errors.Is(d.Finish(), ErrMalformed) {
		t.Errorf("absurd count = %v, %v; want ErrMalformed", got, d.Finish())
	}
}

// TestBatchFits splits a pair list at the record cap: each chunk it
// returns encodes within MaxRecord, the next pair would not fit, and a
// pair too big for any record still comes back alone.
func TestBatchFits(t *testing.T) {
	pad := strings.Repeat("x", 60000)
	kvs := make([]KeyValue, 300) // ≈ 18 MB of keys: three records
	for i := range kvs {
		kvs[i] = KeyValue{Key: pad, Value: float64(i)}
	}
	records := 0
	for rest := kvs; len(rest) > 0; records++ {
		n := BatchFits(rest)
		b, err := AppendBatch(nil, 0, rest[:n])
		if err != nil || len(b) > MaxRecord {
			t.Fatalf("chunk of %d pairs: %d bytes, %v", n, len(b), err)
		}
		if n < len(rest) {
			if b, _ := AppendBatch(nil, 0, rest[:n+1]); len(b) <= MaxRecord {
				t.Fatalf("chunk of %d pairs stops short: one more pair still fits (%d bytes)", n, len(b))
			}
		}
		rest = rest[n:]
	}
	if records != 3 {
		t.Errorf("%d records, want 3", records)
	}
	if n := BatchFits([]KeyValue{{Key: strings.Repeat("k", MaxRecord)}}); n != 1 {
		t.Errorf("BatchFits of one oversized pair = %d, want 1", n)
	}
	if n := BatchFits(nil); n != 0 {
		t.Errorf("BatchFits(nil) = %d", n)
	}
}
