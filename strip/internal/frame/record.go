package frame

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Record kinds: the first payload byte of every record the strip logs
// hold — the replication stream and the write-ahead log (segments and
// checkpoint snapshots). One block, so no two records share a byte.
const (
	// KindUpdate is one installed view update (stream only).
	KindUpdate byte = 1
	// KindBatch is one committed general-data write batch: a stream
	// frame, a WAL segment's commit record, a chunk of a checkpoint
	// snapshot.
	KindBatch byte = 2
	// KindSnapshot is a replica bootstrap snapshot (stream only).
	KindSnapshot byte = 3
	// KindSegment opens a WAL segment: kind gen:u64.
	KindSegment byte = 4
	// KindCheckpoint opens a checkpoint snapshot file: kind gen:u64,
	// the first segment generation the snapshot does not cover.
	KindCheckpoint byte = 5
)

// MaxRecord caps a record payload of the strip logs. Update and batch
// records are tiny; the cap bounds bootstrap snapshots and is the
// readers' defense against a corrupt or hostile length prefix.
const MaxRecord = 8 << 20

// KeyValue is one key/value pair: a view field, a general-data write.
type KeyValue struct {
	Key   string
	Value float64
}

// MinPairBytes is the smallest encoded pair (empty key + value), used
// to reject absurd pair counts before allocating.
const MinPairBytes = 2 + 8

// batchHeadBytes is a batch payload's size before its pairs.
const batchHeadBytes = 1 + 8 + 4

// AppendBatch appends a batch record's payload to b:
//
//	kind=2 seq:u64 n:u32 pair*    pair = key:str value:f64
//
// The replication stream and the WAL both encode batches with it, so a
// committed batch has one byte form wherever it is kept.
func AppendBatch(b []byte, seq uint64, kvs []KeyValue) ([]byte, error) {
	b = append(b, KindBatch)
	b = binary.BigEndian.AppendUint64(b, seq)
	return AppendPairs32(b, kvs)
}

// BatchFits returns how many of kvs's leading pairs one batch record
// carries within MaxRecord: all of them when they fit, and at least
// one, so a pair no record can carry reaches the encoder's error.
func BatchFits(kvs []KeyValue) int {
	size := batchHeadBytes
	for i, kv := range kvs {
		if size += MinPairBytes + len(kv.Key); size > MaxRecord {
			return max(i, 1)
		}
	}
	return len(kvs)
}

// AppendPairs16 appends a uint16-counted pair list.
func AppendPairs16(b []byte, kvs []KeyValue) ([]byte, error) {
	if len(kvs) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d pairs", ErrTooLarge, len(kvs))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(kvs)))
	return appendPairList(b, kvs)
}

// AppendPairs32 appends a uint32-counted pair list.
func AppendPairs32(b []byte, kvs []KeyValue) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, uint32(len(kvs)))
	return appendPairList(b, kvs)
}

func appendPairList(b []byte, kvs []KeyValue) ([]byte, error) {
	var err error
	for _, kv := range kvs {
		if b, err = AppendString(b, kv.Key); err != nil {
			return nil, err
		}
		b = AppendF64(b, kv.Value)
	}
	return b, nil
}

// Pairs16 reads a uint16-counted pair list; nil when empty.
func (d *Decoder) Pairs16() []KeyValue { return d.pairs(d.Count16(MinPairBytes)) }

// Pairs32 reads a uint32-counted pair list; nil when empty.
func (d *Decoder) Pairs32() []KeyValue { return d.pairs(d.Count32(MinPairBytes)) }

func (d *Decoder) pairs(n int) []KeyValue {
	if n == 0 {
		return nil
	}
	out := make([]KeyValue, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, KeyValue{Key: d.Str(), Value: d.F64()})
	}
	return out
}
