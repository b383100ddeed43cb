// Package wal implements a segmented, CRC-checked, append-only redo log
// with group commit. The engine (package sqldb) frames each transaction's
// records itself as its statements run, between Begin and Commit marker
// records, and hands the writer the transaction as one byte slice; a single
// writer goroutine coalesces concurrent commits into one
// fsync, amortizing durability cost across committers (the classic group
// commit optimization).
//
// Record layout (little-endian):
//
//	crc    uint32  — IEEE CRC32 over everything after the length field
//	length uint32  — payload length in bytes
//	type   uint8
//	txn    int64
//	payload
//
// Recovery streams segments in order and replays only transactions whose
// Commit record is present and intact, stopping cleanly at the first torn
// or corrupt record: a crash mid-append can never surface a partial
// transaction.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Type tags a record. Values below TypeClient are reserved for the log's
// own transaction framing; the embedding engine defines its payload record
// types from TypeClient up and the log treats their payloads as opaque.
type Type uint8

// Reserved framing types.
const (
	TypeBegin  Type = 1
	TypeCommit Type = 2
	// TypeClient is the first type value available to the embedding engine.
	TypeClient Type = 16
)

// Record is one log record.
type Record struct {
	Type    Type
	Txn     int64
	Payload []byte
}

const (
	// headerSize is crc(4) + length(4) + type(1) + txn(8).
	headerSize = 17
	// HeaderSize is the bytes a record takes before its payload: all of a
	// Begin or Commit record.
	HeaderSize = headerSize
	// MaxRecordBytes bounds a single record's payload; a length field
	// above it is treated as corruption, not an allocation request.
	MaxRecordBytes = 16 << 20
)

// Decode errors. Both mean "stop replaying here"; they are distinguished so
// tests can assert the torn-tail classification.
var (
	// ErrShortRecord reports a stream ending mid-record (torn tail).
	ErrShortRecord = errors.New("wal: short record")
	// ErrCorruptRecord reports a CRC mismatch or an insane length field.
	ErrCorruptRecord = errors.New("wal: corrupt record")
)

// AppendRecord appends r's encoding to dst and returns the extended slice.
func AppendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(BeginRecord(dst, r.Type, r.Txn), r.Payload...)
	EndRecord(dst[start:])
	return dst
}

// BeginRecord appends the header of a record of type typ for txn to dst. The
// caller appends the payload after it and then seals the record with
// EndRecord, so a payload can be encoded in place, inside its record.
func BeginRecord(dst []byte, typ Type, txn int64) []byte {
	var h [headerSize]byte
	h[8] = byte(typ)
	binary.LittleEndian.PutUint64(h[9:17], uint64(txn))
	return append(dst, h[:]...)
}

// EndRecord seals rec, a record as BeginRecord started it followed by its
// whole payload: it fills in the payload length and the checksum.
func EndRecord(rec []byte) {
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(rec)-headerSize))
	binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(rec[8:]))
}

// DecodeRecord parses one record from the front of b, returning the record
// and the number of bytes it occupied. ErrShortRecord means b ends
// mid-record; ErrCorruptRecord means the bytes present fail validation.
// The returned payload aliases b.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, ErrShortRecord
	}
	plen := binary.LittleEndian.Uint32(b[4:8])
	if plen > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorruptRecord, plen)
	}
	total := headerSize + int(plen)
	if len(b) < total {
		return Record{}, 0, ErrShortRecord
	}
	if crc32.ChecksumIEEE(b[8:total]) != binary.LittleEndian.Uint32(b[0:4]) {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorruptRecord)
	}
	return Record{
		Type:    Type(b[8]),
		Txn:     int64(binary.LittleEndian.Uint64(b[9:17])),
		Payload: b[headerSize:total],
	}, total, nil
}

// Segment is one log file.
type Segment struct {
	Seq  uint64
	Path string
}

// SegmentName renders the file name for a segment sequence number.
func SegmentName(seq uint64) string { return fmt.Sprintf("%016d.wal", seq) }

// ListSegments returns the segments in dir in ascending sequence order.
// Files that do not parse as segment names are ignored.
func ListSegments(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []Segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "%d.wal", &seq); n != 1 || err != nil {
			continue
		}
		segs = append(segs, Segment{Seq: seq, Path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// FileStats reports what ReadFile found in one record stream.
type FileStats struct {
	Records int
	Bytes   int64
	// Torn reports the stream ended mid-record or failed a CRC; the bytes
	// counted are the clean prefix before the tear.
	Torn bool
}

// ReadFile decodes the record stream in one file, calling fn per intact
// record. A torn or corrupt tail sets stats.Torn and stops the read without
// error; an fn error aborts the read and is returned.
func ReadFile(path string, fn func(Record) error) (FileStats, error) {
	var stats FileStats
	data, err := os.ReadFile(path)
	if err != nil {
		return stats, err
	}
	off := 0
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			stats.Torn = true
			return stats, nil
		}
		if err := fn(rec); err != nil {
			return stats, err
		}
		off += n
		stats.Records++
		stats.Bytes = int64(off)
	}
	return stats, nil
}

// ReplayStats reports what a recovery pass found.
type ReplayStats struct {
	// Segments is the number of segment files examined (after the
	// afterSeq watermark).
	Segments int
	// LastSeq is the highest segment sequence seen on disk, including
	// segments skipped by the watermark (0 when the directory is empty).
	LastSeq uint64
	// Records counts intact records decoded; Txns counts committed
	// transactions delivered to fn.
	Records int
	Txns    int
	// Uncommitted counts transactions with records in the clean prefix
	// but no commit record — discarded, by design.
	Uncommitted int
	// MaxTxn is the highest transaction id seen in any intact record.
	MaxTxn int64
	// TornTail reports the replay stopped at a torn or corrupt record.
	TornTail bool
}

// ReplayCommitted replays every fully committed transaction in dir's
// segments, in log order, skipping segments at or below afterSeq (the
// snapshot watermark). fn receives the transaction's payload records in
// append order. Replay stops cleanly at the first torn or corrupt record;
// when repair is true the torn segment is truncated to its clean prefix and
// any later segments are removed, so subsequent appends extend a consistent
// log.
func ReplayCommitted(dir string, afterSeq uint64, repair bool, fn func(txn int64, recs []Record) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := ListSegments(dir)
	if err != nil {
		return stats, err
	}
	pending := make(map[int64][]Record)
	for i, seg := range segs {
		if seg.Seq > stats.LastSeq {
			stats.LastSeq = seg.Seq
		}
		if seg.Seq <= afterSeq {
			continue
		}
		stats.Segments++
		fstats, err := ReadFile(seg.Path, func(rec Record) error {
			stats.Records++
			if rec.Txn > stats.MaxTxn {
				stats.MaxTxn = rec.Txn
			}
			switch rec.Type {
			case TypeBegin:
				pending[rec.Txn] = nil
			case TypeCommit:
				recs := pending[rec.Txn]
				delete(pending, rec.Txn)
				stats.Txns++
				return fn(rec.Txn, recs)
			default:
				// Payload aliases the file buffer; copy so fn-retained
				// records survive the next segment read.
				cp := Record{Type: rec.Type, Txn: rec.Txn, Payload: append([]byte(nil), rec.Payload...)}
				pending[rec.Txn] = append(pending[rec.Txn], cp)
			}
			return nil
		})
		if err != nil {
			return stats, err
		}
		if fstats.Torn {
			stats.TornTail = true
			if repair {
				if err := os.Truncate(seg.Path, fstats.Bytes); err != nil {
					return stats, fmt.Errorf("wal: truncating torn segment %s: %w", seg.Path, err)
				}
				for _, later := range segs[i+1:] {
					if err := os.Remove(later.Path); err != nil {
						return stats, fmt.Errorf("wal: removing post-tear segment %s: %w", later.Path, err)
					}
				}
			}
			break
		}
	}
	stats.Uncommitted = len(pending)
	return stats, nil
}
