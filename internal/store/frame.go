// Package store is a persistent, concurrent-safe, content-addressed result
// store keyed by the harness memo key (config fingerprint + bench +
// policy). It makes the harness memo cache persistent for both resumable
// sweeps (lbsweep -store) and the long-lived service (lbserve):
//
//   - records are CRC-framed in append-only segment files and fsynced on
//     commit, so an acknowledged result survives a power loss;
//   - every process appends to its own segment, so two server replicas
//     sharing one directory never interleave writes;
//   - loading tolerates a truncated tail (the writer died mid-record) and
//     corrupt interior records (skipped, with a resync scan to the next
//     frame) — damage costs re-simulation, never a failed open;
//   - DoOnce provides cross-process single-flight: a lease file per key
//     guarantees that two clients, or two replicas, never simulate the
//     same key twice.
package store

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame layout: magic(4) | payloadLen uint32 LE (4) | crc32-IEEE(payload)
// (4) | payload. The magic both delimits records and lets the scanner
// resynchronise after a corrupt region: on any header or checksum mismatch
// it slides forward to the next magic occurrence instead of giving up on
// the rest of the segment.
var frameMagic = [4]byte{0xD5, 'L', 'B', '1'}

const frameHeaderLen = 12

// appendFrame appends one framed payload to buf and returns the extended
// slice.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	copy(hdr[:4], frameMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...)
}

// frameScan is the outcome of scanning a byte range for frames.
type frameScan struct {
	// consumed is the offset just past the last cleanly parsed frame.
	// Bytes beyond it are an incomplete tail: a writer died there, or a
	// live writer has not finished its append yet — the scanner never
	// decides which, it just refuses to consume them.
	consumed int64
	// skipped counts corrupt regions (bad magic runs, checksum failures)
	// that were stepped over, each worth one load-report skip;
	// tailSkipped is the part of them that lies in the tail.
	skipped     int
	tailSkipped int
	// tail is the number of unconsumed trailing bytes.
	tail int64
}

// scanFrames walks data, invoking onRecord for every intact payload. It
// tolerates arbitrary interior corruption by resynchronising on the frame
// magic, and stops consuming at a frame whose declared payload extends past
// the end of data (the truncated-tail case).
func scanFrames(data []byte, onRecord func(payload []byte)) frameScan {
	var sc frameScan
	off := int64(0)
	n := int64(len(data))
	inCorruption := false
	consumedSkips := 0 // sc.skipped when sc.consumed last moved
	for off < n {
		// Resynchronise: find the next magic at or after off.
		if n-off < int64(len(frameMagic)) || string(data[off:off+4]) != string(frameMagic[:]) {
			if !inCorruption {
				inCorruption = true
				sc.skipped++
			}
			off++
			continue
		}
		if n-off < frameHeaderLen {
			break // header cut short: tail
		}
		plen := int64(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		sum := binary.LittleEndian.Uint32(data[off+8 : off+12])
		if off+frameHeaderLen+plen > n {
			// Declared payload runs past EOF. Either a truncated tail or a
			// corrupt length field; distinguish by whether another intact
			// frame starts later — if so this was corruption, keep scanning.
			if rest := indexMagic(data[off+4:]); rest >= 0 {
				if !inCorruption {
					inCorruption = true
					sc.skipped++
				}
				off += 4 + int64(rest)
				continue
			}
			break // genuine tail
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			if !inCorruption {
				inCorruption = true
				sc.skipped++
			}
			off++ // slide into the frame; resync finds the next magic
			continue
		}
		onRecord(payload)
		off += frameHeaderLen + plen
		sc.consumed = off
		consumedSkips = sc.skipped
		inCorruption = false
	}
	sc.tail = n - sc.consumed
	sc.tailSkipped = sc.skipped - consumedSkips
	return sc
}

// indexMagic returns the offset of the first frame-magic occurrence in b,
// or -1.
func indexMagic(b []byte) int {
	for i := 0; i+len(frameMagic) <= len(b); i++ {
		if string(b[i:i+4]) == string(frameMagic[:]) {
			return i
		}
	}
	return -1
}
