// Package recfile is the framing of the repository's binary state files:
// a checked prologue, then a declared number of length-prefixed,
// checksummed blocks. It owns the framing only — what a payload means is
// the caller's (internal/deltascan's spill is the one user today).
//
//	prologue  magic   [8]byte    the caller's format tag and version
//	          blocks  uint32 LE  number of blocks that follow
//	          crc     uint32 LE  CRC-32C of magic‖blocks
//	block     len     uint32 LE  payload length, at most MaxBlock
//	          crc     uint32 LE  CRC-32C of len‖payload
//	          payload [len]byte
//
// The stream ends with the last declared block: no trailer, no
// compression, no option. Short of a CRC collision a reader detects every
// way a file goes bad — a flipped bit (a CRC fails), a cut inside a block
// (short read), a cut at a block boundary (fewer blocks than declared),
// appended bytes (data after the last block) — as an error wrapping
// ErrCorrupt. A stream that does not start with the expected magic is
// ErrUnsupported instead, so "not ours, or another version" and "ours,
// damaged" stay apart.
package recfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxBlock is the hard cap on a block's payload length: Write refuses a
// larger block and Read rejects a larger declared length unread.
const MaxBlock = 1 << 26

var (
	// ErrCorrupt is wrapped by every error that means "the right magic,
	// but the bytes are damaged or incomplete".
	ErrCorrupt = errors.New("recfile: corrupt file")
	// ErrUnsupported means the stream does not begin with the magic asked
	// for: another format, or another version of this one.
	ErrUnsupported = errors.New("recfile: unsupported format or version")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Corruptf returns an error wrapping ErrCorrupt, for callers whose
// payload decoding finds a verified block that still makes no sense.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// blockCRC is the checksum of a block: its length field, then its payload.
func blockCRC(lenField, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenField, castagnoli), castagnoli, payload)
}

// Write writes a file of exactly blocks blocks. block(i, buf) returns the
// i-th payload, appended to buf[:0] if it wants to reuse the last one's
// memory.
func Write(w io.Writer, magic [8]byte, blocks int, block func(i int, buf []byte) []byte) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	hdr := binary.LittleEndian.AppendUint32(magic[:], uint32(blocks))
	bw.Write(binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli)))
	var buf []byte
	for i := 0; i < blocks; i++ {
		buf = block(i, buf[:0])
		if len(buf) > MaxBlock {
			return fmt.Errorf("recfile: block %d is %d bytes, over the %d-byte cap", i, len(buf), MaxBlock)
		}
		hdr = binary.LittleEndian.AppendUint32(hdr[:0], uint32(len(buf)))
		bw.Write(binary.LittleEndian.AppendUint32(hdr, blockCRC(hdr, buf)))
		bw.Write(buf)
	}
	return bw.Flush() // a bufio.Writer keeps its first write error for Flush
}

// Read reads one file from a plain io.Reader (no Seek) and calls block
// with each verified payload in turn, valid until block returns, and with
// the checked number of blocks the file declares. It stops at block's
// first error. Nothing is sized from an unverified number: the block
// count is only counted down, and a payload's buffer grows with the bytes
// that actually arrive, so a length that lies costs a short read, not an
// allocation.
func Read(r io.Reader, magic [8]byte, block func(i, blocks int, payload []byte) error) error {
	br := bufio.NewReaderSize(r, 32<<10)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:8]); err != nil {
		return truncated(err, "magic")
	}
	if [8]byte(hdr[:8]) != magic {
		return fmt.Errorf("%w: magic %q, want %q", ErrUnsupported, hdr[:8], magic[:])
	}
	if _, err := io.ReadFull(br, hdr[8:]); err != nil {
		return truncated(err, "prologue")
	}
	if crc32.Checksum(hdr[:12], castagnoli) != binary.LittleEndian.Uint32(hdr[12:]) {
		return Corruptf("prologue checksum mismatch")
	}
	blocks := int(binary.LittleEndian.Uint32(hdr[8:]))
	var buf bytes.Buffer
	for i := 0; i < blocks; i++ {
		if _, err := io.ReadFull(br, hdr[:8]); err != nil {
			return truncated(err, "block header")
		}
		n := int(binary.LittleEndian.Uint32(hdr[:4]))
		if n > MaxBlock {
			return Corruptf("block %d declares %d bytes, over the %d-byte cap", i, n, MaxBlock)
		}
		// The buffer grows with the bytes that arrive, not to n up front.
		buf.Reset()
		if _, err := io.CopyN(&buf, br, int64(n)); err != nil {
			return truncated(err, "block payload")
		}
		if blockCRC(hdr[:4], buf.Bytes()) != binary.LittleEndian.Uint32(hdr[4:]) {
			return Corruptf("block %d checksum mismatch", i)
		}
		if err := block(i, blocks, buf.Bytes()); err != nil {
			return err
		}
	}
	if _, err := br.ReadByte(); err == nil {
		return Corruptf("data after the last declared block")
	} else if err != io.EOF {
		return fmt.Errorf("recfile: read: %w", err)
	}
	return nil
}

// truncated maps a short read to ErrCorrupt and passes a real I/O error
// through.
func truncated(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return Corruptf("truncated %s", what)
	}
	return fmt.Errorf("recfile: read %s: %w", what, err)
}
