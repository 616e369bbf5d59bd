// Package framelog owns the one record framing every durable file in
// qurk uses: the write-ahead journal (internal/wal), the cross-query
// answer store (internal/answerstore), the observed-statistics store
// (internal/obstats), and — for the frame codec alone — the spill run
// files (internal/spill).
//
// A frame is a fixed 8-byte header — uint32 little-endian payload
// length, then uint32 little-endian CRC-32 (IEEE) of the payload —
// followed by the payload. A Log is a file of frames: Open replays
// every complete frame through a caller-supplied decoder and truncates
// a torn tail (a partial header, a short payload, an impossible length
// or a CRC mismatch left by a crash mid-append), and Append writes one
// frame with a single write and fsyncs it before returning.
//
// A crash can only tear the tail, so replay fails rather than truncate
// on the two things a crash cannot produce: an I/O error while reading,
// and a frame whose CRC checks out but whose payload the decoder
// rejects. Open then returns the error and leaves the file untouched.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderSize is the byte length of a frame header.
const HeaderSize = 8

// maxRecord bounds one Log record's payload; a longer length prefix is
// read as tail corruption rather than an allocation request.
const maxRecord = 1 << 28 // 256 MiB

var (
	// ErrTorn reports input that ends inside a frame.
	ErrTorn = errors.New("framelog: torn frame")
	// ErrCorrupt reports a frame whose length is zero or over the
	// reader's limit, or whose payload fails its CRC.
	ErrCorrupt = errors.New("framelog: corrupt frame")
)

// AppendFrame appends the frame of payload to dst and returns the
// extended slice. payload may already sit at dst[len(dst)+HeaderSize:]
// — encoded after room reserved for the header — and is then framed in
// place without a copy.
func AppendFrame(dst, payload []byte) []byte {
	sum := crc32.ChecksumIEEE(payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	return append(dst, payload...)
}

// ReadFrame reads the next frame from r into buf, reusing its capacity,
// and returns the payload. At a clean end of input it returns io.EOF;
// input ending inside a frame yields ErrTorn; a zero length, a length
// over limit or a CRC mismatch yields ErrCorrupt; any other read error
// is returned as is.
func ReadFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, tornOr(err)
	}
	n, sum := int64(binary.LittleEndian.Uint32(hdr[0:4])), binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > int64(limit) {
		return nil, fmt.Errorf("%w: length %d", ErrCorrupt, n)
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, tornOr(err)
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return buf, nil
}

// tornOr maps a short read to ErrTorn, passing io.EOF and I/O errors
// through.
func tornOr(err error) error {
	if err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %v", ErrTorn, err)
	}
	return err
}

// file is the part of *os.File a Log uses.
type file interface {
	io.ReadWriteSeeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is an append-only file of frames. It does no locking: its owner
// serializes Append and Close, under the same mutex that orders the
// in-memory update a record describes.
type Log struct {
	f   file
	buf []byte // frame buffer reused by Append
}

// Open opens the log at path with os.O_RDWR|flag — os.O_CREATE creates
// a missing file, os.O_CREATE|os.O_EXCL insists on a new one — replays
// each complete frame's payload through decode in file order,
// truncates a torn tail, and positions the file for appending. decode
// must not retain the payload; an error from it fails Open.
func Open(path string, flag int, decode func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, err
	}
	l, err := open(f, decode)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// open replays f from its start; see Open.
func open(f file, decode func([]byte) error) (*Log, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if size == 0 {
		return &Log{f: f}, nil // a new file: nothing to replay
	}
	r := bufio.NewReader(f)
	var off int64
	var buf []byte
	for off < size {
		// A length running past the end of the file is a torn tail;
		// bounding it by the bytes left also bounds the allocation.
		p, err := ReadFrame(r, buf, int(min(maxRecord, size-off-HeaderSize)))
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read at offset %d: %w", off, err)
		}
		if err := decode(p); err != nil {
			return nil, fmt.Errorf("record at offset %d: %w", off, err)
		}
		off += HeaderSize + int64(len(p))
		buf = p
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return nil, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes payload as one frame with a single write and fsyncs it
// before returning.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxRecord {
		return fmt.Errorf("framelog: cannot frame a %d-byte record", len(payload))
	}
	l.buf = AppendFrame(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("framelog: write: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("framelog: fsync: %w", err)
	}
	return nil
}

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }
