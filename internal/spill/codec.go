package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"qurk/internal/framelog"
	"qurk/internal/relation"
)

// Binary run codec. A run file is:
//
//	magic    "QSPL" + version byte (1)
//	header   one frame whose payload describes the schema:
//	           uvarint ncols, then per column: kind byte,
//	           uvarint len(name), name bytes
//	frames   zero or more data frames
//
// Every frame — header included — is an internal/framelog frame:
//
//	[payloadLen uint32 LE][CRC-32 (IEEE) uint32 LE][payload]
//
// A data frame's payload holds up to frameRows rows column-major:
//
//	uvarint nrows
//	per column: nrows kind bytes, then for each row whose kind takes a
//	payload (in row order):
//	  text/url  uvarint byteLen + bytes
//	  int       zigzag varint
//	  float     8 bytes LE (IEEE-754 bits)
//	  bool      1 byte (0/1)
//
// NULL and UNKNOWN carry no payload — absence is encoded purely by the
// kind tag, which is also how the columnar batches represent it.
//
// Corruption of any byte is detected by the CRC before the payload is
// parsed; parsing itself bounds every count and length by the bytes
// actually present, so a torn or hostile input yields an error, never a
// panic and never an unbounded allocation.

const (
	runMagic = "QSPL\x01"

	// frameRows caps rows per data frame; frameBytes flushes a frame
	// early when large string payloads accumulate, keeping decode
	// buffers bounded.
	frameRows  = 256
	frameBytes = 1 << 20

	// maxFramePayload bounds the decoder's buffer: a frame larger than
	// this is rejected as corrupt. The writer can only exceed it if a
	// single row carries more than 64 MiB of payload.
	maxFramePayload = 64 << 20
)

// errCorrupt wraps every decode-side integrity failure so callers (and
// the fuzz harness) can distinguish detected corruption from I/O
// errors.
var errCorrupt = errors.New("spill: corrupt run data")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// frameWriter encodes tuples into CRC-framed binary frames on w.
type frameWriter struct {
	w       io.Writer
	ncols   int
	pending []relation.Tuple
	frame   []byte // reused frame buffer: header, then payload
}

// newFrameWriter writes the magic and schema header and returns a
// writer accepting tuples.
func newFrameWriter(w io.Writer, schema *relation.Schema) (*frameWriter, error) {
	fw := &frameWriter{w: w, ncols: schema.Len()}
	if _, err := io.WriteString(w, runMagic); err != nil {
		return nil, err
	}
	p := fw.startFrame()
	p = binary.AppendUvarint(p, uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		c := schema.Column(i)
		p = append(p, byte(c.Kind))
		p = binary.AppendUvarint(p, uint64(len(c.Name)))
		p = append(p, c.Name...)
	}
	if err := fw.writeFrame(p); err != nil {
		return nil, err
	}
	return fw, nil
}

// startFrame returns the reused frame buffer holding only room for the
// header; the caller appends the payload after it.
func (fw *frameWriter) startFrame() []byte {
	return append(fw.frame[:0], make([]byte, framelog.HeaderSize)...)
}

// writeFrame frames, in place, the payload p holds after the room
// startFrame reserved, and writes the frame.
func (fw *frameWriter) writeFrame(p []byte) error {
	fw.frame = framelog.AppendFrame(p[:0], p[framelog.HeaderSize:])
	_, err := fw.w.Write(fw.frame)
	return err
}

// add stages one tuple, flushing a frame at the row or byte bound.
func (fw *frameWriter) add(t relation.Tuple) error {
	fw.pending = append(fw.pending, t)
	if len(fw.pending) >= frameRows {
		return fw.flush()
	}
	return nil
}

// flush encodes and writes the staged rows as one data frame.
func (fw *frameWriter) flush() error {
	if len(fw.pending) == 0 {
		return nil
	}
	p := fw.startFrame()
	p = binary.AppendUvarint(p, uint64(len(fw.pending)))
	for c := 0; c < fw.ncols; c++ {
		for _, t := range fw.pending {
			p = append(p, byte(t.At(c).Kind()))
		}
		for _, t := range fw.pending {
			v := t.At(c)
			switch v.Kind() {
			case relation.KindNull, relation.KindUnknown:
				// kind tag only
			case relation.KindText, relation.KindURL:
				s := v.Text()
				p = binary.AppendUvarint(p, uint64(len(s)))
				p = append(p, s...)
			case relation.KindInt:
				p = binary.AppendVarint(p, v.Int())
			case relation.KindFloat:
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v.Float()))
			case relation.KindBool:
				b := byte(0)
				if v.Bool() {
					b = 1
				}
				p = append(p, b)
			default:
				return fmt.Errorf("spill: unknown value kind %d", v.Kind())
			}
			if len(p)-framelog.HeaderSize >= frameBytes && len(fw.pending) > 1 {
				// Oversized strings: split the staged rows rather than
				// growing the frame without bound. Re-encode the first
				// half alone, then the rest.
				half := len(fw.pending) / 2
				rest := append([]relation.Tuple(nil), fw.pending[half:]...)
				fw.pending = fw.pending[:half]
				if err := fw.flush(); err != nil {
					return err
				}
				fw.pending = rest
				return fw.flush()
			}
		}
	}
	fw.pending = fw.pending[:0]
	return fw.writeFrame(p)
}

// finish flushes any staged rows. It does not close the underlying
// writer.
func (fw *frameWriter) finish() error { return fw.flush() }

// frameReader decodes a binary run stream frame by frame, handing out
// tuples backed by per-frame value arenas (never pooled, so tuples
// outlive the reader).
type frameReader struct {
	r      *bufio.Reader
	schema *relation.Schema
	ncols  int
	buf    []byte // reused frame read buffer
	rows   []relation.Tuple
	idx    int
	err    error
}

// newFrameReader validates the magic and schema header. schema is the
// expected tuple schema; the embedded header must agree on arity and
// kinds.
func newFrameReader(r io.Reader, schema *relation.Schema) (*frameReader, error) {
	fr := &frameReader{r: bufio.NewReader(r), schema: schema, ncols: schema.Len()}
	var magic [len(runMagic)]byte
	if _, err := io.ReadFull(fr.r, magic[:]); err != nil {
		return nil, corruptf("missing magic: %v", err)
	}
	if string(magic[:]) != runMagic {
		return nil, corruptf("bad magic %q", magic[:])
	}
	payload, err := fr.readFrame()
	if err != nil {
		return nil, err
	}
	if payload == nil {
		return nil, corruptf("missing schema header")
	}
	pos := 0
	ncols, n := binary.Uvarint(payload)
	if n <= 0 || ncols != uint64(fr.ncols) {
		return nil, corruptf("header declares %d columns, want %d", ncols, fr.ncols)
	}
	pos += n
	for i := 0; i < fr.ncols; i++ {
		if pos >= len(payload) {
			return nil, corruptf("truncated header at column %d", i)
		}
		kind := relation.Kind(payload[pos])
		pos++
		if kind != schema.Column(i).Kind {
			return nil, corruptf("header column %d kind %d, want %d", i, kind, schema.Column(i).Kind)
		}
		nameLen, n := binary.Uvarint(payload[pos:])
		if n <= 0 || nameLen > uint64(len(payload)-pos-n) {
			return nil, corruptf("bad column %d name length", i)
		}
		pos += n + int(nameLen)
	}
	return fr, nil
}

// readFrame reads one frame into the reused buffer. It returns
// (nil, nil) at a clean end of stream; every other failure is
// errCorrupt.
func (fr *frameReader) readFrame() ([]byte, error) {
	p, err := framelog.ReadFrame(fr.r, fr.buf, maxFramePayload)
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, corruptf("%v", err)
	}
	fr.buf = p
	return p, nil
}

// decodeFrame parses one data frame into an arena of row tuples. The
// payload is copied into one immutable string block first, so decoded
// text values are zero-copy substrings of a single allocation.
func (fr *frameReader) decodeFrame(raw []byte) ([]relation.Tuple, error) {
	p := string(raw)
	pos := 0
	nrows64, n := binary.Uvarint(raw)
	if n <= 0 {
		return nil, corruptf("bad row count")
	}
	pos += n
	// Each row costs at least one kind byte per column, so the byte
	// budget bounds the declared count before any allocation.
	if fr.ncols > 0 && nrows64 > uint64(len(p)-pos)/uint64(fr.ncols) {
		return nil, corruptf("row count %d exceeds frame bytes", nrows64)
	}
	if fr.ncols == 0 && nrows64 > frameRows {
		return nil, corruptf("row count %d for zero-column schema", nrows64)
	}
	nrows := int(nrows64)
	arena := make([]relation.Value, nrows*fr.ncols)
	for c := 0; c < fr.ncols; c++ {
		if len(p)-pos < nrows {
			return nil, corruptf("truncated kind tags in column %d", c)
		}
		kinds := p[pos : pos+nrows]
		pos += nrows
		for r := 0; r < nrows; r++ {
			k := relation.Kind(kinds[r])
			slot := &arena[r*fr.ncols+c]
			switch k {
			case relation.KindNull:
				*slot = relation.Null()
			case relation.KindUnknown:
				*slot = relation.Unknown()
			case relation.KindText, relation.KindURL:
				slen, n := binary.Uvarint(raw[pos:])
				if n <= 0 || slen > uint64(len(p)-pos-n) {
					return nil, corruptf("bad string length in column %d row %d", c, r)
				}
				pos += n
				s := p[pos : pos+int(slen)]
				pos += int(slen)
				if k == relation.KindText {
					*slot = relation.Text(s)
				} else {
					*slot = relation.URL(s)
				}
			case relation.KindInt:
				iv, n := binary.Varint(raw[pos:])
				if n <= 0 {
					return nil, corruptf("bad int in column %d row %d", c, r)
				}
				pos += n
				*slot = relation.Int(iv)
			case relation.KindFloat:
				if len(p)-pos < 8 {
					return nil, corruptf("truncated float in column %d row %d", c, r)
				}
				*slot = relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(raw[pos:])))
				pos += 8
			case relation.KindBool:
				if len(p)-pos < 1 {
					return nil, corruptf("truncated bool in column %d row %d", c, r)
				}
				*slot = relation.Bool(raw[pos] != 0)
				pos++
			default:
				return nil, corruptf("unknown value kind %d in column %d row %d", k, c, r)
			}
		}
	}
	if pos != len(p) {
		return nil, corruptf("%d trailing bytes after frame body", len(p)-pos)
	}
	return relation.RowsOver(fr.schema, arena), nil
}

// next returns the stream's next tuple, or ok=false at a clean end.
func (fr *frameReader) next() (relation.Tuple, bool, error) {
	if fr.err != nil {
		return relation.Tuple{}, false, fr.err
	}
	for fr.idx >= len(fr.rows) {
		raw, err := fr.readFrame()
		if err != nil {
			fr.err = err
			return relation.Tuple{}, false, err
		}
		if raw == nil {
			return relation.Tuple{}, false, nil
		}
		rows, err := fr.decodeFrame(raw)
		if err != nil {
			fr.err = err
			return relation.Tuple{}, false, err
		}
		fr.rows, fr.idx = rows, 0
	}
	t := fr.rows[fr.idx]
	fr.idx++
	return t, true, nil
}
