package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// memFile is an in-memory file with injectable faults: Read fails with
// readErr once the offset reaches readErrAt, and Write and Sync fail
// with writeErr and syncErr.
type memFile struct {
	data      []byte
	off       int64
	readErr   error
	readErrAt int64
	writeErr  error
	syncErr   error
	truncates int
}

func (m *memFile) Read(p []byte) (int, error) {
	end := int64(len(m.data))
	if m.readErr != nil {
		if m.off >= m.readErrAt {
			return 0, m.readErr
		}
		end = min(end, m.readErrAt)
	}
	if m.off >= end {
		return 0, io.EOF
	}
	n := copy(p, m.data[m.off:end])
	m.off += int64(n)
	return n, nil
}

func (m *memFile) Write(p []byte) (int, error) {
	if m.writeErr != nil {
		return 0, m.writeErr
	}
	m.data = append(m.data[:m.off], p...)
	m.off += int64(len(p))
	return len(p), nil
}

func (m *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		m.off = off
	case io.SeekCurrent:
		m.off += off
	case io.SeekEnd:
		m.off = int64(len(m.data)) + off
	}
	return m.off, nil
}

func (m *memFile) Sync() error { return m.syncErr }

func (m *memFile) Truncate(size int64) error {
	m.data = m.data[:size]
	m.truncates++
	return nil
}

func (m *memFile) Close() error { return nil }

// replay opens a Log over m from its start, collecting copies of the
// replayed payloads; decode rejects any payload equal to reject.
func replay(m *memFile, reject string) ([]string, error) {
	m.off = 0
	var recs []string
	_, err := open(m, func(p []byte) error {
		if string(p) == reject {
			return errors.New("undecodable")
		}
		recs = append(recs, string(p))
		return nil
	})
	return recs, err
}

func framesOf(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = AppendFrame(b, []byte(p))
	}
	return b
}

// TestReplayTornTails is the one torn-tail suite every framed file in
// the repo relies on: what Open keeps, what it truncates, and what it
// refuses to touch.
func TestReplayTornTails(t *testing.T) {
	valid := framesOf("alpha", "beta", "gamma")
	b1 := HeaderSize + len("alpha")
	b2 := b1 + HeaderSize + len("beta")
	edit := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	ab, abc := []string{"alpha", "beta"}, []string{"alpha", "beta", "gamma"}
	cases := []struct {
		name      string
		data      []byte
		readErrAt int64 // read fails with EIO from here; 0 = never
		reject    string
		want      []string
		wantSize  int
		wantErr   error // Open fails, leaving the file untouched
	}{
		{name: "clean", data: valid, want: abc, wantSize: len(valid)},
		{name: "empty", data: nil, want: nil, wantSize: 0},
		{name: "partial header", data: valid[:b2+3], want: ab, wantSize: b2},
		{name: "short payload", data: valid[:b2+HeaderSize+2], want: ab, wantSize: b2},
		{name: "CRC mismatch", data: edit(func(b []byte) []byte { b[b2+HeaderSize+1] ^= 0xff; return b }), want: ab, wantSize: b2},
		{name: "zero length", data: edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[b2:], 0); return b }), want: ab, wantSize: b2},
		{name: "oversized length", data: edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[b2:], 0xffffffff); return b }), want: ab, wantSize: b2},
		{name: "complete records before the tear survive", data: append(edit(func(b []byte) []byte { return b }), 1, 2, 3), want: abc, wantSize: len(valid)},
		{name: "EIO on read", data: valid, readErrAt: int64(b1 + 4), wantErr: syscall.EIO},
		{name: "CRC-valid but undecodable record", data: valid, reject: "beta", wantErr: errors.New("undecodable")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &memFile{data: append([]byte(nil), tc.data...)}
			if tc.readErrAt > 0 {
				m.readErr, m.readErrAt = syscall.EIO, tc.readErrAt
			}
			got, err := replay(m, tc.reject)
			if tc.wantErr != nil {
				if err == nil || (errors.Is(tc.wantErr, syscall.EIO) && !errors.Is(err, syscall.EIO)) {
					t.Fatalf("Open error = %v, want %v", err, tc.wantErr)
				}
				if m.truncates != 0 || !bytes.Equal(m.data, tc.data) {
					t.Fatal("failed Open modified the file")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) || len(m.data) != tc.wantSize {
				t.Fatalf("replayed %q into %d bytes, want %q into %d", got, len(m.data), tc.want, tc.wantSize)
			}
			if wantTrunc := tc.wantSize < len(tc.data); (m.truncates > 0) != wantTrunc {
				t.Fatalf("truncated %d times, want truncation %v", m.truncates, wantTrunc)
			}
			// Reopening after truncation is idempotent.
			again, err := replay(m, "")
			if err != nil || !reflect.DeepEqual(again, got) || len(m.data) != tc.wantSize || m.truncates > 1 {
				t.Fatalf("reopen replayed %q (%v) into %d bytes after %d truncations", again, err, len(m.data), m.truncates)
			}
		})
	}
}

func TestReadFrameErrors(t *testing.T) {
	valid := framesOf("payload")
	flipped := append([]byte(nil), valid...)
	flipped[HeaderSize] ^= 1
	for _, tc := range []struct {
		name string
		r    io.Reader
		want error
	}{
		{"clean end", bytes.NewReader(nil), io.EOF},
		{"partial header", bytes.NewReader(valid[:3]), ErrTorn},
		{"short payload", bytes.NewReader(valid[:HeaderSize+2]), ErrTorn},
		{"header only", bytes.NewReader(valid[:HeaderSize]), ErrTorn},
		{"CRC mismatch", bytes.NewReader(flipped), ErrCorrupt},
		{"over limit", bytes.NewReader(framesOf("much too long")), ErrCorrupt},
		{"I/O error", &memFile{data: valid, readErr: syscall.EIO, readErrAt: 2}, syscall.EIO},
	} {
		if _, err := ReadFrame(tc.r, nil, len("payload")); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	r := bytes.NewReader(framesOf("one", "two"))
	buf := make([]byte, 0, 64)
	for _, want := range []string{"one", "two"} {
		p, err := ReadFrame(r, buf, 64)
		if err != nil || string(p) != want {
			t.Fatalf("ReadFrame = %q, %v; want %q", p, err, want)
		}
		if &p[0] != &buf[:1][0] {
			t.Fatal("ReadFrame allocated despite a large enough buffer")
		}
	}
}

func TestAppendFrameInPlace(t *testing.T) {
	// Payload encoded after reserved header room frames without a copy
	// and yields the same bytes as framing a separate payload.
	buf := append(make([]byte, HeaderSize, 64), "payload"...)
	framed := AppendFrame(buf[:0], buf[HeaderSize:])
	if &framed[0] != &buf[0] || !bytes.Equal(framed, framesOf("payload")) {
		t.Fatalf("in-place frame = %x, want %x", framed, framesOf("payload"))
	}
}

func TestLogAppendAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, os.O_CREATE|os.O_EXCL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"first", "second"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(nil); err == nil {
		t.Error("an empty record must be refused: replay would read it as corruption")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, os.O_CREATE|os.O_EXCL, nil); !errors.Is(err, os.ErrExist) {
		t.Fatalf("exclusive create over an existing log: err = %v", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), 0, nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open without create of a missing log: err = %v", err)
	}
	var got []string
	l, err = Open(path, 0, func(p []byte) error { got = append(got, string(p)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("third")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "second"}; !reflect.DeepEqual(got, want) || !bytes.Equal(data, framesOf("first", "second", "third")) {
		t.Fatalf("replayed %q, file %x", got, data)
	}
	// A decode failure on a real file fails Open and names the file.
	_, err = Open(path, 0, func([]byte) error { return errors.New("bad record") })
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(path)) {
		t.Fatalf("Open with failing decode: err = %v", err)
	}
}

func TestAppendSurfacesWriteAndSyncErrors(t *testing.T) {
	for _, m := range []*memFile{{writeErr: syscall.ENOSPC}, {syncErr: syscall.EIO}} {
		l := &Log{f: m}
		if err := l.Append([]byte("x")); err == nil || !(errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO)) {
			t.Errorf("Append over %+v: err = %v", m, err)
		}
	}
}

// FuzzFrameReplay: for arbitrary bytes, Open never panics, keeps
// exactly the longest prefix of valid frames (so the truncation offset
// is a frame boundary), and reopening the result is a no-op.
func FuzzFrameReplay(f *testing.F) {
	valid := framesOf("alpha", "beta", "gamma")
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &memFile{data: append([]byte(nil), data...)}
		got, err := replay(m, "")
		if err != nil {
			t.Fatalf("Open failed without an I/O or decode error: %v", err)
		}
		want, end := validPrefix(data)
		if len(m.data) != end || !reflect.DeepEqual(got, want) {
			t.Fatalf("kept %d bytes / %d records, want frame boundary %d / %d records", len(m.data), len(got), end, len(want))
		}
		truncates := m.truncates
		again, err := replay(m, "")
		if err != nil || !reflect.DeepEqual(again, got) || len(m.data) != end || m.truncates != truncates {
			t.Fatalf("reopen was not a no-op: %q, %v, %d bytes", again, err, len(m.data))
		}
	})
}

// validPrefix walks data frame by frame, independently of ReadFrame,
// and returns the payloads of the longest valid prefix and its length.
func validPrefix(data []byte) (payloads []string, end int) {
	for len(data)-end >= HeaderSize {
		n := int(binary.LittleEndian.Uint32(data[end:]))
		if n == 0 || n > len(data)-end-HeaderSize {
			break
		}
		p := data[end+HeaderSize : end+HeaderSize+n]
		if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[end+4:]) {
			break
		}
		payloads = append(payloads, string(p))
		end += HeaderSize + n
	}
	return payloads, end
}
