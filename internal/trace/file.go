package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"shhc/internal/fingerprint"
)

// Trace file format:
//
//	magic "SHTR" (4) | version uint16 | nameLen uint16 | name |
//	chunkSize uint32 | count uint64 | count * 20-byte fingerprints
const (
	fileMagic   = "SHTR"
	fileVersion = 1
)

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Writer streams fingerprints into a trace file.
type Writer struct {
	f     *os.File
	bw    *bufio.Writer
	count uint64
	// countOff is the file offset of the count field, patched on Close.
	countOff int64
}

// NewWriter creates a trace file. name and chunkSize are recorded in the
// header for the reader.
func NewWriter(path, name string, chunkSize int) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<20)}

	nameBytes := []byte(name)
	if len(nameBytes) > 65535 {
		nameBytes = nameBytes[:65535]
	}
	hdr := make([]byte, 0, 4+2+2+len(nameBytes)+4+8)
	hdr = append(hdr, fileMagic...)
	hdr = binary.BigEndian.AppendUint16(hdr, fileVersion)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(nameBytes)))
	hdr = append(hdr, nameBytes...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(chunkSize))
	w.countOff = int64(len(hdr))
	hdr = binary.BigEndian.AppendUint64(hdr, 0) // count patched on Close
	if _, err := w.bw.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return w, nil
}

// Write appends one fingerprint.
func (w *Writer) Write(fp fingerprint.Fingerprint) error {
	raw := fp.Bytes()
	if _, err := w.bw.Write(raw[:]); err != nil {
		return fmt.Errorf("trace: write fingerprint: %w", err)
	}
	w.count++
	return nil
}

// Close flushes, patches the record count into the header, and closes.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("trace: flush: %w", err)
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], w.count)
	if _, err := w.f.WriteAt(buf[:], w.countOff); err != nil {
		w.f.Close()
		return fmt.Errorf("trace: patch count: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("trace: close: %w", err)
	}
	return nil
}

// Reader streams fingerprints out of a trace file.
type Reader struct {
	f         *os.File
	br        *bufio.Reader
	name      string
	chunkSize int
	count     uint64
	read      uint64
}

// OpenReader opens a trace file and parses its header.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	r := &Reader{f: f, br: bufio.NewReaderSize(f, 1<<20)}
	if err := r.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) readHeader() error {
	fixed := make([]byte, 4+2+2)
	if _, err := io.ReadFull(r.br, fixed); err != nil {
		return fmt.Errorf("trace: read header: %w", err)
	}
	if string(fixed[0:4]) != fileMagic {
		return fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := binary.BigEndian.Uint16(fixed[4:6]); v != fileVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	nameLen := int(binary.BigEndian.Uint16(fixed[6:8]))
	rest := make([]byte, nameLen+4+8)
	if _, err := io.ReadFull(r.br, rest); err != nil {
		return fmt.Errorf("trace: read header: %w", err)
	}
	r.name = string(rest[:nameLen])
	r.chunkSize = int(binary.BigEndian.Uint32(rest[nameLen : nameLen+4]))
	r.count = binary.BigEndian.Uint64(rest[nameLen+4:])
	return nil
}

// Name returns the workload name recorded in the header.
func (r *Reader) Name() string { return r.name }

// ChunkSize returns the chunk size recorded in the header.
func (r *Reader) ChunkSize() int { return r.chunkSize }

// Count returns the number of fingerprints recorded in the header.
func (r *Reader) Count() uint64 { return r.count }

// Next returns the next fingerprint, or false at end of stream.
func (r *Reader) Next() (fingerprint.Fingerprint, bool, error) {
	if r.read >= r.count {
		return fingerprint.Zero, false, nil
	}
	var raw [fingerprint.Size]byte
	if _, err := io.ReadFull(r.br, raw[:]); err != nil {
		return fingerprint.Zero, false, fmt.Errorf("%w: truncated at record %d: %v", ErrBadTrace, r.read, err)
	}
	r.read++
	return fingerprint.FromBytes(raw[:]), true, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error {
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("trace: close: %w", err)
	}
	return nil
}

// WriteSpec generates the spec's whole stream into a trace file.
func WriteSpec(path string, spec Spec) (Stats, error) {
	g := NewGenerator(spec)
	w, err := NewWriter(path, spec.Name, g.Spec().ChunkSize)
	if err != nil {
		return Stats{}, err
	}
	an := NewAnalyzer(spec.Name)
	for {
		fp, ok := g.Next()
		if !ok {
			break
		}
		if err := w.Write(fp); err != nil {
			w.Close()
			return Stats{}, err
		}
		an.Observe(fp)
	}
	if err := w.Close(); err != nil {
		return Stats{}, err
	}
	return an.Stats(), nil
}
