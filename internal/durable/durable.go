// Package durable owns the two decisions every durable file of the model
// shares: how bytes are framed and verified, and how a file is replaced
// crash-safely. Checkpoint shards, restart files and history files are
// all one record of the same container:
//
//	magic "GRST" | version uint16 | kind uint8 | pad | payload | CRC32-IEEE
//
// little-endian, the checksum covering everything before it. Decode is
// the only place a record is verified and Replace the only place a file
// is swapped into its name, so a framing or tearing bug has one home.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"gristgo/internal/vfs"
)

// Kind says what a record's payload is, so a file of one format offered
// to the reader of another is refused before its payload is parsed.
type Kind uint8

// The byte values are the on-disk format. 3 was the grouped-I/O leader
// stream; it is retired, not free: files of that kind may still exist.
const (
	Shard   Kind = 1 // one rank's region of a checkpoint epoch
	Restart Kind = 2 // a serial model's full restart state
	History Kind = 4 // a GDF history dataset
)

func (k Kind) String() string {
	switch k {
	case Shard:
		return "shard"
	case Restart:
		return "restart"
	case History:
		return "history"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Version history: 1 = bare gob restart, 2 = framed restart with its own
// header (shards and history each had a private framing), 3 = this
// container for all of them.
const (
	magic   = "GRST"
	version = 3

	headerLen  = len(magic) + 2 + 1 + 1
	trailerLen = 4
	// Overhead is the framing cost of a record beyond its payload.
	Overhead = headerLen + trailerLen
)

// ErrCorrupt is wrapped by every Decode failure (and by the format
// readers' own structural checks), so a consumer can tell "these bytes
// are not a valid record" from an I/O error with errors.Is.
var ErrCorrupt = errors.New("durable: corrupt record")

// Encode streams one record of kind k to w: header, whatever write
// emits, then the checksum of both.
func Encode(w io.Writer, k Kind, write func(io.Writer) error) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint16(hdr[len(magic):], version)
	hdr[len(magic)+2] = byte(k)
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	if err := write(mw); err != nil {
		return err
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// Decode verifies raw as one record of kind k — length, magic, version,
// kind, reserved byte, checksum, in that order — and returns its payload
// (a subslice of raw). Every failure wraps ErrCorrupt with the specific
// reason.
func Decode(raw []byte, k Kind) ([]byte, error) {
	if len(raw) < Overhead {
		return nil, fmt.Errorf("%w: %s record truncated (%d bytes, need at least %d)", ErrCorrupt, k, len(raw), Overhead)
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: not a %s file (magic %q, want %q)", ErrCorrupt, k, raw[:len(magic)], magic)
	}
	if v := binary.LittleEndian.Uint16(raw[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: unsupported format version %d (this build reads %d)", ErrCorrupt, v, version)
	}
	if got := Kind(raw[len(magic)+2]); got != k {
		return nil, fmt.Errorf("%w: a %s record, not a %s", ErrCorrupt, got, k)
	}
	if pad := raw[headerLen-1]; pad != 0 {
		return nil, fmt.Errorf("%w: reserved header byte is %#02x, want 0", ErrCorrupt, pad)
	}
	body, trailer := raw[:len(raw)-trailerLen], raw[len(raw)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: CRC32 %08x, trailer says %08x", ErrCorrupt, got, want)
	}
	return body[headerLen:], nil
}

// Replace streams write into a temp file in path's directory, syncs it,
// and renames it over path — the crash-safe replace, over an injectable
// filesystem so the chaos layer can interpose torn writes, ENOSPC and
// rename reordering on exactly the operations a storage failure hits.
// The stream is buffered so the file sees syscall-sized writes (a shard
// emits one level-run at a time, which would otherwise hand the fault
// layer thousands of chances per file instead of a handful). On any
// error the temp file is removed and path is untouched. The temp name
// keeps the "."+base+".tmp-" shape: fault.FS strips everything after
// ".tmp-" so a file's verdict stream survives the random suffix.
func Replace(fsys vfs.FS, path string, write func(io.Writer) error) error {
	f, err := fsys.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		fsys.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}

// WriteFile replaces path with one record of kind k.
func WriteFile(fsys vfs.FS, path string, k Kind, write func(io.Writer) error) error {
	return Replace(fsys, path, func(w io.Writer) error { return Encode(w, k, write) })
}

// ReadFile reads path and returns the verified payload of its record.
func ReadFile(fsys vfs.FS, path string, k Kind) ([]byte, error) {
	raw, err := fsys.ReadFile(path, nil)
	if err != nil {
		return nil, err
	}
	payload, err := Decode(raw, k)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return payload, nil
}
