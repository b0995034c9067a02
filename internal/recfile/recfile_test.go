package recfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

var testMagic = [8]byte{'R', 'E', 'C', 'T', 'E', 'S', 'T', 1}

// write frames payloads with the package's own Write.
func write(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := Write(&buf, testMagic, len(payloads), func(i int, b []byte) []byte { return append(b, payloads[i]...) })
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll reads a file, copying each block and checking the callback's
// arguments.
func readAll(r io.Reader) ([][]byte, error) {
	var out [][]byte
	declared := -1
	err := Read(r, testMagic, func(i, blocks int, b []byte) error {
		if i != len(out) || (declared >= 0 && blocks != declared) {
			return fmt.Errorf("block callback got i=%d blocks=%d after %d blocks of %d", i, blocks, len(out), declared)
		}
		declared = blocks
		out = append(out, bytes.Clone(b))
		return nil
	})
	if err == nil && declared >= 0 && declared != len(out) {
		err = fmt.Errorf("Read returned nil after %d of %d declared blocks", len(out), declared)
	}
	return out, err
}

func testPayloads() [][]byte {
	big := make([]byte, 100_000) // several growth steps of the reader's buffer
	for i := range big {
		big[i] = byte(i * 7)
	}
	return [][]byte{[]byte("header"), {}, big, []byte("tail")}
}

func TestRoundTrip(t *testing.T) {
	want := testPayloads()
	file := write(t, want...)
	for name, r := range map[string]io.Reader{
		"buffer":   bytes.NewReader(file),
		"one-byte": iotest.OneByteReader(bytes.NewReader(file)), // no Seek, no ReadAt, short reads
	} {
		got, err := readAll(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d blocks, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: block %d differs", name, i)
			}
		}
	}
	if got, err := readAll(bytes.NewReader(write(t))); err != nil || len(got) != 0 {
		t.Fatalf("empty file: %d blocks, err %v", len(got), err)
	}
}

// TestLayout pins the bytes against the layout in the package comment,
// assembled here by hand.
func TestLayout(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	var want []byte
	want = append(want, testMagic[:]...)
	want = binary.LittleEndian.AppendUint32(want, 1)
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, tab))
	blk := binary.LittleEndian.AppendUint32(nil, 3)
	crc := crc32.Checksum(append(bytes.Clone(blk), "abc"...), tab)
	blk = binary.LittleEndian.AppendUint32(blk, crc)
	want = append(append(want, blk...), "abc"...)
	if got := write(t, []byte("abc")); !bytes.Equal(got, want) {
		t.Fatalf("layout drifted:\n got %x\nwant %x", got, want)
	}
}

func TestWrongMagicIsUnsupported(t *testing.T) {
	file := write(t, []byte("x"))
	other := testMagic
	other[7] = 2
	none := func(int, int, []byte) error { return nil }
	if err := Read(bytes.NewReader(file), other, none); !errors.Is(err, ErrUnsupported) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("version mismatch: %v, want ErrUnsupported", err)
	}
	if err := Read(bytes.NewReader([]byte("\x1f\x8b\x08\x00 a gzip stream")), testMagic, none); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("foreign file: %v, want ErrUnsupported", err)
	}
}

// TestEveryTruncationIsCorrupt cuts a file at every offset, block
// boundaries included: each prefix is ErrCorrupt, never a short success.
func TestEveryTruncationIsCorrupt(t *testing.T) {
	file := write(t, []byte("header"), nil, []byte("some payload"), []byte("tail"))
	for n := 0; n < len(file); n++ {
		if _, err := readAll(bytes.NewReader(file[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d of %d: %v, want ErrCorrupt", n, len(file), err)
		}
	}
}

// TestEveryBitFlipIsDetected flips each bit of a file in turn.
func TestEveryBitFlipIsDetected(t *testing.T) {
	file := write(t, []byte("header"), nil, []byte("some payload"), []byte("tail"))
	for i := 0; i < len(file)*8; i++ {
		mut := bytes.Clone(file)
		mut[i/8] ^= 1 << (i % 8)
		_, err := readAll(bytes.NewReader(mut))
		want := ErrCorrupt
		if i/8 < 8 {
			want = ErrUnsupported
		}
		if !errors.Is(err, want) {
			t.Fatalf("bit %d of byte %d: %v, want %v", i%8, i/8, err, want)
		}
	}
}

func TestTrailingBytesAreCorrupt(t *testing.T) {
	file := append(write(t, []byte("only")), 0)
	if _, err := readAll(bytes.NewReader(file)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
}

// TestLyingLengthCostsNoMemory: a block header may claim up to MaxBlock
// bytes; with only a few present the reader must fail on the short read
// having allocated next to nothing, and a claim over the cap is refused
// before any read.
func TestLyingLengthCostsNoMemory(t *testing.T) {
	file := write(t, []byte("0123456789"))
	atCap := bytes.Clone(file)
	binary.LittleEndian.PutUint32(atCap[16:], MaxBlock)
	overCap := bytes.Clone(file)
	binary.LittleEndian.PutUint32(overCap[16:], MaxBlock+1)
	for name, mut := range map[string][]byte{"at cap": atCap, "over cap": overCap} {
		var err error
		grew := allocatedBytes(func() { _, err = readAll(bytes.NewReader(mut)) })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", name, err)
		}
		if grew > 64<<10 {
			t.Fatalf("%s: rejecting a %d-byte file allocated %d bytes", name, len(mut), grew)
		}
	}
}

// allocatedBytes is the heap allocated by one call of f.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestWriteRefusesOversizeBlock(t *testing.T) {
	big := make([]byte, MaxBlock+1)
	if err := Write(io.Discard, testMagic, 1, func(int, []byte) []byte { return big }); err == nil {
		t.Fatal("Write accepted a block over MaxBlock")
	}
}

// TestReadStopsAtCallbackError: the callback's error comes back as is and
// no further block is delivered.
func TestReadStopsAtCallbackError(t *testing.T) {
	file := write(t, []byte("a"), []byte("b"), []byte("c"))
	stop := errors.New("enough")
	calls := 0
	err := Read(bytes.NewReader(file), testMagic, func(i, _ int, _ []byte) error {
		if calls++; i == 1 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 2 {
		t.Fatalf("Read = %v after %d calls, want the callback's error after 2", err, calls)
	}
}

// TestReadErrorsPassThrough: an I/O failure is not corruption.
func TestReadErrorsPassThrough(t *testing.T) {
	file := write(t, []byte("header"), []byte("body"))
	boom := errors.New("disk on fire")
	for cut := 0; cut < len(file); cut += 5 {
		r := io.MultiReader(bytes.NewReader(file[:cut]), iotest.ErrReader(boom))
		if _, err := readAll(r); !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("read error after %d bytes: %v, want the I/O error itself", cut, err)
		}
	}
	r := io.MultiReader(bytes.NewReader(file), iotest.ErrReader(boom))
	if _, err := readAll(r); !errors.Is(err, boom) {
		t.Fatalf("read error at the end-of-file probe: %v", err)
	}
}

func TestWriteErrorsSurface(t *testing.T) {
	boom := errors.New("disk full")
	for _, size := range []int{0, 128 << 10} { // inside the write buffer, and past it
		err := Write(errWriter{boom}, testMagic, 1, func(int, []byte) []byte { return make([]byte, size) })
		if !errors.Is(err, boom) {
			t.Fatalf("%d-byte block: %v, want the writer's error", size, err)
		}
	}
}

type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }
