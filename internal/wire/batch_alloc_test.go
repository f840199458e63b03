package wire

import (
	"bytes"
	"errors"
	"testing"
)

func allocTestEntries() []BatchEntry {
	return []BatchEntry{
		{Kind: OpInsert, Arg: 5, Data: []byte("value-five")},
		{Kind: OpDeleteMin},
		{Kind: OpInsert, Arg: -2, Data: []byte("v")},
		{Kind: OpPopLease, Arg: 1000},
	}
}

// TestAppendBatchMatchesAppend: encoding in place produces exactly the
// bytes of Append over the concatenated entries, traced and untraced, and
// appends after whatever dst already holds.
func TestAppendBatchMatchesAppend(t *testing.T) {
	entries := allocTestEntries()
	var payload []byte
	for _, e := range entries {
		var err error
		if payload, err = AppendBatchEntry(payload, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, trace := range []uint64{0, 0xabcdef} {
		want, err := Append([]byte("prefix"), Frame{Kind: OpBatch, Arg: int64(len(entries)),
			Data: payload, Trace: trace, SendNano: 42})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendBatch([]byte("prefix"), entries, trace, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trace %#x: AppendBatch = %x, want %x", trace, got, want)
		}
	}
}

// TestAppendBatchErrorKeepsDst: a failed encode leaves dst's contents and
// length as they were.
func TestAppendBatchErrorKeepsDst(t *testing.T) {
	dst := []byte("keep")
	got, err := AppendBatch(dst, []BatchEntry{{Kind: OpInsert, Data: []byte("x")}, {Kind: StatusOK}}, 0, 0)
	if !errors.Is(err, ErrBadBatch) {
		t.Fatalf("err = %v, want ErrBadBatch", err)
	}
	if string(got) != "keep" {
		t.Fatalf("dst after error = %q, want %q", got, "keep")
	}
	big := []BatchEntry{{Kind: OpInsert, Data: make([]byte, MaxData/2)}, {Kind: OpInsert, Data: make([]byte, MaxData/2)}}
	if got, err = AppendBatch(dst, big, 0, 0); !errors.Is(err, ErrFrameTooBig) || string(got) != "keep" {
		t.Fatalf("oversized batch: err = %v, dst = %d bytes", err, len(got))
	}
}

// TestAppendBatchNoAllocs: with room in dst, encoding a batch allocates
// nothing.
func TestAppendBatchNoAllocs(t *testing.T) {
	entries := allocTestEntries()
	dst := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = AppendBatch(dst[:0], entries, 0, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendBatch allocates %v per call, want 0", n)
	}
}

// TestDecodeBatchIntoNoAllocs: decoding into a reused entry slice
// allocates nothing and yields the same entries as DecodeBatch.
func TestDecodeBatchIntoNoAllocs(t *testing.T) {
	enc, err := AppendBatch(nil, allocTestEntries(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Read(bytes.NewReader(enc), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []BatchEntry
	if scratch, err = DecodeBatchInto(scratch, f); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if scratch, err = DecodeBatchInto(scratch[:0], f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeBatchInto allocates %v per call, want 0", n)
	}
	if len(scratch) != len(want) {
		t.Fatalf("%d entries, want %d", len(scratch), len(want))
	}
	for i := range want {
		if scratch[i].Kind != want[i].Kind || scratch[i].Arg != want[i].Arg || !bytes.Equal(scratch[i].Data, want[i].Data) {
			t.Fatalf("entry %d: %+v, want %+v", i, scratch[i], want[i])
		}
	}
}

// TestDecodeBatchIntoAppends: entries land after what dst already holds,
// and a malformed frame leaves dst's length untouched.
func TestDecodeBatchIntoAppends(t *testing.T) {
	enc, err := AppendBatch(nil, allocTestEntries(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Read(bytes.NewReader(enc), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := []BatchEntry{{Kind: OpPing, Arg: 99}}
	dst, err = DecodeBatchInto(dst, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 1+len(allocTestEntries()) || dst[0].Arg != 99 || dst[1].Arg != 5 {
		t.Fatalf("DecodeBatchInto = %+v", dst)
	}
	torn := Frame{Kind: OpBatch, Arg: f.Arg, Data: f.Data[:len(f.Data)-1]}
	if got, err := DecodeBatchInto(dst, torn); !errors.Is(err, ErrBadBatch) || len(got) != len(dst) {
		t.Fatalf("torn frame: err = %v, len %d, want ErrBadBatch and len %d", err, len(got), len(dst))
	}
}
