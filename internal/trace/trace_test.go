package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceValidate(t *testing.T) {
	good := New("g",
		Record{Time: 0, Op: OpWrite, Offset: 0, Size: 4096},
		Record{Time: 10, Op: OpRead, Offset: 4096, Size: 4096},
	)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Trace{
		New("order", Record{Time: 10, Size: 1}, Record{Time: 5, Size: 1}),
		New("size", Record{Time: 0, Size: 0}),
		New("offset", Record{Time: 0, Offset: -1, Size: 1}),
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("trace %s accepted", tr.Name)
		}
	}
}

func TestRecordEndAndMaxOffset(t *testing.T) {
	r := Record{Offset: 100, Size: 50}
	if r.End() != 150 {
		t.Errorf("End = %d", r.End())
	}
	tr := New("",
		Record{Offset: 0, Size: 10},
		Record{Offset: 500, Size: 100},
		Record{Offset: 300, Size: 10},
	)
	if tr.MaxOffset() != 600 {
		t.Errorf("MaxOffset = %d", tr.MaxOffset())
	}
	if (&Trace{}).MaxOffset() != 0 {
		t.Error("empty trace MaxOffset != 0")
	}
}

func TestMaxOffsetMemoisedByAppend(t *testing.T) {
	tr := New("")
	tr.Append(Record{Offset: 100, Size: 10})
	if tr.MaxOffset() != 110 {
		t.Errorf("MaxOffset = %d after first append", tr.MaxOffset())
	}
	tr.Append(Record{Offset: 0, Size: 10})
	if tr.MaxOffset() != 110 {
		t.Error("smaller append must not shrink MaxOffset")
	}
	tr.Append(Record{Offset: 1000, Size: 24})
	if tr.MaxOffset() != 1024 {
		t.Errorf("MaxOffset = %d after growth", tr.MaxOffset())
	}
}

func TestTraceLenAt(t *testing.T) {
	recs := []Record{
		{Time: 1, Op: OpWrite, Offset: 10, Size: 20},
		{Time: 2, Op: OpRead, Offset: 30, Size: 40},
	}
	tr := New("la", recs...)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i, want := range recs {
		if got := tr.At(i); got != want {
			t.Errorf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

func TestTraceSortStable(t *testing.T) {
	tr := New("",
		Record{Time: 5, Offset: 1, Size: 1},
		Record{Time: 2, Offset: 2, Size: 1},
		Record{Time: 5, Offset: 3, Size: 1},
	)
	tr.Sort()
	if tr.At(0).Offset != 2 || tr.At(1).Offset != 1 || tr.At(2).Offset != 3 {
		t.Errorf("sort order wrong: %+v %+v %+v", tr.At(0), tr.At(1), tr.At(2))
	}
}

func TestOpTypeString(t *testing.T) {
	if OpRead.String() != "Read" || OpWrite.String() != "Write" {
		t.Error("OpType strings wrong")
	}
}

func TestMSRRoundTrip(t *testing.T) {
	orig := New("rt",
		Record{Time: 0, Op: OpWrite, Offset: 8192, Size: 4096},
		Record{Time: 150 * 100, Op: OpRead, Offset: 0, Size: 16384},
		Record{Time: 400 * 100, Op: OpWrite, Offset: 123456512, Size: 8192},
	)
	var buf bytes.Buffer
	if err := WriteMSR(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMSR("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("record count %d, want %d", got.Len(), orig.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.At(i) != orig.At(i) {
			t.Errorf("record %d: got %+v want %+v", i, got.At(i), orig.At(i))
		}
	}
}

func TestParseMSRRebasesTimestamps(t *testing.T) {
	in := "128166372003061629,host,0,Write,4096,4096,100\n" +
		"128166372003061729,host,0,Read,0,512,50\n"
	tr, err := ParseMSR("m", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(0).Time != 0 {
		t.Errorf("first timestamp %d, want 0", tr.At(0).Time)
	}
	if tr.At(1).Time != 100*filetimeTick {
		t.Errorf("second timestamp %d, want %d", tr.At(1).Time, 100*filetimeTick)
	}
}

func TestParseMSRSkipsCommentsAndBlank(t *testing.T) {
	in := "# header comment\n\n1000,h,0,Read,0,4096,0\n"
	tr, err := ParseMSR("c", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("records = %d, want 1", tr.Len())
	}
}

func TestParseMSRAcceptsShortOps(t *testing.T) {
	in := "0,h,0,R,0,4096,0\n1,h,0,W,4096,4096,0\n"
	tr, err := ParseMSR("s", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(0).Op != OpRead || tr.At(1).Op != OpWrite {
		t.Error("short op codes misparsed")
	}
}

func TestParseMSRErrors(t *testing.T) {
	cases := []string{
		"1,h,0,Read,0\n",         // too few fields
		"x,h,0,Read,0,4096,0\n",  // bad timestamp
		"1,h,0,Erase,0,4096,0\n", // bad op
		"1,h,0,Read,zz,4096,0\n", // bad offset
		"1,h,0,Read,0,zz,0\n",    // bad size
		"1,h,0,Read,0,0,0\n",     // zero size
	}
	for _, in := range cases {
		if _, err := ParseMSR("bad", strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestParseMSRSortsOutOfOrder(t *testing.T) {
	in := "200,h,0,Read,0,512,0\n100,h,0,Write,512,512,0\n"
	tr, err := ParseMSR("o", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("parsed trace invalid: %v", err)
	}
	if tr.At(0).Op != OpWrite {
		t.Error("records not sorted by time")
	}
}

// TestTraceValidityRecorded: a producer records validity once, so Validate
// on a produced trace is O(1); Append and Sort clear the record, and a
// hand-built trace is still scanned on every call.
func TestTraceValidityRecorded(t *testing.T) {
	gen, err := Generate(Profiles["ts0"], 3, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteMSR(&csv, gen); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseMSR("ts0", &csv)
	if err != nil {
		t.Fatal(err)
	}
	var itc bytes.Buffer
	if err := WriteITC(&itc, gen); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeITC("ts0", itc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Trace{"Generate": gen, "ParseMSR": parsed, "DecodeITC": decoded} {
		if !tr.valid {
			t.Fatalf("%s did not record its trace as valid", name)
		}
	}

	// An appended record clears the record, so a bad one is caught.
	gen.Append(Record{Time: gen.At(gen.Len() - 1).Time, Size: 0})
	if gen.valid || gen.Validate() == nil {
		t.Fatal("Append of an invalid record kept the trace valid")
	}
	parsed.Sort()
	if parsed.valid {
		t.Fatal("Sort kept the validity record")
	}
	if err := parsed.Validate(); err != nil {
		t.Fatal(err)
	}
	if parsed.valid {
		t.Fatal("Validate wrote the validity record")
	}

	hand := New("hand", Record{Time: 0, Size: 1})
	if hand.valid {
		t.Fatal("a hand-built trace was recorded valid")
	}
	hand.Append(Record{Time: -1, Size: 1})
	if hand.Validate() == nil {
		t.Fatal("an out-of-order hand-built trace validated")
	}
}
