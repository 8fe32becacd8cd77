package keys

import (
	"bytes"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	s := mustNew(t, []int64{3, 1, 4, 159, 26535})
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("text round trip mismatch: %v vs %v", got, s)
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n10\n\n 20 \n#30\n5\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := mustNew(t, []int64{5, 10, 20})
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	if _, err := ReadText(strings.NewReader("12\nbanana\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

func TestReadTextCanonicalizes(t *testing.T) {
	got, err := ReadText(strings.NewReader("5\n1\n5\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := mustNew(t, []int64{1, 3, 5})
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
