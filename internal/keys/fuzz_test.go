package keys

import (
	"bytes"
	"testing"
)

// FuzzReadText: any input either fails to parse or canonicalizes into a set
// whose text serialization round-trips exactly.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("1\n2\n3\n"))
	f.Add([]byte("# comment\n\n42\n7\n42\n"))
	f.Add([]byte("  17 \n0\n9223372036854775807\n"))
	f.Add([]byte("-5\n0\n12\n"))
	f.Add([]byte("1e9\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		for i := 1; i < s.Len(); i++ {
			if s.At(i) <= s.At(i-1) {
				t.Fatalf("ReadText produced unsorted/duplicate keys: %v", s)
			}
		}
		var buf bytes.Buffer
		if err := s.WriteText(&buf); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		s2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("text round-trip parse: %v", err)
		}
		if !s.Equal(s2) {
			t.Fatalf("text round-trip changed the set: %v != %v", s, s2)
		}
	})
}
