package keys

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText writes one decimal key per line — the repository's only on-disk
// format, the one cmd/lispoison reads and writes.
func (s Set) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, k := range s.ks {
		if _, err := fmt.Fprintln(bw, k); err != nil {
			return fmt.Errorf("keys: write text: %w", err)
		}
	}
	return bw.Flush()
}

// ReadText parses one decimal key per line. Blank lines and lines starting
// with '#' are skipped. The input need not be sorted or duplicate-free; the
// result is canonicalized via New.
func ReadText(r io.Reader) (Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var ks []int64
	line := 0
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		k, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return Set{}, fmt.Errorf("keys: line %d: %w", line, err)
		}
		ks = append(ks, k)
	}
	if err := sc.Err(); err != nil {
		return Set{}, fmt.Errorf("keys: scan: %w", err)
	}
	return New(ks)
}
