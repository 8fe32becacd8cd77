package main

import (
	"strings"
	"testing"
)

// TestSelectFigures pins -fig resolution against the figure table: all
// keeps its order and leaves perf out, a key list runs in the order given,
// and an unknown key is an error that lists every key the table accepts.
func TestSelectFigures(t *testing.T) {
	keys := func(fs []figure) string {
		var ks []string
		for _, f := range fs {
			ks = append(ks, f.key)
		}
		return strings.Join(ks, ",")
	}
	all, err := selectFigures("all")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keys(all), "2,3,4,5,6,7,8,ext,ablation,online,serve,churn,cascade,throughput,defense"; got != want {
		t.Errorf("-fig all runs %s, want %s", got, want)
	}
	if got, err := selectFigures("perf, 5,online"); err != nil || keys(got) != "perf,5,online" {
		t.Errorf("-fig 'perf, 5,online': got %s, %v", keys(got), err)
	}
	for _, bad := range []string{"nope", "5,all", ""} {
		_, err := selectFigures(bad)
		if err == nil {
			t.Errorf("-fig %q accepted", bad)
			continue
		}
		for _, f := range figures {
			if !strings.Contains(err.Error(), "|"+f.key+"|") && !strings.Contains(err.Error(), "(want "+f.key+"|") {
				t.Errorf("-fig %q: error %q does not list %s", bad, err, f.key)
			}
		}
	}
}
