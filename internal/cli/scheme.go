package cli

import (
	"flag"
	"slices"
	"strings"

	"mcauth/internal/catalog"
)

// SchemeFlags declares the paper's scheme parameters on fs: -scheme (one
// of ids, default id), -n (default n), E_{m,d}'s -m -d, C_{a,b}'s -a -b,
// and TESLA's -lag when ids offers TESLA. The returned spec holds the
// parsed values; the caller sets its Interval and Seed.
func SchemeFlags(fs *flag.FlagSet, id string, n int, ids []string) *catalog.Spec {
	s := &catalog.Spec{}
	fs.StringVar(&s.ID, "scheme", id, "scheme: "+strings.Join(ids, "|"))
	fs.IntVar(&s.N, "n", n, "block size (payloads per block)")
	fs.IntVar(&s.M, "m", 2, "EMSS m")
	fs.IntVar(&s.D, "d", 1, "EMSS d")
	fs.IntVar(&s.A, "a", 3, "augmented chain a")
	fs.IntVar(&s.B, "b", 3, "augmented chain b")
	if slices.Contains(ids, "tesla") {
		fs.IntVar(&s.Lag, "lag", 4, "TESLA disclosure lag (intervals)")
	}
	return s
}
